package sink

import (
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/grid"
)

// benchSink builds a sink over the standard bench grid with
// auto-publish disabled, so absorb and publish cost are measured
// separately.
func benchSink(b *testing.B) *Sink {
	b.Helper()
	g, err := grid.New(geo.R(0, 0, 2000, 2000), 200)
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{Grid: g, PublishEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// benchCars prebuilds a pool of car results (ids 0..n-1, rows spread
// across the grid) so the generators stay out of the timed loop.
func benchCars(n int) []*core.CarResult {
	out := make([]*core.CarResult, n)
	for i := range out {
		dir := "T-S"
		if i%2 == 1 {
			dir = "S-T"
		}
		cr := synthCar(i%19, dir, 20, 35, 50, 45, 30, 25, 40, 55)
		cr.Car = i
		out[i] = &cr
	}
	return out
}

// BenchmarkSinkAbsorb measures single-writer ingest throughput: one
// 8-point transition per car folded into the sink's aggregation.
func BenchmarkSinkAbsorb(b *testing.B) {
	s := benchSink(b)
	pool := benchCars(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Absorb(pool[i%len(pool)])
	}
}

// BenchmarkSinkAbsorbParallel measures contended ingest: GOMAXPROCS
// writers absorbing through the sink's one mutex.
func BenchmarkSinkAbsorbParallel(b *testing.B) {
	s := benchSink(b)
	pool := benchCars(256)
	var next atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(next.Add(1))
			s.Absorb(pool[i%len(pool)])
		}
	})
}

// BenchmarkSinkPublish measures the freeze + snapshot-build cost of one
// publish over a sink holding 512 absorbed cars.
func BenchmarkSinkPublish(b *testing.B) {
	s := benchSink(b)
	for _, cr := range benchCars(512) {
		s.Absorb(cr)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Publish()
	}
}
