package ingest

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sink"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// The ingest benchmarks replay the differential fixture's fleet — 32
// cars flattened to one event-time firehose — so throughput numbers
// describe the same workload the correctness gate verifies.
var benchFix struct {
	once sync.Once
	p    *core.Pipeline
	pts  []Point
	err  error
}

func benchFixture(b *testing.B) (*core.Pipeline, []Point) {
	b.Helper()
	benchFix.once.Do(func() {
		cfg := tracegen.Config{Seed: 42, Cars: 32, TripsPerCar: 3, GateRunFraction: 0.4}
		benchFix.p, benchFix.err = core.NewPipeline(core.Config{
			CitySeed: 42, Fleet: cfg,
		})
		if benchFix.err != nil {
			return
		}
		var gen *tracegen.Generator
		gen, benchFix.err = tracegen.New(benchFix.p.City, benchFix.p.Graph, cfg)
		if benchFix.err != nil {
			return
		}
		raw := map[int][]*trace.Trip{}
		for _, tr := range gen.Fleet() {
			raw[tr.CarID] = append(raw[tr.CarID], tr)
		}
		benchFix.pts = FleetPoints(raw, benchFix.p.City.DB.Proj)
	})
	if benchFix.err != nil {
		b.Fatal(benchFix.err)
	}
	return benchFix.p, benchFix.pts
}

// benchReplay pushes pts point by point through a fresh engine + sink
// per op and reports sustained admission throughput (points/s) plus
// the p99 ingest-to-visible latency — the time from a point's push to
// the flush that made its trip queryable.
func benchReplay(b *testing.B, pts []Point) {
	p, _ := benchFixture(b)
	var p99 float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g, err := sink.GridForPipeline(p)
		if err != nil {
			b.Fatal(err)
		}
		s, err := sink.New(sink.Config{
			Grid: g, PublishEvery: 1, Gates: p.Selector.GateNames(),
		})
		if err != nil {
			b.Fatal(err)
		}
		reg := obs.NewRegistry()
		e, err := New(Config{
			Pipeline:        p,
			Sink:            s,
			AllowedLateness: 30 * time.Second,
			WatermarkEvery:  256,
			Metrics:         reg,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, pt := range pts {
			e.Push(pt)
		}
		e.Close()
		b.StopTimer()
		p99 = e.VisibleLatencyQuantile(0.99)
		st := e.Stats()
		if st.Admitted != uint64(len(pts)) {
			b.Fatalf("admitted %d of %d points", st.Admitted, len(pts))
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(b.N)*float64(len(pts))/b.Elapsed().Seconds(), "points/s")
	b.ReportMetric(p99*1e9, "p99-visible-ns")
}

// BenchmarkIngestReplay is the headline streaming number: an ordered
// firehose and a bounded-shuffle one (the out-of-orderness buffer in
// play) through admission, watermarks, trip close and the batch
// stages into the sink.
func BenchmarkIngestReplay(b *testing.B) {
	_, pts := benchFixture(b)
	b.Run("ordered", func(b *testing.B) {
		benchReplay(b, pts)
	})
	b.Run("shuffled", func(b *testing.B) {
		shuffled := append([]Point(nil), pts...)
		ShuffleWindows(shuffled, 32, 20_000, 7)
		benchReplay(b, shuffled)
	})
}

// BenchmarkIngestDecode isolates the wire codecs: points/s through
// the NDJSON scanner vs the TAXIPNTB binary framing, no engine.
func BenchmarkIngestDecode(b *testing.B) {
	_, pts := benchFixture(b)
	var nd, bin bytes.Buffer
	if err := WriteNDJSON(&nd, pts); err != nil {
		b.Fatal(err)
	}
	if err := WriteBinary(&bin, pts); err != nil {
		b.Fatal(err)
	}
	b.Run("ndjson", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(nd.Len()))
		for i := 0; i < b.N; i++ {
			n := 0
			err := DecodeNDJSON(bytes.NewReader(nd.Bytes()), func(Point) error { n++; return nil })
			if err != nil || n != len(pts) {
				b.Fatalf("decoded %d points, err %v", n, err)
			}
		}
		b.ReportMetric(float64(b.N)*float64(len(pts))/b.Elapsed().Seconds(), "points/s")
	})
	b.Run("binary", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(bin.Len()))
		for i := 0; i < b.N; i++ {
			out, err := ReadBinary(bytes.NewReader(bin.Bytes()))
			if err != nil || len(out) != len(pts) {
				b.Fatalf("decoded %d points, err %v", len(out), err)
			}
		}
		b.ReportMetric(float64(b.N)*float64(len(pts))/b.Elapsed().Seconds(), "points/s")
	})
}
