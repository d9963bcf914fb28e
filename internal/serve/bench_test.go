package serve

import (
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/sink"
)

// benchAPI builds an API over a sink holding cars cars (spread over the
// grid rows, alternating directions), auto-publish disabled so the
// snapshot stays fixed unless the bench ingests live.
func benchAPI(b *testing.B, cars int) (*sink.Sink, *API) {
	b.Helper()
	g, err := grid.New(geo.R(0, 0, 2000, 2000), 200)
	if err != nil {
		b.Fatal(err)
	}
	s, err := sink.New(sink.Config{Grid: g, PublishEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < cars; i++ {
		dir := "T-S"
		if i%2 == 1 {
			dir = "S-T"
		}
		cr := buildCar(i%9, dir, 20, 35, 50, 45, 30, 25, 40, 55)
		cr.Car = i
		s.Absorb(&cr)
	}
	s.Publish()
	return s, NewAPI(s, nil)
}

// BenchmarkServeQuery measures single-client latency per endpoint over
// a snapshot of 512 cars.
func BenchmarkServeQuery(b *testing.B) {
	_, api := benchAPI(b, 512)
	for _, bc := range []struct{ name, path string }{
		{"snapshot", "/v1/snapshot"},
		{"grid", "/v1/grid"},
		{"grid-bbox", "/v1/grid?bbox=0,0,800,800"},
		{"cell", "/v1/cells/c000.000"},
		{"od", "/v1/od"},
		{"odpair", "/v1/od/T-S"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				api.ServeHTTP(rec, httptest.NewRequest("GET", bc.path, nil))
				if rec.Code != http.StatusOK {
					b.Fatalf("status %d", rec.Code)
				}
			}
		})
	}
}

// BenchmarkServeQueryConcurrent measures query latency under load:
// GOMAXPROCS readers hitting /v1/od while a background writer keeps
// absorbing and publishing new epochs. Reports p50/p99 over all
// sampled request latencies alongside the usual ns/op.
func BenchmarkServeQueryConcurrent(b *testing.B) {
	s, api := benchAPI(b, 512)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			cr := buildCar(i%9, "T-S", 20, 35, 50)
			cr.Car = i
			s.Absorb(&cr)
			s.Publish()
			i++
		}
	}()

	var mu sync.Mutex
	var lat []float64
	var bad atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		local := make([]float64, 0, 1024)
		for pb.Next() {
			t0 := time.Now()
			rec := httptest.NewRecorder()
			api.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/od", nil))
			local = append(local, float64(time.Since(t0).Nanoseconds()))
			if rec.Code != http.StatusOK {
				bad.Add(1)
			}
		}
		mu.Lock()
		lat = append(lat, local...)
		mu.Unlock()
	})
	b.StopTimer()
	close(stop)
	wg.Wait()
	if bad.Load() > 0 {
		b.Fatalf("%d non-200 responses", bad.Load())
	}
	sort.Float64s(lat)
	if n := len(lat); n > 0 {
		b.ReportMetric(lat[n/2], "p50-ns")
		b.ReportMetric(lat[n*99/100], "p99-ns")
	}
}
