package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/geo"
	"repro/internal/ingest"
	"repro/internal/sink"
)

// BenchmarkIngestPost runs POST /v1/ingest's handler path, TAXIPNTB
// decode, admission and the watermark step, over 600 bodies of 512
// points. The bodies interleave 600 open trips of 512 points each, one
// trip per car, about the firehose's open-trip peak, so every body
// holds points of most cars. Each op posts every body to a fresh
// engine at the default step cadence (every 256 points, so a step per
// body); no trip closes, so no round runs. It reports ns, B and
// allocations per point.
func BenchmarkIngestPost(b *testing.B) {
	p := ingestPipeline(b)
	const trips, perTrip, body = 600, 512, 512
	area := p.Config.Clean.Area
	ll := p.City.DB.Proj.ToPoint(geo.XY{X: (area.MinX + area.MaxX) / 2, Y: (area.MinY + area.MaxY) / 2})
	pts := make([]ingest.Point, 0, trips*perTrip)
	for j := range perTrip {
		for car := 1; car <= trips; car++ {
			pts = append(pts, ingest.Point{
				Car: car, Trip: int64(car), Seq: j, TimeMs: int64(1+j) * 1000,
				Lon: ll.Lon + float64(car)*1e-5, Lat: ll.Lat + float64(j)*1e-6,
				SpeedKmh: 25, FuelMl: float64(j) / 10, DistM: float64(j) * 7,
			})
		}
	}
	var bodies [][]byte
	for k := 0; k < len(pts); k += body {
		var buf bytes.Buffer
		if err := ingest.WriteBinary(&buf, pts[k:k+body]); err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, buf.Bytes())
	}
	g, err := sink.GridForPipeline(p)
	if err != nil {
		b.Fatal(err)
	}

	reqs := make([]*http.Request, len(bodies))
	recs := make([]*httptest.ResponseRecorder, len(bodies))
	var before, after runtime.MemStats
	var bytesAlloc, mallocs uint64
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		s, err := sink.New(sink.Config{Grid: g, PublishEvery: 1, Gates: p.Selector.GateNames()})
		if err != nil {
			b.Fatal(err)
		}
		e, err := ingest.New(ingest.Config{Pipeline: p, Sink: s})
		if err != nil {
			b.Fatal(err)
		}
		api := NewAPI(s, nil).WithIngest(e)
		for i, body := range bodies {
			reqs[i] = httptest.NewRequest("POST", "/v1/ingest", bytes.NewReader(body))
			recs[i] = httptest.NewRecorder()
		}
		runtime.ReadMemStats(&before)
		b.StartTimer()
		for i := range reqs {
			api.ServeHTTP(recs[i], reqs[i])
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		bytesAlloc += after.TotalAlloc - before.TotalAlloc
		mallocs += after.Mallocs - before.Mallocs
		for _, rec := range recs {
			if rec.Code != http.StatusOK {
				b.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
			}
		}
		if st := e.Stats(); st.BufferedPoints != len(pts) || st.ClosedTrips != 0 {
			b.Fatalf("buffered %d of %d points, closed %d trips", st.BufferedPoints, len(pts), st.ClosedTrips)
		}
		b.StartTimer()
	}
	n := float64(b.N) * float64(len(pts))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/point")
	b.ReportMetric(float64(bytesAlloc)/n, "B/point")
	b.ReportMetric(float64(mallocs)/n, "allocs/point")
}
