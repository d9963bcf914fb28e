package predict

import (
	"fmt"
	"testing"

	"repro/internal/digiroad"
	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/sink"
)

// benchGraph builds an n x n street grid (spacing 200 m, 36 km/h), a
// road network big enough that the routing cost dominates the way it
// does on a real city graph.
func benchGraph(b *testing.B, n int) (*roadnet.Graph, *roadnet.Router) {
	b.Helper()
	db := digiroad.NewDatabase(digiroad.OuluOrigin)
	const step = 200.0
	id := 1
	add := func(x1, y1, x2, y2 float64) {
		_, err := db.AddElement(digiroad.TrafficElement{
			ID: id, Geom: geo.Line(x1, y1, x2, y2),
			Class: digiroad.ClassLocal, Flow: digiroad.FlowBoth, SpeedLimitKmh: 36,
		})
		if err != nil {
			b.Fatal(err)
		}
		id++
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i+1 < n {
				add(float64(i)*step, float64(j)*step, float64(i+1)*step, float64(j)*step)
			}
			if j+1 < n {
				add(float64(i)*step, float64(j)*step, float64(i)*step, float64(j+1)*step)
			}
		}
	}
	g, err := roadnet.Build(db)
	if err != nil {
		b.Fatal(err)
	}
	return g, g.Router()
}

// benchSnapshot profiles every edge of the graph at three rush hours,
// the worst case for profileFor (the whole map is scanned per query).
func benchSnapshot(g *roadnet.Graph) *sink.Snapshot {
	profiles := map[sink.EdgeProfileKey]sink.EdgeProfileStats{}
	for i := range g.Edges {
		for _, hour := range []int{7, 8, 9} {
			pace := 100.0 + float64(int(g.Edges[i].ID)%7)*20
			profiles[sink.EdgeProfileKey{Edge: g.Edges[i].ID, Hour: hour}] = sink.EdgeProfileStats{
				N: 25, MeanSPerKm: pace, VarSPerKm: 40, MinSPerKm: pace - 30, MaxSPerKm: pace + 30,
			}
		}
	}
	return &sink.Snapshot{Epoch: 1, EdgeProfiles: profiles}
}

// BenchmarkPredict measures one end-to-end /v1/predict evaluation —
// profile fold, weighted shortest path, prediction assembly — against
// a 24x24 street grid, with and without learned profiles.
func BenchmarkPredict(b *testing.B) {
	g, r := benchGraph(b, 24)
	from := geo.XY{X: 0, Y: 0}
	to := geo.XY{X: 23 * 200, Y: 23 * 200}
	for _, bc := range []struct {
		name string
		snap *sink.Snapshot
		hour int
	}{
		{"freeflow", &sink.Snapshot{Epoch: 1}, -1},
		{"profiled_hour", benchSnapshot(g), 8},
		{"profiled_allday", benchSnapshot(g), -1},
	} {
		b.Run(fmt.Sprintf("%s/edges=%d", bc.name, len(g.Edges)), func(b *testing.B) {
			pr := NewPredictor(g, r)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := pr.Predict(bc.snap, from, to, bc.hour); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// The serving path answers concurrent queries over one shared
	// predictor and snapshot; GOMAXPROCS goroutines stress exactly that.
	b.Run(fmt.Sprintf("profiled_hour_concurrent/edges=%d", len(g.Edges)), func(b *testing.B) {
		pr := NewPredictor(g, r)
		snap := benchSnapshot(g)
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, err := pr.Predict(snap, from, to, 8); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// BenchmarkAnomalyReport measures one /v1/anomalies evaluation — score
// every cell and OD against the EW reference, then fold the epoch —
// at serving-realistic snapshot sizes.
func BenchmarkAnomalyReport(b *testing.B) {
	for _, cells := range []int{100, 1000} {
		b.Run(fmt.Sprintf("cells=%d", cells), func(b *testing.B) {
			base := func(epoch uint64) *sink.Snapshot {
				cs := make(map[grid.CellID]sink.CellStats, cells)
				for i := 0; i < cells; i++ {
					cs[grid.CellID{I: i % 40, J: i / 40}] = sink.CellStats{
						N: 30, MeanKmh: 25 + float64(i%10),
					}
				}
				h := &obs.Histogram{}
				for i := 0; i < 10; i++ {
					h.Observe(240)
				}
				return &sink.Snapshot{
					Epoch: epoch,
					Cells: cs,
					OD: map[sink.ODKey]sink.ODStats{
						{From: "T", To: "S"}: {
							From: "T", To: "S", Trips: 10,
							TravelTimeS: h.Freeze(),
							DistKm:      sink.MetricStats{N: 10, Mean: 2, Min: 2, Max: 2},
						},
					},
				}
			}
			det := NewAnomalyDetector(AnomalyConfig{})
			for e := uint64(1); e <= 4; e++ {
				det.Observe(base(e))
			}
			snap := base(100)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				snap.Epoch = uint64(100 + i) // each epoch scored and folded once
				if rep := det.Report(snap); rep.CellsScored == 0 {
					b.Fatal("nothing scored")
				}
			}
		})
	}
}
