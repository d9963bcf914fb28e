package taxitrace

// Benchmark harness: one bench per paper table and figure plus the
// ablations called out in DESIGN.md. Absolute timings are not the
// paper's subject; the benches exist so that every reported artifact
// has a one-command regeneration path (go test -bench Table3, etc.)
// and so the ablations quantify the design choices.

import (
	"context"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/clean"
	"repro/internal/coach"
	"repro/internal/digiroad"
	"repro/internal/experiments"
	"repro/internal/geo"
	"repro/internal/mapmatch"
	"repro/internal/obs"
	"repro/internal/odselect"
	"repro/internal/roadnet"
	"repro/internal/routes"
	"repro/internal/segment"
	"repro/internal/trace"
)

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
	benchErr  error
)

func benchEnvironment(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() {
		benchEnv, benchErr = experiments.NewEnv(experiments.EnvConfig{
			Seed: 42, Cars: 4, TripsPerCar: 60, GateRunFraction: 0.25,
		})
	})
	if benchErr != nil {
		b.Fatalf("bench env: %v", benchErr)
	}
	return benchEnv
}

// --- Tables ---

func BenchmarkTable1GraphBuild(b *testing.B) {
	city := digiroad.SynthesizeOulu(digiroad.SynthConfig{Seed: 42})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := roadnet.Build(city.DB)
		if err != nil {
			b.Fatal(err)
		}
		_ = g.JunctionPairs()
	}
}

func BenchmarkTable2Segmentation(b *testing.B) {
	env := benchEnvironment(b)
	a := trace.NewArena(0)
	var sc clean.Scratch
	var cleaned []trace.ColTrip
	for _, v := range rawViews(b, env.P.Gen.CarTrips(1)) {
		if r := clean.RepairColumns(v, clean.Config{}, a, &sc); r.Trip.N > 0 {
			cleaned = append(cleaned, r.Trip)
		}
	}
	rules := segment.DefaultRules()
	var segs []trace.ColTrip
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		segs = segs[:0]
		for _, v := range cleaned {
			segs = segment.SplitColumns(v, rules, nil, segs)
		}
	}
}

// rawViews copies a car's raw trips into one arena, as the stage
// driver does before cleaning.
func rawViews(b *testing.B, trips []*trace.Trip) []trace.ColTrip {
	b.Helper()
	a := trace.NewArena(0)
	views := make([]trace.ColTrip, 0, len(trips))
	for _, t := range trips {
		v, err := a.AppendTrip(t)
		if err != nil {
			b.Fatal(err)
		}
		views = append(views, v)
	}
	return views
}

// cleanAll cleans every view into out, reset first, as the stage
// driver cleans a car.
func cleanAll(views []trace.ColTrip, out *trace.Arena, sc *clean.Scratch) {
	out.Reset()
	for _, v := range views {
		clean.RepairColumns(v, clean.Config{}, out, sc)
	}
}

func BenchmarkTable3ODFunnel(b *testing.B) {
	env := benchEnvironment(b)
	segs := env.Res.Cars[0].Segments
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.P.Selector.Run(1, segs)
	}
}

func BenchmarkTable4Summaries(b *testing.B) {
	env := benchEnvironment(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Table4(env)
	}
}

func BenchmarkTable5CellStats(b *testing.B) {
	env := benchEnvironment(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Table5(env)
	}
}

// --- Figures ---

func BenchmarkFigure3SpeedMap(b *testing.B) {
	env := benchEnvironment(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure3(env, 1)
	}
}

func BenchmarkFigure4Directions(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure4(env, 1)
	}
}

func BenchmarkFigure5Seasons(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure5(env, 1)
	}
}

func BenchmarkFigure6CellMap(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure6(env)
	}
}

func BenchmarkFigure7QQ(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure7(env)
	}
}

func BenchmarkFigure8Intercepts(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure8(env)
	}
}

func BenchmarkFigure9BLUPMap(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure9(env)
	}
}

func BenchmarkFigure10Weather(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Figure10(env)
	}
}

func BenchmarkSeasonalDeltas(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.SeasonalDeltas(env)
	}
}

// --- Pipeline stages end-to-end ---

func BenchmarkPipelinePerCar(b *testing.B) {
	env := benchEnvironment(b)
	raw := env.P.Gen.CarTrips(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.P.ProcessContext(context.Background(), 2, raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelinePerCarObsOverhead is the observability overhead
// gate: the BenchmarkPipelinePerCar workload run twice under identical
// conditions — once with a nil registry (every metric operation a no-op
// branch) and once with a live obs.Registry recording stage spans, the
// ledger's stage counters and router-cache gauges. Each variant builds
// its own environment so cache warmth and heap footprint match; the
// instrumented run must stay within ~2 % of the no-op one.
// results/BENCH_pipeline.json tracks the pair.
func BenchmarkPipelinePerCarObsOverhead(b *testing.B) {
	run := func(b *testing.B, reg *obs.Registry) {
		env, err := experiments.NewEnv(experiments.EnvConfig{
			Seed: 42, Cars: 4, TripsPerCar: 60, GateRunFraction: 0.25,
			Metrics: reg,
		})
		if err != nil {
			b.Fatal(err)
		}
		raw := env.P.Gen.CarTrips(2)
		runtime.GC()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := env.P.ProcessContext(context.Background(), 2, raw); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("noop", func(b *testing.B) { run(b, nil) })
	b.Run("instrumented", func(b *testing.B) { run(b, obs.NewRegistry()) })
}

func BenchmarkGridAnalysisLMM(b *testing.B) {
	env := benchEnvironment(b)
	recs := env.Res.Transitions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := env.P.GridAnalysis(recs); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md) ---

// BenchmarkAblationOrderingRepair compares the paper's min-distance
// ordering repair against a naive timestamp-only sort.
func BenchmarkAblationOrderingRepair(b *testing.B) {
	env := benchEnvironment(b)
	raw := env.P.Gen.CarTrips(3)
	b.Run("min-distance", func(b *testing.B) {
		views := rawViews(b, raw)
		out := trace.NewArena(0)
		var sc clean.Scratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cleanAll(views, out, &sc)
		}
	})
	b.Run("timestamp-only", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, t := range raw {
				pts := append([]trace.RoutePoint(nil), t.Points...)
				sort.SliceStable(pts, func(a, c int) bool { return pts[a].Time.Before(pts[c].Time) })
				_ = trace.PathLength(pts)
			}
		}
	})
}

// matcherTestTraces builds noisy traces over the bench city for the
// matcher ablation.
func matcherTestTraces(env *experiments.Env, n int) [][]trace.RoutePoint {
	rng := rand.New(rand.NewSource(7))
	g := env.P.Graph
	var out [][]trace.RoutePoint
	t0 := time.Date(2013, 2, 1, 9, 0, 0, 0, time.UTC)
	for len(out) < n {
		from := roadnet.NodeID(rng.Intn(len(g.Nodes)))
		to := roadnet.NodeID(rng.Intn(len(g.Nodes)))
		path, err := g.ShortestPath(from, to, nil)
		if err != nil || path.Length < 800 {
			continue
		}
		geom := path.Geometry()
		var pts []trace.RoutePoint
		i := 0
		for d := 0.0; d <= geom.Length(); d += 70 {
			p := geom.PointAt(d)
			pts = append(pts, trace.RoutePoint{
				PointID: i + 1, TripID: int64(len(out) + 1),
				Pos:  geo.V(p.X+rng.NormFloat64()*4, p.Y+rng.NormFloat64()*4),
				Time: t0.Add(time.Duration(i) * 10 * time.Second),
			})
			i++
		}
		out = append(out, pts)
	}
	return out
}

// BenchmarkAblationMatchers compares the incremental matcher (with and
// without direction hints) against the HMM baseline.
func BenchmarkAblationMatchers(b *testing.B) {
	env := benchEnvironment(b)
	traces := matcherTestTraces(env, 20)
	run := func(b *testing.B, match func([]trace.RoutePoint)) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			match(traces[i%len(traces)])
		}
	}
	b.Run("incremental-hints", func(b *testing.B) {
		m := mapmatch.NewIncremental(env.P.Graph, mapmatch.DefaultConfig())
		run(b, func(pts []trace.RoutePoint) { m.Match(pts) })
	})
	b.Run("incremental-nohints", func(b *testing.B) {
		cfg := mapmatch.DefaultConfig()
		cfg.UseDirectionHints = false
		m := mapmatch.NewIncremental(env.P.Graph, cfg)
		run(b, func(pts []trace.RoutePoint) { m.Match(pts) })
	})
	b.Run("hmm", func(b *testing.B) {
		m := mapmatch.NewHMM(env.P.Graph, mapmatch.HMMConfig{})
		run(b, func(pts []trace.RoutePoint) { m.Match(pts) })
	})
}

// BenchmarkAblationThickness sweeps the thick-geometry width of the OD
// gates.
func BenchmarkAblationThickness(b *testing.B) {
	env := benchEnvironment(b)
	segs := env.Res.Cars[0].Segments
	for _, width := range []float64{60, 150, 300} {
		width := width
		b.Run(widthName(width), func(b *testing.B) {
			sel, err := odselect.NewSelector([]odselect.Gate{
				odselect.NewGate("T", env.P.City.GateT, width),
				odselect.NewGate("S", env.P.City.GateS, width),
				odselect.NewGate("L", env.P.City.GateL, width),
			}, odselect.Config{CentralArea: env.P.City.CentralArea})
			if err != nil {
				b.Fatal(err)
			}
			accepted := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, _ := sel.Run(1, segs)
				accepted = f.PostFiltered
			}
			b.ReportMetric(float64(accepted), "accepted")
		})
	}
}

func widthName(w float64) string {
	switch w {
	case 60:
		return "width60m"
	case 150:
		return "width150m"
	default:
		return "width300m"
	}
}

// BenchmarkAblationSpatialIndex compares R-tree candidate lookup with a
// linear scan over all edges.
func BenchmarkAblationSpatialIndex(b *testing.B) {
	env := benchEnvironment(b)
	g := env.P.Graph
	rng := rand.New(rand.NewSource(3))
	queries := make([]geo.XY, 256)
	for i := range queries {
		queries[i] = geo.V(rng.Float64()*3000-1500, rng.Float64()*2400-1200)
	}
	b.Run("rtree", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.EdgesNear(queries[i%len(queries)], 60)
		}
	})
	b.Run("linear", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := queries[i%len(queries)]
			for e := range g.Edges {
				if g.Edges[e].Geom.DistanceTo(q) <= 60 {
					_ = e
				}
			}
		}
	})
}

// BenchmarkCleanRepair isolates the cleaning stage.
func BenchmarkCleanRepair(b *testing.B) {
	env := benchEnvironment(b)
	views := rawViews(b, env.P.Gen.CarTrips(4))
	out := trace.NewArena(0)
	var sc clean.Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cleanAll(views, out, &sc)
	}
}

// BenchmarkRouteClustering measures the eco-routing variant clustering
// over one direction's matched geometries.
func BenchmarkRouteClustering(b *testing.B) {
	env := benchEnvironment(b)
	var items []routes.Item
	for i, rec := range env.Res.Transitions() {
		items = append(items, routes.Item{ID: i, Geom: rec.Match.Geometry})
	}
	if len(items) == 0 {
		b.Skip("no transitions")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := routes.ClusterRoutes(items, routes.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoachAnalyze measures the Driving Coach per-trip analysis.
func BenchmarkCoachAnalyze(b *testing.B) {
	env := benchEnvironment(b)
	recs := env.Res.Transitions()
	if len(recs) == 0 {
		b.Skip("no transitions")
	}
	c := coach.New(env.P.Graph)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Analyze(recs[i%len(recs)])
	}
}
