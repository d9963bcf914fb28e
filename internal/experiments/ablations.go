package experiments

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"math"
	"repro/internal/clean"
	"repro/internal/coach"
	"repro/internal/core"
	"repro/internal/geo"

	"repro/internal/mapmatch"
	"repro/internal/odselect"
	"repro/internal/render"
	"repro/internal/roadnet"
	"repro/internal/routes"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Ablations runs the design-choice studies DESIGN.md calls out and
// returns them as reports: matcher comparison, thick-geometry width
// sweep, and ordering-repair accuracy.
func Ablations(env *Env) []*Report {
	return []*Report{
		AblationMatchers(env),
		AblationThickness(env),
		AblationOrderingRepair(env),
	}
}

// syntheticDrives samples ground-truth drives with noisy device points
// over the environment's network.
func syntheticDrives(env *Env, n int, seed int64) ([][]roadnet.EdgeID, [][]trace.RoutePoint) {
	rng := rand.New(rand.NewSource(seed))
	g := env.P.Graph
	rt := env.P.Router
	t0 := time.Date(2013, 2, 1, 9, 0, 0, 0, time.UTC)
	var truths [][]roadnet.EdgeID
	var traces [][]trace.RoutePoint
	for len(truths) < n {
		from := roadnet.NodeID(rng.Intn(len(g.Nodes)))
		to := roadnet.NodeID(rng.Intn(len(g.Nodes)))
		path, err := rt.ShortestPath(from, to, roadnet.TravelTimeWeight)
		if err != nil || path.Length < 1200 || path.Length > 3500 {
			continue
		}
		geom := path.Geometry()
		var pts []trace.RoutePoint
		i := 0
		for d := 0.0; d <= geom.Length(); d += 60 + rng.Float64()*60 {
			p := geom.PointAt(d)
			pts = append(pts, trace.RoutePoint{
				PointID: i + 1, TripID: int64(len(truths) + 1),
				Pos:  p.Add(randXY(rng, 4)),
				Time: t0.Add(time.Duration(i) * 10 * time.Second),
			})
			i++
		}
		if len(pts) < 5 {
			continue
		}
		truths = append(truths, path.Edges())
		traces = append(traces, pts)
	}
	return truths, traces
}

func randXY(rng *rand.Rand, sigma float64) geo.XY {
	return geo.V(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
}

// AblationMatchers compares the incremental matcher (with and without
// the map-direction enhancement) against the HMM baseline on synthetic
// drives with known ground truth. The table holds accuracy only, so
// that a rerun writes the same bytes; BenchmarkAblationMatchers times
// the matchers.
func AblationMatchers(env *Env) *Report {
	truths, traces := syntheticDrives(env, 25, 7)

	plainCfg := mapmatch.DefaultConfig()
	plainCfg.UseDirectionHints = false
	lookCfg := mapmatch.DefaultConfig()
	lookCfg.LookaheadDepth = 2
	matchers := []struct {
		name  string
		match func([]trace.RoutePoint) (*mapmatch.Result, error)
	}{
		{"incremental+hints", mapmatch.NewIncremental(env.P.Graph, mapmatch.DefaultConfig()).Match},
		{"incremental-plain", mapmatch.NewIncremental(env.P.Graph, plainCfg).Match},
		{"incremental-look2", mapmatch.NewIncremental(env.P.Graph, lookCfg).Match},
		{"hmm-viterbi", mapmatch.NewHMM(env.P.Graph, mapmatch.HMMConfig{}).Match},
	}

	var w bytes.Buffer
	fmt.Fprintf(&w, "%d synthetic drives, 4 m GPS noise, 60-120 m point spacing\n", len(truths))
	fmt.Fprintf(&w, "%-20s %9s %9s %9s %10s %12s\n",
		"matcher", "precision", "recall", "F1", "hausdorff", "length-err")
	for _, m := range matchers {
		var evs []mapmatch.Evaluation
		for i, pts := range traces {
			res, err := m.match(pts)
			if err != nil {
				continue
			}
			evs = append(evs, mapmatch.Evaluate(env.P.Graph, res, truths[i]))
		}
		mean := mapmatch.MeanEvaluation(evs)
		fmt.Fprintf(&w, "%-20s %9.3f %9.3f %9.3f %9.1fm %11.1fm\n",
			m.name, mean.Precision, mean.Recall, mean.F1,
			mean.HausdorffM, mean.LengthErrorM)
	}
	return report("ablation-matchers", "Ablation: map-matching algorithms", &w)
}

// AblationThickness sweeps the thick-geometry width of the OD gates and
// reports how the Table 3 funnel responds.
func AblationThickness(env *Env) *Report {
	var w bytes.Buffer
	fmt.Fprintf(&w, "%-8s %10s %12s %14s\n", "width", "filtered", "transitions", "post-filtered")
	segs := env.Res.Segments()
	for _, width := range []float64{40, 80, 150, 250, 400} {
		sel, err := odselect.NewSelector([]odselect.Gate{
			odselect.NewGate("T", env.P.City.GateT, width),
			odselect.NewGate("S", env.P.City.GateS, width),
			odselect.NewGate("L", env.P.City.GateL, width),
		}, odselect.Config{CentralArea: env.P.City.CentralArea})
		if err != nil {
			fmt.Fprintf(&w, "%-8.0f selector error: %v\n", width, err)
			continue
		}
		f, _ := sel.Run(0, segs)
		fmt.Fprintf(&w, "%-8.0f %10d %12d %14d\n", width, f.Filtered, f.Transitions, f.PostFiltered)
	}
	fmt.Fprintln(&w, "too thin misses deviating routes; too thick admits passers-by — the paper's rationale for thick geometry")
	return report("ablation-thickness", "Ablation: thick-geometry width sweep", &w)
}

// AblationOrderingRepair measures how often the min-total-distance rule
// recovers the true order versus a timestamp-only sort, under both
// corruption regimes (id glitches and timestamp jitter). The paper's
// rule is the only one correct in both.
func AblationOrderingRepair(env *Env) *Report {
	raw := env.P.Gen.CarTrips(1)
	var w bytes.Buffer
	for _, mode := range []string{"id-glitch", "timestamp-jitter"} {
		rng := rand.New(rand.NewSource(13))
		total, minDistOK, tsOnlyOK := 0, 0, 0
		for _, t := range raw {
			if len(t.Points) < 8 {
				continue
			}
			// Ground truth: the trip repaired once (the generator's raw
			// output already carries corruption), giving the true order
			// with ids renumbered 1..n.
			base := repairRows(t, clean.Config{MaxSpeedKmh: 1e9})
			if base == nil || len(base.Points) < 8 {
				continue
			}
			truth := base.Points
			wantLen := trace.PathLength(truth)

			cp := base.Clone()
			i := 1 + rng.Intn(len(cp.Points)-3)
			if mode == "id-glitch" {
				cp.Points[i].PointID, cp.Points[i+1].PointID = cp.Points[i+1].PointID, cp.Points[i].PointID
			} else {
				cp.Points[i].Time, cp.Points[i+1].Time = cp.Points[i+1].Time, cp.Points[i].Time
			}
			rng.Shuffle(len(cp.Points), func(a, b int) {
				cp.Points[a], cp.Points[b] = cp.Points[b], cp.Points[a]
			})

			// "Recovered" allows a 5 m slack: swaps inside a stand
			// still reorder near-identical positions without changing
			// the trajectory meaningfully.
			const slackM = 5
			total++
			r := repairRows(cp, clean.Config{MaxSpeedKmh: 1e9})
			if r != nil && within(trace.PathLength(r.Points), wantLen, slackM) {
				minDistOK++
			}
			byTime := append([]trace.RoutePoint(nil), cp.Points...)
			sort.SliceStable(byTime, func(a, b int) bool { return byTime[a].Time.Before(byTime[b].Time) })
			if within(trace.PathLength(byTime), wantLen, slackM) {
				tsOnlyOK++
			}
		}
		fmt.Fprintf(&w, "%s corruption over %d trips:\n", mode, total)
		fmt.Fprintf(&w, "  min-distance rule recovered the true path: %d/%d\n", minDistOK, total)
		fmt.Fprintf(&w, "  timestamp-only sort recovered it:          %d/%d\n", tsOnlyOK, total)
	}
	fmt.Fprintln(&w, "the min-total-distance rule is the only one reliable in both regimes")
	return report("ablation-ordering", "Ablation: ordering repair rules", &w)
}

// repairRows cleans t with the stage's kernel over an arena copy and
// returns the cleaned trip as rows: nil when nothing survived, or when
// the arena refuses t (the pipeline fails such a trip's car).
func repairRows(t *trace.Trip, cfg clean.Config) *trace.Trip {
	a := trace.NewArena(len(t.Points))
	v, err := a.AppendTrip(t)
	if err != nil {
		return nil
	}
	var s clean.Scratch
	r := clean.RepairColumns(v, cfg, a, &s)
	if r.Trip.N == 0 {
		return nil
	}
	return r.Trip.Materialize(true)
}

func within(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}

// Extensions runs the conclusions' extension studies: the eco-routing
// route-variant comparison and the Driving Coach fleet summary.
func Extensions(env *Env) []*Report {
	return []*Report{EcoRoutes(env), HotspotRecovery(env)}
}

// EcoRoutes reports the route variants per studied direction with their
// fuel/time outcomes (Minett et al. [24] on free route choices) and the
// Driving Coach fleet summary.
func EcoRoutes(env *Env) *Report {
	recs := env.Res.Transitions()
	var w bytes.Buffer
	c := coach.New(env.P.Graph)
	var scores []float64
	for _, rec := range recs {
		scores = append(scores, c.Analyze(rec).EcoScore)
	}
	fmt.Fprintf(&w, "driving coach fleet summary over %d trips: eco score %s\n\n",
		len(recs), stats.Summarize(scores))

	options, err := CompareRoutesCached(recs)
	if err != nil {
		fmt.Fprintf(&w, "route comparison failed: %v\n", err)
		return report("ecoroutes", "Extension: eco-routing route variants", &w)
	}
	fmt.Fprintf(&w, "%-5s %-8s %6s %10s %10s %8s %6s\n",
		"dir", "variant", "trips", "fuel(ml)", "time(min)", "low%", "best")
	for _, o := range options {
		if o.Trips < 2 && !o.EcoBest {
			continue
		}
		mark := ""
		if o.EcoBest {
			mark = "*"
		}
		fmt.Fprintf(&w, "%-5s %-8d %6d %10.0f %10.1f %8.1f %6s\n",
			o.Direction, o.Variant, o.Trips, o.MeanFuelMl, o.MeanTimeMin, o.MeanLowPct, mark)
	}
	return report("ecoroutes", "Extension: eco-routing route variants", &w)
}

// CompareRoutesCached wraps coach.CompareRoutes with the default
// clustering configuration.
func CompareRoutesCached(recs []*core.TransitionRecord) ([]coach.RouteOption, error) {
	return coach.CompareRoutes(recs, routes.Config{})
}

// HotspotRecovery runs the information-discovery validation: detect
// crowded-area candidates from the feature-adjusted mixed model and
// compare them against the city's planted hotspots.
func HotspotRecovery(env *Env) *Report {
	var w bytes.Buffer
	det, err := env.P.DetectHotspots(env.Res.Transitions(), 0)
	if err != nil {
		fmt.Fprintf(&w, "detection failed: %v\n", err)
		return report("hotspots", "Extension: crowded-area recovery", &w)
	}
	rec := core.EvaluateHotspotRecovery(det, env.P.City.Hotspots, 150)
	fmt.Fprintf(&w, "residual-intercept threshold: %.2f km/h\n", det.ThresholdKmh)
	fmt.Fprintf(&w, "flagged cells: %d, precision %.2f, planted hotspots found %d/%d\n",
		rec.Detected, rec.Precision, rec.HotspotsFound, rec.HotspotsTotal)
	fmt.Fprintf(&w, "%-10s %6s %9s %9s\n", "cell", "n", "residual", "raw mean")
	for _, c := range det.Cells {
		fmt.Fprintf(&w, "%-10s %6d %9.2f %9.2f\n", c.ID, c.N, c.BLUP, c.RawMean)
	}

	// Map: truth circles + flagged cells.
	cv := render.NewCanvas(env.P.City.StudyArea, 1000)
	for i := range env.P.Graph.Edges {
		cv.Polyline(env.P.Graph.Edges[i].Geom, "#e0e0e0", 1)
	}
	for _, c := range det.Cells {
		rect := env.Agg.Grid.CellRect(c.ID)
		cv.Rect(rect, "#d04010", 0.6)
	}
	for _, h := range env.P.City.Hotspots {
		circle := make(geo.Polyline, 0, 33)
		for k := 0; k <= 32; k++ {
			a := 2 * math.Pi * float64(k) / 32
			circle = append(circle, geo.V(
				h.Center.X+h.Radius*math.Cos(a),
				h.Center.Y+h.Radius*math.Sin(a)))
		}
		cv.Polyline(circle, "#2050c0", 2.5)
	}
	var buf bytes.Buffer
	cv.WriteTo(&buf)
	return report("hotspots", "Extension: crowded-area recovery from the data", &w,
		Artifact{Name: "hotspots_recovery.svg", Data: buf.Bytes()})
}
