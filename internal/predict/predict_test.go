package predict

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/digiroad"
	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/sink"
)

// testGraph builds a small two-route network between x=0 and x=400 on
// y=0: a direct 400 m street along y=0, and a 600 m detour via y=100.
// All streets are two-way 36 km/h locals, so free-flow pace is a round
// 100 s/km and the direct route wins at free flow (40 s vs 60 s).
func testGraph(t *testing.T) (*roadnet.Graph, *roadnet.Router) {
	t.Helper()
	db := digiroad.NewDatabase(digiroad.OuluOrigin)
	els := []digiroad.TrafficElement{
		{ID: 1, Geom: geo.Line(0, 0, 200, 0), Class: digiroad.ClassLocal, Flow: digiroad.FlowBoth, SpeedLimitKmh: 36},
		{ID: 2, Geom: geo.Line(200, 0, 400, 0), Class: digiroad.ClassLocal, Flow: digiroad.FlowBoth, SpeedLimitKmh: 36},
		{ID: 3, Geom: geo.Line(0, 0, 0, 100), Class: digiroad.ClassLocal, Flow: digiroad.FlowBoth, SpeedLimitKmh: 36},
		{ID: 4, Geom: geo.Line(0, 100, 400, 100), Class: digiroad.ClassLocal, Flow: digiroad.FlowBoth, SpeedLimitKmh: 36},
		{ID: 5, Geom: geo.Line(400, 100, 400, 0), Class: digiroad.ClassLocal, Flow: digiroad.FlowBoth, SpeedLimitKmh: 36},
		// Dead-end spurs pin junction nodes at the OD endpoints —
		// without a third incident element the ring's corners are all
		// degree-2 and chain-walking would collapse it to a self-loop.
		{ID: 6, Geom: geo.Line(0, 0, 0, -50), Class: digiroad.ClassLocal, Flow: digiroad.FlowBoth, SpeedLimitKmh: 36},
		{ID: 7, Geom: geo.Line(400, 0, 400, -50), Class: digiroad.ClassLocal, Flow: digiroad.FlowBoth, SpeedLimitKmh: 36},
	}
	for _, e := range els {
		if _, err := db.AddElement(e); err != nil {
			t.Fatal(err)
		}
	}
	g, err := roadnet.Build(db)
	if err != nil {
		t.Fatal(err)
	}
	return g, g.Router()
}

// edgeByElement finds the graph edge built from the given traffic
// element ID.
func edgeByElement(t *testing.T, g *roadnet.Graph, element int) *roadnet.Edge {
	t.Helper()
	for i := range g.Edges {
		for _, el := range g.Edges[i].Elements {
			if el == element {
				return &g.Edges[i]
			}
		}
	}
	t.Fatalf("no edge carries element %d", element)
	return nil
}

// profiled builds a snapshot whose profile buckets pace the given edges
// at ratio × free-flow for the given hour with n observations each.
func profiled(g *roadnet.Graph, hour int, n int, ratios map[roadnet.EdgeID]float64) *sink.Snapshot {
	snap := &sink.Snapshot{Epoch: 1, EdgeProfiles: map[sink.EdgeProfileKey]sink.EdgeProfileStats{}}
	for id, ratio := range ratios {
		e := &g.Edges[id]
		pace := ratio * 3600 / e.SpeedLimitKmh
		snap.EdgeProfiles[sink.EdgeProfileKey{Edge: id, Hour: hour}] = sink.EdgeProfileStats{
			N: n, MeanSPerKm: pace, MinSPerKm: pace, MaxSPerKm: pace,
		}
	}
	return snap
}

// allEdgesRatio maps every edge of g to the same congestion ratio.
func allEdgesRatio(g *roadnet.Graph, ratio float64) map[roadnet.EdgeID]float64 {
	m := make(map[roadnet.EdgeID]float64, len(g.Edges))
	for i := range g.Edges {
		m[roadnet.EdgeID(i)] = ratio
	}
	return m
}

var odFrom, odTo = geo.V(0, 0), geo.V(400, 0)

func TestPredictFreeFlowFallback(t *testing.T) {
	g, r := testGraph(t)
	p := NewPredictor(g, r)
	pred, err := p.Predict(&sink.Snapshot{}, odFrom, odTo, 8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pred.TravelS-40) > 1e-9 || math.Abs(pred.FreeFlowS-40) > 1e-9 {
		t.Fatalf("free-flow prediction = %+v, want 40 s direct", pred)
	}
	if pred.ObservedEdges != 0 || pred.GlobalRatio != 1 {
		t.Fatalf("empty snapshot must predict pure free flow: %+v", pred)
	}
	if math.Abs(pred.DistanceKm-0.4) > 1e-9 || pred.Edges == 0 {
		t.Fatalf("direct route geometry: %+v", pred)
	}
}

func TestPredictUsesLearnedPaces(t *testing.T) {
	g, r := testGraph(t)
	p := NewPredictor(g, r)
	// Uniform congestion at twice free flow, observed at hour 8: every
	// edge's shrunk ratio equals the global 2, so the whole network
	// slows uniformly and the direct route stays optimal at 80 s.
	snap := profiled(g, 8, 10, allEdgesRatio(g, 2))

	pred, err := p.Predict(snap, odFrom, odTo, 8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pred.TravelS-80) > 1e-6 || math.Abs(pred.FreeFlowS-40) > 1e-9 {
		t.Fatalf("uniform 2x congestion: %+v, want 80 s over 40 s free flow", pred)
	}
	if pred.ObservedEdges != pred.Edges || math.Abs(pred.GlobalRatio-2) > 1e-9 {
		t.Fatalf("coverage: %+v", pred)
	}

	// The unobserved hour falls back to free flow.
	offPeak, err := p.Predict(snap, odFrom, odTo, 9)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(offPeak.TravelS-40) > 1e-9 || offPeak.ObservedEdges != 0 {
		t.Fatalf("hour without observations: %+v, want free flow", offPeak)
	}

	// The all-day profile folds every bucket and sees the congestion.
	allDay, err := p.Predict(snap, odFrom, odTo, -1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(allDay.TravelS-80) > 1e-6 || allDay.Hour != -1 {
		t.Fatalf("all-day profile: %+v, want 80 s", allDay)
	}
}

func TestPredictRoutesAroundCongestion(t *testing.T) {
	g, r := testGraph(t)
	p := NewPredictor(g, r)
	// Jam only the direct street (both its elements) at 10x free flow
	// with heavy observation counts; the detour stays free. Routing over
	// learned costs must take the 600 m detour at ~60 s rather than the
	// jammed 400 m street at ~400 s.
	jam := map[roadnet.EdgeID]float64{
		edgeByElement(t, g, 1).ID: 10,
		edgeByElement(t, g, 2).ID: 10,
	}
	snap := profiled(g, 8, 1000, jam)

	pred, err := p.Predict(snap, odFrom, odTo, 8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pred.DistanceKm-0.6) > 1e-9 {
		t.Fatalf("prediction did not reroute: %+v, want the 600 m detour", pred)
	}
	if pred.TravelS > 100 {
		t.Fatalf("detour should cost about a minute, got %+v", pred)
	}
}

func TestPredictShrinkagePullsThinEdgesTowardGlobal(t *testing.T) {
	g, r := testGraph(t)
	// One thin outlier observation (n=1, ratio 4) on the direct street;
	// everything else observed heavily at free flow, anchoring the
	// global ratio near 1. Raw costing prices the direct street at
	// 160 s — past the 60 s detour — while the shrunk ratio
	// (1·4 + 8·~1)/9 ≈ 1.3 keeps it under.
	ratios := allEdgesRatio(g, 1)
	outlier := edgeByElement(t, g, 1).ID
	snap := profiled(g, 8, 100, ratios)
	pace := 4 * 3600 / g.Edges[outlier].SpeedLimitKmh
	snap.EdgeProfiles[sink.EdgeProfileKey{Edge: outlier, Hour: 8}] = sink.EdgeProfileStats{
		N: 1, MeanSPerKm: pace, MinSPerKm: pace, MaxSPerKm: pace,
	}

	shrunk := NewPredictor(g, r)
	raw := NewPredictor(g, r)
	raw.ShrinkK = -1 // disable shrinkage

	sp, err := shrunk.Predict(snap, odFrom, odTo, 8)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := raw.Predict(snap, odFrom, odTo, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Raw costing trusts the single outlier and reroutes; shrinkage
	// discounts it toward the near-1 global and keeps the direct route.
	if math.Abs(sp.DistanceKm-0.4) > 1e-9 {
		t.Fatalf("shrunk prediction abandoned the direct route: %+v", sp)
	}
	if rp.DistanceKm <= sp.DistanceKm {
		t.Fatalf("raw prediction should reroute around the outlier: raw %+v vs shrunk %+v", rp, sp)
	}
	if sp.TravelS >= 100 {
		t.Fatalf("shrunk direct-route time out of range: %+v", sp)
	}
}

func TestPredictDeterministic(t *testing.T) {
	g, r := testGraph(t)
	p := NewPredictor(g, r)
	snap := profiled(g, 8, 3, allEdgesRatio(g, 1.7))
	first, err := p.Predict(snap, odFrom, odTo, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, err := p.Predict(snap, odFrom, odTo, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("prediction not deterministic: %+v vs %+v", first, again)
		}
	}
}

func TestPredictErrors(t *testing.T) {
	g, r := testGraph(t)
	p := NewPredictor(g, r)
	if _, err := p.Predict(&sink.Snapshot{}, odFrom, odTo, 24); err == nil {
		t.Fatal("hour 24 must be rejected")
	}

	// A one-way street against the query direction leaves no path.
	db := digiroad.NewDatabase(digiroad.OuluOrigin)
	if _, err := db.AddElement(digiroad.TrafficElement{
		ID: 1, Geom: geo.Line(0, 0, 100, 0), Class: digiroad.ClassLocal,
		Flow: digiroad.FlowForward, SpeedLimitKmh: 36,
	}); err != nil {
		t.Fatal(err)
	}
	oneway, err := roadnet.Build(db)
	if err != nil {
		t.Fatal(err)
	}
	q := NewPredictor(oneway, oneway.Router())
	if _, err := q.Predict(&sink.Snapshot{}, geo.V(100, 0), geo.V(0, 0), 8); !errors.Is(err, roadnet.ErrNoPath) {
		t.Fatalf("want ErrNoPath, got %v", err)
	}
}
