package mapattr_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/digiroad"
	"repro/internal/geo"
	"repro/internal/mapattr"
	"repro/internal/roadnet"
	"repro/internal/tracegen"
)

// nearChunk is the proximity test AlongGeometry made before the
// junction index and Polyline.Within: p counts when some chunk of
// ChunkSegs segments has p inside its bounds expanded by r and its full
// distance, DistanceTo, is at most r. digiroad's near-line sweep cuts
// routes into chunks of the same length.
func nearChunk(route geo.Polyline, p geo.XY, r float64) bool {
	for start := 0; start == 0 || start+1 < len(route); start += mapattr.ChunkSegs {
		chunk := route
		if len(route) > mapattr.ChunkSegs+1 {
			chunk = route[start:min(start+mapattr.ChunkSegs+1, len(route))]
		}
		if chunk.Bounds().Expand(r).Contains(p) && chunk.DistanceTo(p) <= r {
			return true
		}
		if len(chunk) == len(route) {
			break
		}
	}
	return false
}

// oracleAttributes is AlongGeometry's oracle: every object and every
// junction of the city is scanned with nearChunk.
func oracleAttributes(db *digiroad.Database, junctions []*roadnet.Node, route geo.Polyline, r float64) mapattr.RouteAttributes {
	attrs := mapattr.RouteAttributes{LengthM: route.Length()}
	for _, o := range db.Objects() {
		if !nearChunk(route, o.Pos, r) {
			continue
		}
		switch o.Kind {
		case digiroad.TrafficLight:
			attrs.TrafficLights++
		case digiroad.BusStop:
			attrs.BusStops++
		case digiroad.PedestrianCrossing:
			attrs.PedestrianCrossings++
		}
	}
	for _, n := range junctions {
		if nearChunk(route, n.Pos, r) {
			attrs.Junctions++
		}
	}
	return attrs
}

// containsOracle is ThickLine.Contains with the full distance.
func containsOracle(t *geo.ThickLine, p geo.XY) bool {
	return t.Bounds().Contains(p) && t.Center.DistanceTo(p) <= t.HalfWidth
}

// fleetPipeline runs the fleet of the clean and segment differentials:
// the seed-42 city and 3 cars × 8 trips with a gate-run fraction of
// 0.35.
func fleetPipeline(t *testing.T) (*core.Pipeline, *core.Result) {
	t.Helper()
	p, err := core.NewPipeline(core.Config{
		CitySeed: 42,
		Fleet:    tracegen.Config{Seed: 42, Cars: 3, TripsPerCar: 8, GateRunFraction: 0.35},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return p, res
}

// TestAlongGeometryMatchesOracleOnFleet requires every route attribute
// of the fleet fixture to equal the oracle's, field for field: the
// pipeline's accepted transitions, every raw trip matched whole, and a
// few hundred random routes at several proximities, including shortest
// paths and straight lines that pass exactly through junction nodes.
func TestAlongGeometryMatchesOracleOnFleet(t *testing.T) {
	p, res := fleetPipeline(t)
	db, junctions := p.City.DB, p.Graph.Junctions()
	check := func(what string, f *mapattr.Fetcher, route geo.Polyline) mapattr.RouteAttributes {
		t.Helper()
		got, want := f.AlongGeometry(route), oracleAttributes(db, junctions, route, f.ProximityM)
		if got != want {
			t.Fatalf("%s (%d vertices, proximity %v m): AlongGeometry = %+v, oracle %+v",
				what, len(route), f.ProximityM, got, want)
		}
		return got
	}

	transitions := res.Transitions()
	if len(transitions) == 0 {
		t.Fatal("degenerate fixture: no accepted transitions")
	}
	for i, tr := range transitions {
		if got := check("transition", p.Fetcher, tr.Match.Geometry); tr.Attrs != got {
			t.Fatalf("transition %d: pipeline recorded %+v, AlongGeometry gives %+v", i, tr.Attrs, got)
		}
	}

	var junctionsHit, trips, routes int
	for car := 1; car <= p.Gen.Cars(); car++ {
		for _, trip := range p.Gen.CarTrips(car) {
			m, err := p.Matcher.Match(trip.Points)
			if err != nil {
				continue
			}
			trips++
			junctionsHit += check("matched trip", p.Fetcher, m.Geometry).Junctions
		}
	}

	fetchers := []*mapattr.Fetcher{
		p.Fetcher,
		mapattr.NewFetcher(db, p.Graph, 1),
		mapattr.NewFetcher(db, p.Graph, 50),
		mapattr.NewFetcher(db, p.Graph, 150),
	}
	rng := rand.New(rand.NewSource(29))
	node := func() roadnet.NodeID { return roadnet.NodeID(rng.Intn(len(p.Graph.Nodes))) }
	for trial := 0; trial < 300; trial++ {
		f := fetchers[trial%len(fetchers)]
		var route geo.Polyline
		switch trial % 3 {
		case 0: // a shortest path: its vertices include every node it passes
			path, err := p.Router.ShortestPath(node(), node(), nil)
			if err != nil {
				continue
			}
			route = path.Geometry()
		case 1: // a straight line from one junction node to another
			a, b := junctions[rng.Intn(len(junctions))].Pos, junctions[rng.Intn(len(junctions))].Pos
			route = geo.Polyline{a, a.Lerp(b, 0.5), b}
		default: // a random walk with up to 80 vertices
			pt := geo.V(rng.Float64()*3000-1500, rng.Float64()*2400-1200)
			for k := rng.Intn(80) + 1; k > 0; k-- {
				route = append(route, pt)
				pt = pt.Add(geo.V(rng.NormFloat64()*60, rng.NormFloat64()*60))
			}
		}
		routes++
		junctionsHit += check("random route", f, route).Junctions
	}
	if junctionsHit == 0 {
		t.Fatal("degenerate test: no route passed a junction")
	}
	t.Logf("%d transitions, %d matched trips and %d random routes agree; %d junctions passed",
		len(transitions), trips, routes, junctionsHit)
}

// TestThickLineContainsMatchesOracleOnFleet requires the gate thick
// lines to decide every trajectory point of the fleet fixture as the
// full-distance test does, at the pipeline's gate width and at widths
// that put the boundary through the traffic.
func TestThickLineContainsMatchesOracleOnFleet(t *testing.T) {
	p, _ := fleetPipeline(t)
	var gates []*geo.ThickLine
	for _, w := range []float64{p.Config.GateWidthM, 10, 40} {
		for _, name := range []string{"T", "S", "L"} {
			gates = append(gates, geo.NewThickLine(p.City.Gate(name), w))
		}
	}
	var points, inside int
	for car := 1; car <= p.Gen.Cars(); car++ {
		for _, trip := range p.Gen.CarTrips(car) {
			for _, pt := range trip.Points {
				points++
				for i, g := range gates {
					got := g.Contains(pt.Pos)
					if want := containsOracle(g, pt.Pos); got != want {
						t.Fatalf("gate %d: Contains(%v) = %v, oracle %v", i, pt.Pos, got, want)
					}
					if got {
						inside++
					}
				}
			}
		}
	}
	if inside == 0 || inside == points*len(gates) {
		t.Fatalf("degenerate test: %d of %d point-gate pairs inside", inside, points*len(gates))
	}
}

// TestAlongGeometryAllocatesNothingWarm: once its scratch is warm,
// AlongGeometry grows no query buffer, so counting a route's features
// allocates nothing.
func TestAlongGeometryAllocatesNothingWarm(t *testing.T) {
	city := digiroad.SynthesizeOulu(digiroad.SynthConfig{Seed: 42})
	graph, err := roadnet.Build(city.DB)
	if err != nil {
		t.Fatal(err)
	}
	f := mapattr.NewFetcher(city.DB, graph, 0)
	route := geo.Line(-1000, 0, 0, 0, 0, 600, 1400, 600, 1400, -800, -1000, -800)
	attrs := f.AlongGeometry(route)
	if attrs.Junctions == 0 || attrs.TrafficLights+attrs.BusStops+attrs.PedestrianCrossings == 0 {
		t.Fatalf("degenerate route: %+v", attrs)
	}
	var sc mapattr.Scratch
	allocs := testing.AllocsPerRun(100, func() {
		if got := f.AlongGeometryWith(route, &sc); got != attrs {
			t.Fatalf("AlongGeometry = %+v, then %+v", attrs, got)
		}
	})
	if allocs != 0 {
		t.Fatalf("AlongGeometry allocates %.1f times per route on a warm scratch, want 0", allocs)
	}
}
