package digiroad

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/geo"
)

// TestIndexesBuiltOnce checks that each spatial index is built once per
// change of what it indexes: a constructor hands out both indexes
// built, an object added leaves the element index alone, and each query
// sees what was added before it.
func TestIndexesBuiltOnce(t *testing.T) {
	db := SynthesizeOulu(SynthConfig{Seed: 42}).DB
	elem, obj := db.elemIndex, db.objIndex
	if elem == nil || obj == nil {
		t.Fatalf("SynthesizeOulu left an index unbuilt: element %p, object %p", elem, obj)
	}
	route := geo.Line(-1000, 0, 0, 0, 0, 600, 1400, 600)
	if fc := db.CountObjectsNearLine(route, 20); fc == (FeatureCounts{}) {
		t.Fatal("degenerate test: no objects along the route")
	}
	if db.elemIndex != elem || db.objIndex != obj {
		t.Fatal("the first CountObjectsNearLine after SynthesizeOulu rebuilt an index")
	}

	far := geo.V(9000, 9000)
	added := db.AddObject(PointObject{Kind: BusStop, Pos: far})
	if db.elemIndex != elem {
		t.Fatal("AddObject dropped the element index")
	}
	if got := db.ObjectsInRect(geo.RectFromPoints(far).Expand(1)); len(got) != 1 || got[0] != added {
		t.Fatalf("ObjectsInRect after AddObject = %v, want the added object", got)
	}
	if fc := db.CountObjectsNearLine(geo.Line(8990, 9000, 9010, 9000), 1); fc.BusStops != 1 {
		t.Fatalf("CountObjectsNearLine after AddObject = %+v, want 1 bus stop", fc)
	}
	if db.elemIndex != elem {
		t.Fatal("an object query rebuilt the element index")
	}

	e := mustAddElement(t, db, TrafficElement{Geom: geo.Line(9000, 8000, 9000, 8500)})
	if got := db.ElementsNear(geo.V(9001, 8250), 5); len(got) != 1 || got[0] != e {
		t.Fatalf("ElementsNear after AddElement = %v, want the added element", got)
	}

	var buf bytes.Buffer
	if err := db.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back := NewDatabase(OuluOrigin)
	if err := back.ReadCSV(&buf); err != nil {
		t.Fatal(err)
	}
	elem, obj = back.elemIndex, back.objIndex
	if elem == nil || obj == nil {
		t.Fatalf("ReadCSV left an index unbuilt: element %p, object %p", elem, obj)
	}
	back.CountObjectsNearLine(route, 20)
	back.ElementsNear(geo.V(0, 0), 50)
	if back.elemIndex != elem || back.objIndex != obj {
		t.Fatal("the first queries after ReadCSV rebuilt an index")
	}
}

// TestSynthesizeOuluAllocs bounds the allocations of building the
// city. Rebuilding both R-trees for each of the ~400 object placements
// cost about 83,000; building each index once costs about 7,000.
func TestSynthesizeOuluAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(3, func() { SynthesizeOulu(SynthConfig{Seed: 42}) })
	if allocs > 10000 {
		t.Fatalf("SynthesizeOulu made %.0f allocations, want at most 10,000", allocs)
	}
}

// nearLineOracle is the near-line object test of ObjectsNearLine and
// CountObjectsNearLine with the full distance, DistanceTo <= dist, in
// place of Within, and a scan over every object in place of the index:
// the same chunks, and the same accept rule per chunk.
func nearLineOracle(db *Database, pl geo.Polyline, dist float64, kind ObjectKind) []*PointObject {
	var out []*PointObject
	for _, o := range db.Objects() {
		if kind != 0 && o.Kind != kind {
			continue
		}
		for start := 0; start == 0 || start+1 < len(pl); start += lineChunkSegs {
			chunk := pl
			if len(pl) > lineChunkSegs+1 {
				chunk = pl[start:min(start+lineChunkSegs+1, len(pl))]
			}
			if chunk.Bounds().Expand(dist).Contains(o.Pos) && chunk.DistanceTo(o.Pos) <= dist {
				out = append(out, o)
				break
			}
			if len(chunk) == len(pl) {
				break
			}
		}
	}
	return out
}

// TestNearLineQueriesMatchDistanceOracle runs ObjectsNearLine and
// CountObjectsNearLine over random routes through the seed-42 city,
// street chains and random walks of up to 60 vertices, and requires the
// objects the distance oracle accepts, kind by kind.
func TestNearLineQueriesMatchDistanceOracle(t *testing.T) {
	db := SynthesizeOulu(SynthConfig{Seed: 42}).DB
	elems := db.Elements()
	rng := rand.New(rand.NewSource(29))
	var hits int
	for trial := 0; trial < 300; trial++ {
		var pl geo.Polyline
		if trial%2 == 0 {
			// Consecutive street chains: objects sit on these exactly.
			for k := rng.Intn(6) + 1; k > 0; k-- {
				pl = append(pl, elems[rng.Intn(len(elems))].Geom...)
			}
		} else {
			p := geo.V(rng.Float64()*3000-1500, rng.Float64()*2400-1200)
			for k := rng.Intn(60) + 1; k > 0; k-- {
				pl = append(pl, p)
				p = p.Add(geo.V(rng.NormFloat64()*80, rng.NormFloat64()*80))
			}
		}
		dist := []float64{0, 1, 15, 20, 50}[trial%5]
		for _, kind := range []ObjectKind{0, TrafficLight, BusStop, PedestrianCrossing} {
			got, want := db.ObjectsNearLine(pl, dist, kind), nearLineOracle(db, pl, dist, kind)
			if len(got) != len(want) {
				t.Fatalf("trial %d kind %v dist %v: ObjectsNearLine found %d, oracle %d", trial, kind, dist, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d kind %v dist %v: object %d is %d, oracle %d", trial, kind, dist, i, got[i].ID, want[i].ID)
				}
			}
			hits += len(got)
		}
		var want FeatureCounts
		for _, o := range nearLineOracle(db, pl, dist, 0) {
			switch o.Kind {
			case TrafficLight:
				want.TrafficLights++
			case BusStop:
				want.BusStops++
			case PedestrianCrossing:
				want.PedestrianCrossings++
			}
		}
		if got := db.CountObjectsNearLine(pl, dist); got != want {
			t.Fatalf("trial %d dist %v: CountObjectsNearLine = %+v, oracle %+v", trial, dist, got, want)
		}
	}
	if hits == 0 {
		t.Fatal("degenerate test: no route passed any object")
	}
}
