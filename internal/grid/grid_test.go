package grid

import (
	"math"
	"testing"

	"repro/internal/digiroad"
	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/stats"
)

func testGrid(t *testing.T) *Grid {
	t.Helper()
	g, err := New(geo.R(0, 0, 1000, 600), 200)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewValidation(t *testing.T) {
	if _, err := New(geo.Rect{}, 200); err == nil {
		t.Fatal("zero area accepted")
	}
	g, err := New(geo.R(0, 0, 400, 400), 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.CellM != DefaultCellMeters {
		t.Fatalf("default cell = %f", g.CellM)
	}
}

func TestCellOf(t *testing.T) {
	g := testGrid(t)
	cases := []struct {
		p    geo.XY
		want CellID
		ok   bool
	}{
		{geo.V(0, 0), CellID{0, 0}, true},
		{geo.V(199, 199), CellID{0, 0}, true},
		{geo.V(200, 0), CellID{1, 0}, true},
		{geo.V(999, 599), CellID{4, 2}, true},
		{geo.V(1000, 600), CellID{5, 3}, true}, // boundary clamps into frame
		{geo.V(-1, 0), CellID{}, false},
		{geo.V(0, 601), CellID{}, false},
	}
	for _, c := range cases {
		got, ok := g.CellOf(c.p)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("CellOf(%v) = %v,%v want %v,%v", c.p, got, ok, c.want, c.ok)
		}
	}
}

func TestCellRectRoundTrip(t *testing.T) {
	g := testGrid(t)
	for i := 0; i < 5; i++ {
		for j := 0; j < 3; j++ {
			id := CellID{i, j}
			r := g.CellRect(id)
			if r.Width() != 200 || r.Height() != 200 {
				t.Fatalf("cell %v rect %v", id, r)
			}
			back, ok := g.CellOf(g.CellCenter(id))
			if !ok || back != id {
				t.Fatalf("centre of %v maps to %v", id, back)
			}
		}
	}
}

func TestCellIDString(t *testing.T) {
	if (CellID{3, 12}).String() != "c003.012" {
		t.Fatalf("String = %q", CellID{3, 12}.String())
	}
}

func TestAggregator(t *testing.T) {
	g := testGrid(t)
	a := NewAggregator(g)
	if !a.Add(geo.V(50, 50), 30) || !a.Add(geo.V(60, 60), 40) {
		t.Fatal("in-area points rejected")
	}
	if a.Add(geo.V(-100, 0), 30) {
		t.Fatal("out-of-area point accepted")
	}
	if a.NumNonEmpty() != 1 {
		t.Fatalf("non-empty = %d", a.NumNonEmpty())
	}
	c := a.Cell(CellID{0, 0})
	if c == nil || c.Speed.N() != 2 || math.Abs(c.Speed.Mean()-35) > 1e-12 {
		t.Fatalf("cell = %+v", c)
	}
	if a.Cell(CellID{4, 2}) != nil {
		t.Fatal("empty cell must be nil")
	}
	a.Add(geo.V(900, 500), 50)
	cells := a.Cells()
	if len(cells) != 2 || cells[0].ID != (CellID{0, 0}) || cells[1].ID != (CellID{4, 2}) {
		t.Fatalf("cells order: %v %v", cells[0].ID, cells[1].ID)
	}
}

func TestAttachFeatures(t *testing.T) {
	db := digiroad.NewDatabase(digiroad.OuluOrigin)
	// A junction of three streets at (100, 100) inside cell (0,0).
	for _, coords := range [][]float64{
		{100, 100, 100, 300}, {100, 100, 300, 100}, {100, 100, 100, -100},
	} {
		if _, err := db.AddElement(digiroad.TrafficElement{
			Geom: geo.Line(coords...), Class: digiroad.ClassLocal, SpeedLimitKmh: 40,
		}); err != nil {
			t.Fatal(err)
		}
	}
	db.AddObject(digiroad.PointObject{Kind: digiroad.TrafficLight, Pos: geo.V(100, 100)})
	db.AddObject(digiroad.PointObject{Kind: digiroad.BusStop, Pos: geo.V(150, 100)})
	db.AddObject(digiroad.PointObject{Kind: digiroad.PedestrianCrossing, Pos: geo.V(100, 150)})
	db.AddObject(digiroad.PointObject{Kind: digiroad.PedestrianCrossing, Pos: geo.V(500, 500)})
	graph, err := roadnet.Build(db)
	if err != nil {
		t.Fatal(err)
	}

	g := testGrid(t)
	a := NewAggregator(g)
	a.Add(geo.V(110, 110), 25)
	a.AttachFeatures(db, graph)
	c := a.Cell(CellID{0, 0})
	want := CellFeatures{TrafficLights: 1, BusStops: 1, PedestrianCrossings: 1, Junctions: 1}
	if c.Features != want {
		t.Fatalf("features = %+v, want %+v", c.Features, want)
	}
}

func TestLMMGroupsSufficientStats(t *testing.T) {
	g := testGrid(t)
	a := NewAggregator(g)
	speeds := []float64{10, 20, 30, 40}
	for _, v := range speeds {
		a.Add(geo.V(50, 50), v)
	}
	a.Add(geo.V(500, 500), 25) // singleton cell

	groups := a.LMMGroups()
	if len(groups) != 2 {
		t.Fatalf("groups = %d", len(groups))
	}
	var big *stats.Group
	for _, gr := range groups {
		if gr.N == 4 {
			big = gr
		}
	}
	if big == nil {
		t.Fatal("4-observation group missing")
	}
	if math.Abs(big.Sum-100) > 1e-9 {
		t.Fatalf("sum = %f", big.Sum)
	}
	wantSumSq := 100.0 + 400 + 900 + 1600
	if math.Abs(big.SumSq-wantSumSq) > 1e-6 {
		t.Fatalf("sumsq = %f, want %f", big.SumSq, wantSumSq)
	}
}

func TestConditionalStats(t *testing.T) {
	g := testGrid(t)
	a := NewAggregator(g)
	a.Add(geo.V(50, 50), 20)
	a.Add(geo.V(250, 50), 40)
	a.Add(geo.V(450, 50), 50)
	cells := a.Cells()
	cells[0].Features.TrafficLights = 2

	withLights := ConditionalStats(cells, func(f CellFeatures) bool { return f.TrafficLights > 0 })
	if withLights.N != 1 || withLights.Mean != 20 {
		t.Fatalf("with lights: %+v", withLights)
	}
	noLights := ConditionalStats(cells, func(f CellFeatures) bool { return f.TrafficLights == 0 })
	if noLights.N != 2 || noLights.Mean != 45 {
		t.Fatalf("no lights: %+v", noLights)
	}
	v := VarianceOfMeans(cells, func(f CellFeatures) bool { return f.TrafficLights == 0 })
	if math.Abs(v-50) > 1e-9 {
		t.Fatalf("variance of means = %f, want 50", v)
	}
}

func TestNumCells(t *testing.T) {
	g := testGrid(t) // 1000x600 at 200 m
	if got := g.NumCells(); got != 6*4 {
		t.Fatalf("NumCells = %d, want 24", got)
	}
}

// TestCellOfMaxEdges pins the boundary contract: points exactly on the
// area's max edges are inside (Rect.Contains is closed) and clamp into
// the last cell of their row/column, never out of frame.
func TestCellOfMaxEdges(t *testing.T) {
	g := testGrid(t) // area (0,0)-(1000,600), nx=6, ny=4
	cases := []struct {
		p    geo.XY
		want CellID
	}{
		{geo.V(1000, 300), CellID{5, 1}}, // max-X edge
		{geo.V(500, 600), CellID{2, 3}},  // max-Y edge
		{geo.V(1000, 600), CellID{5, 3}}, // max corner
		{geo.V(1000, 0), CellID{5, 0}},
		{geo.V(0, 600), CellID{0, 3}},
	}
	for _, c := range cases {
		got, ok := g.CellOf(c.p)
		if !ok {
			t.Errorf("CellOf(%v) rejected a boundary point", c.p)
			continue
		}
		if got != c.want {
			t.Errorf("CellOf(%v) = %v, want %v", c.p, got, c.want)
		}
		if got.I >= g.nx || got.J >= g.ny {
			t.Errorf("CellOf(%v) = %v escapes the %dx%d frame", c.p, got, g.nx, g.ny)
		}
	}
}

// TestCellOfNumCellsConsistency: for areas that are not a multiple of
// the cell size, every in-area point (including all four edges) must
// land in a cell whose index is within the NumCells frame, and CellRect
// must contain the point.
func TestCellOfNumCellsConsistency(t *testing.T) {
	for _, dims := range [][2]float64{{1000, 600}, {1010, 590}, {333, 667}, {199, 201}} {
		g, err := New(geo.R(0, 0, dims[0], dims[1]), 200)
		if err != nil {
			t.Fatal(err)
		}
		if g.NumCells() != g.nx*g.ny {
			t.Fatalf("area %v: NumCells = %d, want nx*ny = %d", dims, g.NumCells(), g.nx*g.ny)
		}
		probe := []geo.XY{
			geo.V(0, 0), geo.V(dims[0], 0), geo.V(0, dims[1]), geo.V(dims[0], dims[1]),
			geo.V(dims[0]/2, dims[1]/2), geo.V(dims[0]-1e-9, dims[1]-1e-9),
		}
		for _, p := range probe {
			id, ok := g.CellOf(p)
			if !ok {
				t.Fatalf("area %v: CellOf(%v) rejected in-area point", dims, p)
			}
			if id.I < 0 || id.J < 0 || id.I >= g.nx || id.J >= g.ny {
				t.Fatalf("area %v: CellOf(%v) = %v outside %dx%d frame", dims, p, id, g.nx, g.ny)
			}
			// The frame always extends to cover clamped edge points, so a
			// point's cell rectangle must contain it.
			if r := g.CellRect(id); !r.Contains(p) {
				t.Fatalf("area %v: point %v not in its cell rect %v", dims, p, r)
			}
		}
	}
}

func TestParseCellIDRoundTrip(t *testing.T) {
	ids := []CellID{{0, 0}, {3, 12}, {123, 7}, {1234, 5678}}
	for _, id := range ids {
		got, err := ParseCellID(id.String())
		if err != nil || got != id {
			t.Errorf("ParseCellID(%q) = %v, %v", id.String(), got, err)
		}
	}
	// Unpadded forms parse to the same cell as padded ones.
	if got, err := ParseCellID("c7.12"); err != nil || got != (CellID{7, 12}) {
		t.Errorf("ParseCellID(c7.12) = %v, %v", got, err)
	}
	for _, bad := range []string{"", "c", "c1", "c1.", "c.2", "1.2", "c-1.2", "c1.-2", "cx.y", "c1.2.3", "c1.2x"} {
		if _, err := ParseCellID(bad); err == nil {
			t.Errorf("ParseCellID(%q) accepted", bad)
		}
	}
}

func TestLMMGroupsWithFeatures(t *testing.T) {
	g := testGrid(t)
	a := NewAggregator(g)
	a.Add(geo.V(50, 50), 20)
	a.Add(geo.V(50, 60), 30)
	cells := a.Cells()
	cells[0].Features = CellFeatures{TrafficLights: 2, BusStops: 1, PedestrianCrossings: 3, Junctions: 4}
	groups := a.LMMGroupsWithFeatures()
	if len(groups) != 1 {
		t.Fatalf("groups = %d", len(groups))
	}
	want := []float64{2, 1, 3, 4}
	for i, v := range want {
		if groups[0].Covariates[i] != v {
			t.Fatalf("covariates = %v, want %v", groups[0].Covariates, want)
		}
	}
	if groups[0].N != 2 || math.Abs(groups[0].Sum-50) > 1e-9 {
		t.Fatalf("sufficient stats: %+v", groups[0].Group)
	}
}
