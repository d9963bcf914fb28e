package digiroad

import (
	"math/rand"
	"strconv"

	"repro/internal/geo"
)

// OuluOrigin is the projection origin for the synthetic city: the
// approximate centre of downtown Oulu used throughout the reproduction.
var OuluOrigin = geo.Point{Lon: 25.47, Lat: 65.01}

// SynthConfig parameterises the synthetic city generator.
type SynthConfig struct {
	// Seed drives all randomised placement; the same seed always yields
	// the same city.
	Seed int64
	// BlockMeters is the street-grid block size; the default 200 m
	// matches the paper's grid-cell dimension so features and cells
	// align naturally.
	BlockMeters float64
}

func (c SynthConfig) withDefaults() SynthConfig {
	if c.BlockMeters <= 0 {
		c.BlockMeters = 200
	}
	return c
}

// City is a generated downtown-Oulu-like road network with the three
// named origin/destination gate roads of the paper (T, S, L) and the
// analysis areas.
type City struct {
	DB *Database

	// GateT, GateS and GateL are the centre lines of the three gate
	// road segments at key enter/exit points of the downtown area
	// (paper §IV-D): T to the south, S to the east, L to the northwest.
	GateT geo.Polyline
	GateS geo.Polyline
	GateL geo.Polyline

	// Hotspots are crowded pedestrian areas (paper §VI, the WiFi
	// study of Kostakos et al. [29]): traffic through them stops for
	// pedestrians far more often, independent of static map features.
	Hotspots []Hotspot

	// CentralArea is the rectangle transitions must pass through
	// (the "city centre" filter of Table 3).
	CentralArea geo.Rect
	// StudyArea is the rectangle over which features are tallied and
	// the 200 m grid analysis runs ({67,48,293,271} in the paper).
	StudyArea geo.Rect
}

// Hotspot is a crowded pedestrian area.
type Hotspot struct {
	Center geo.XY
	Radius float64
}

// Contains reports whether p lies inside the hotspot.
func (h Hotspot) Contains(p geo.XY) bool { return h.Center.Dist(p) <= h.Radius }

// InHotspot reports whether p lies in any of the city's hotspots.
func (c *City) InHotspot(p geo.XY) bool {
	for _, h := range c.Hotspots {
		if h.Contains(p) {
			return true
		}
	}
	return false
}

// Gate returns the named gate polyline ("T", "S" or "L"), or nil.
func (c *City) Gate(name string) geo.Polyline {
	switch name {
	case "T":
		return c.GateT
	case "S":
		return c.GateS
	case "L":
		return c.GateL
	}
	return nil
}

// SynthesizeOulu builds the synthetic city. The layout mirrors the
// paper's setting:
//
//   - a rectangular downtown street grid (block size cfg.BlockMeters)
//     covering roughly 3 km × 2 km, with a denser feature load (traffic
//     lights, pedestrian crossings) in the eastern CBD;
//   - a south arterial leading to gate T, an east arterial to gate S,
//     and a northwest arterial to gate L;
//   - dead-end stubs on the grid fringe (the paper observes reduced
//     speeds near dead-end areas);
//   - one-way pairs in the CBD to exercise flow-direction handling.
//
// S–T transitions must cross the feature-dense east core while L–T
// transitions can use the sparse west side, reproducing the paper's
// Table 4 shape (higher low-speed share on S-T/T-S).
func SynthesizeOulu(cfg SynthConfig) *City {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	db := NewDatabase(OuluOrigin)
	b := &cityBuilder{db: db, rng: rng, block: cfg.BlockMeters}

	b.buildGrid()
	b.buildArterials()
	b.buildStubs()
	b.placeTrafficLights()
	b.placeBusStops()
	b.placePedestrianCrossings()
	db.buildIndexes()

	s := cfg.BlockMeters / 200 // scale relative to the nominal 200 m block
	return &City{
		DB:    db,
		GateT: b.gateT,
		GateS: b.gateS,
		GateL: b.gateL,
		// Crowded areas sit on the eastern main-street corridor that
		// S-T/T-S transitions traverse; the west side has none.
		Hotspots: []Hotspot{
			// Clear of the x=0 collector so T-L/L-T runs skip them.
			{Center: geo.XY{X: 400 * s, Y: 0}, Radius: 300 * s},
			{Center: geo.XY{X: 900 * s, Y: -100 * s}, Radius: 260 * s},
		},
		CentralArea: geo.Rect{MinX: -1100 * s, MinY: -900 * s, MaxX: 1100 * s, MaxY: 900 * s},
		StudyArea:   geo.Rect{MinX: -1600 * s, MinY: -1300 * s, MaxX: 1700 * s, MaxY: 1300 * s},
	}
}

type cityBuilder struct {
	db    *Database
	rng   *rand.Rand
	block float64

	gateT, gateS, gateL geo.Polyline
}

// grid extents in blocks: x spans [-7,7], y spans [-5,5].
const (
	gridNX = 7
	gridNY = 5
)

func (b *cityBuilder) xAt(i int) float64 { return float64(i) * b.block }
func (b *cityBuilder) yAt(j int) float64 { return float64(j) * b.block }

// isCBD reports whether the grid node (i,j) lies in the dense eastern
// core where most traffic lights and crossings live.
func isCBD(i, j int) bool { return i >= -1 && i <= 4 && j >= -2 && j <= 2 }

// arterialCorners are the grid nodes the three arterials attach to;
// fringe pruning must never isolate them.
var arterialCorners = [][2]int{{0, -gridNY}, {gridNX, 0}, {-gridNX, gridNY}}

func touchesArterialCorner(i1, j1, i2, j2 int) bool {
	for _, c := range arterialCorners {
		if (i1 == c[0] && j1 == c[1]) || (i2 == c[0] && j2 == c[1]) {
			return true
		}
	}
	return false
}

func (b *cityBuilder) buildGrid() {
	// Horizontal streets.
	for j := -gridNY; j <= gridNY; j++ {
		class, limit := ClassLocal, 40.0
		switch {
		case j == 0:
			class, limit = ClassCollector, 50 // main east-west street
		case j == -3 || j == 3:
			class, limit = ClassCollector, 50
		}
		for i := -gridNX; i < gridNX; i++ {
			// Drop a few fringe segments so the grid is not perfectly
			// regular (creates T-junctions) — but never detach an
			// arterial corner.
			if abs(j) == gridNY && b.rng.Float64() < 0.25 &&
				!touchesArterialCorner(i, j, i+1, j) {
				continue
			}
			flow := FlowBoth
			// One-way pair in the CBD: streets j=1 eastbound, j=-1
			// westbound.
			if isCBD(i, j) && j == 1 {
				flow = FlowForward
			}
			if isCBD(i, j) && j == -1 {
				flow = FlowBackward
			}
			b.addStreet(
				geo.Polyline{{X: b.xAt(i), Y: b.yAt(j)}, {X: b.xAt(i + 1), Y: b.yAt(j)}},
				class, limit, flow, streetName("EW", j),
			)
		}
	}
	// Vertical streets.
	for i := -gridNX; i <= gridNX; i++ {
		class, limit := ClassLocal, 40.0
		if i == 0 || i == -4 || i == 4 {
			class, limit = ClassCollector, 50
		}
		for j := -gridNY; j < gridNY; j++ {
			if abs(i) == gridNX && b.rng.Float64() < 0.25 &&
				!touchesArterialCorner(i, j, i, j+1) {
				continue
			}
			b.addStreet(
				geo.Polyline{{X: b.xAt(i), Y: b.yAt(j)}, {X: b.xAt(i), Y: b.yAt(j + 1)}},
				class, limit, FlowBoth, streetName("NS", i),
			)
		}
	}
}

func (b *cityBuilder) buildArterials() {
	blk := b.block
	// South arterial to gate T: from the grid at (0, -5 blocks) south.
	south := geo.Polyline{
		{X: 0, Y: -5 * blk},
		{X: 0, Y: -5.75 * blk},
		{X: 0, Y: -6.5 * blk},
	}
	b.addStreet(south, ClassArterial, 70, FlowBoth, "Southway")
	b.gateT = geo.Polyline{{X: 0, Y: -5.6 * blk}, {X: 0, Y: -6.4 * blk}}

	// East arterial to gate S: from the grid at (7 blocks, 0) east.
	east := geo.Polyline{
		{X: 7 * blk, Y: 0},
		{X: 7.75 * blk, Y: 0},
		{X: 8.5 * blk, Y: 0},
	}
	b.addStreet(east, ClassArterial, 70, FlowBoth, "Eastway")
	b.gateS = geo.Polyline{{X: 7.6 * blk, Y: 0}, {X: 8.4 * blk, Y: 0}}

	// Northwest arterial to gate L: from the grid corner (-7,5) blocks.
	nw := geo.Polyline{
		{X: -7 * blk, Y: 5 * blk},
		{X: -7.6 * blk, Y: 5.6 * blk},
		{X: -8.2 * blk, Y: 6.2 * blk},
	}
	b.addStreet(nw, ClassArterial, 70, FlowBoth, "Northwestway")
	b.gateL = geo.Polyline{
		{X: -7.45 * blk, Y: 5.45 * blk},
		{X: -8.05 * blk, Y: 6.05 * blk},
	}
}

// buildStubs attaches short dead-end stubs to fringe intersections;
// these create the low-speed dead-end pockets the paper notices in the
// BLUP map (Fig 9).
func (b *cityBuilder) buildStubs() {
	for i := -gridNX + 1; i < gridNX; i += 2 {
		if b.rng.Float64() < 0.5 {
			continue
		}
		// Stub north from the top row.
		from := geo.XY{X: b.xAt(i), Y: b.yAt(gridNY)}
		to := geo.XY{X: b.xAt(i), Y: b.yAt(gridNY) + 0.6*b.block}
		b.addStreet(geo.Polyline{from, to}, ClassLocal, 30, FlowBoth, "Stub-N")
	}
	for j := -gridNY + 1; j < gridNY; j += 2 {
		if b.rng.Float64() < 0.5 {
			continue
		}
		// Stub west from the left column.
		from := geo.XY{X: b.xAt(-gridNX), Y: b.yAt(j)}
		to := geo.XY{X: b.xAt(-gridNX) - 0.6*b.block, Y: b.yAt(j)}
		b.addStreet(geo.Polyline{from, to}, ClassLocal, 30, FlowBoth, "Stub-W")
	}
}

// addStreet stores a street as one or more traffic elements. Segments
// are randomly split into two elements at an intermediate point about
// half the time, so that the map-preparation step has real element
// chains to merge (paper Table 1).
func (b *cityBuilder) addStreet(pl geo.Polyline, class FunctionalClass, limit float64, flow FlowDirection, name string) {
	for i := 1; i < len(pl); i++ {
		a, c := pl[i-1], pl[i]
		if a.Dist(c) > 0.6*b.block && b.rng.Float64() < 0.6 {
			// Split into two chained elements at a mid point.
			t := 0.4 + 0.2*b.rng.Float64()
			mid := a.Lerp(c, t)
			b.mustAdd(geo.Polyline{a, mid}, class, limit, flow, name)
			b.mustAdd(geo.Polyline{mid, c}, class, limit, flow, name)
			if class == ClassLocal && b.rng.Float64() < 0.65 {
				// Dead-end alley off the split point: a T-junction.
				dir := c.Sub(a)
				perp := geo.XY{X: -dir.Y, Y: dir.X}
				if b.rng.Float64() < 0.5 {
					perp = perp.Scale(-1)
				}
				n := perp.Norm()
				if n > 0 {
					end := mid.Add(perp.Scale(0.45 * b.block / n))
					b.mustAdd(geo.Polyline{mid, end}, ClassLocal, 30, FlowBoth, "Alley")
				}
			}
			continue
		}
		b.mustAdd(geo.Polyline{a, c}, class, limit, flow, name)
	}
}

func (b *cityBuilder) mustAdd(g geo.Polyline, class FunctionalClass, limit float64, flow FlowDirection, name string) *TrafficElement {
	e, err := b.db.AddElement(TrafficElement{
		Geom:          g,
		Class:         class,
		Flow:          flow,
		SpeedLimitKmh: limit,
		Name:          name,
	})
	if err != nil {
		// Only possible through a generator bug (degenerate geometry).
		panic(err)
	}
	return e
}

// placeTrafficLights puts signals on CBD intersections and along the
// collector crossings, targeting the paper's ~67 lights in the study
// area.
func (b *cityBuilder) placeTrafficLights() {
	// Candidate intersections in priority order: CBD first, then the
	// collector rows and columns, then remaining main-street crossings.
	var candidates []geo.XY
	seen := map[[2]int]bool{}
	push := func(i, j int) {
		key := [2]int{i, j}
		if seen[key] {
			return
		}
		seen[key] = true
		candidates = append(candidates, geo.V(b.xAt(i), b.yAt(j)))
	}
	// Lights are spread over the whole network so every OD direction
	// meets a similar count; the low-speed difference between
	// directions comes from the pedestrian hotspots, not from signal
	// density (paper section VI).
	// Main east-west street, every other intersection.
	for i := -6; i <= 6; i += 2 {
		push(i, 0)
	}
	// CBD intersections on the even diagonal.
	for i := -1; i <= 4; i++ {
		for j := -2; j <= 2; j++ {
			if (i+j)%2 == 0 {
				push(i, j)
			}
		}
	}
	// Collector rows north and south, every other intersection.
	for i := -6; i <= 6; i += 2 {
		push(i, -3)
		push(i, 3)
	}
	// Collector verticals.
	for _, i := range []int{-4, 0, 4} {
		for j := -gridNY + 1; j < gridNY; j += 2 {
			push(i, j)
		}
	}
	// Remaining main-street and collector-row crossings fill toward
	// the paper's 67-light total.
	for i := -gridNX; i <= gridNX; i++ {
		push(i, 0)
	}
	for i := -gridNX; i <= gridNX; i++ {
		push(i, -3)
		push(i, 3)
	}
	const targetLights = 67
	placed := 0
	// Signals where the arterials meet the grid, always present.
	for _, at := range []geo.XY{
		geo.V(0, -5*b.block),
		geo.V(7*b.block, 0),
		geo.V(-7*b.block, 5*b.block),
	} {
		b.placeObjectNear(TrafficLight, at)
		placed++
	}
	for _, at := range candidates {
		if placed >= targetLights {
			break
		}
		b.placeObjectNear(TrafficLight, at)
		placed++
	}
}

// placeBusStops distributes stops along collector streets, targeting
// the paper's ~48 in the study area.
func (b *cityBuilder) placeBusStops() {
	target := 48
	placed := 0
	// Along the main east-west street and the three collector verticals.
	for i := -gridNX; i < gridNX && placed < target; i++ {
		at := geo.XY{X: b.xAt(i) + 0.45*b.block, Y: 0}
		b.placeObjectNear(BusStop, at)
		placed++
	}
	for _, col := range []int{-4, 0, 4} {
		for j := -gridNY; j < gridNY && placed < target; j += 2 {
			at := geo.XY{X: b.xAt(col), Y: b.yAt(j) + 0.5*b.block}
			b.placeObjectNear(BusStop, at)
			placed++
		}
	}
	for j := -gridNY; j < gridNY && placed < target; j++ {
		at := geo.XY{X: b.xAt(-2), Y: b.yAt(j) + 0.3*b.block}
		b.placeObjectNear(BusStop, at)
		placed++
	}
	// Fill toward the target along the collector rows; NumObjects only
	// grows when a nearby element exists, so recount what actually
	// stuck.
	placed = len(b.db.ObjectsOfKind(BusStop))
	for i := -gridNX; i < gridNX && placed < target; i++ {
		before := b.db.NumObjects()
		b.placeObjectNear(BusStop, geo.XY{X: b.xAt(i) + 0.55*b.block, Y: b.yAt(-3)})
		if b.db.NumObjects() > before {
			placed++
		}
	}
	for i := -gridNX; i < gridNX && placed < target; i++ {
		before := b.db.NumObjects()
		b.placeObjectNear(BusStop, geo.XY{X: b.xAt(i) + 0.55*b.block, Y: b.yAt(3)})
		if b.db.NumObjects() > before {
			placed++
		}
	}
}

// placePedestrianCrossings puts zebra crossings on intersection
// approaches (two per CBD intersection, one elsewhere with some
// probability), targeting the paper's ~293.
func (b *cityBuilder) placePedestrianCrossings() {
	target := 293
	placed := 0
	for j := -gridNY; j <= gridNY && placed < target; j++ {
		for i := -gridNX; i <= gridNX && placed < target; i++ {
			at := geo.V(b.xAt(i), b.yAt(j))
			n := 1
			if isCBD(i, j) {
				n = 3
			} else if b.rng.Float64() < 0.5 {
				n = 2
			}
			for k := 0; k < n && placed < target; k++ {
				off := geo.XY{
					X: at.X + (b.rng.Float64()-0.5)*0.15*b.block,
					Y: at.Y + (b.rng.Float64()-0.5)*0.15*b.block,
				}
				b.placeObjectNear(PedestrianCrossing, off)
				placed++
			}
		}
	}
	// Mid-block crossings on the main street until the target is met.
	for i := -gridNX; i < gridNX && placed < target; i++ {
		at := geo.XY{X: b.xAt(i) + 0.5*b.block, Y: 0}
		b.placeObjectNear(PedestrianCrossing, at)
		placed++
	}
}

// placeObjectNear attaches a point object to the nearest traffic
// element (within half a block); objects with no nearby road are
// dropped, which can only happen on pruned fringe segments.
func (b *cityBuilder) placeObjectNear(kind ObjectKind, at geo.XY) {
	elems := b.db.ElementsNear(at, b.block/2)
	if len(elems) == 0 {
		return
	}
	e := elems[0]
	snapped := e.Geom.Project(at).Point
	b.db.AddObject(PointObject{Kind: kind, Pos: snapped, ElementID: e.ID})
}

func streetName(prefix string, idx int) string {
	return prefix + "-" + strconv.Itoa(idx)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// SnapToNetwork returns the closest position on any traffic element
// within maxDist of p, with the owning element. ok is false when no
// element is near enough.
func (db *Database) SnapToNetwork(p geo.XY, maxDist float64) (geo.XY, *TrafficElement, bool) {
	elems := db.ElementsNear(p, maxDist)
	if len(elems) == 0 {
		return geo.XY{}, nil, false
	}
	e := elems[0]
	return e.Geom.Project(p).Point, e, true
}
