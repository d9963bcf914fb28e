package roadnet

import (
	"container/heap"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/digiroad"
	"repro/internal/geo"
)

// gridDB builds an n x n block grid of two-way 100 m streets.
func gridDB(t *testing.T, n int) *digiroad.Database {
	t.Helper()
	db := digiroad.NewDatabase(digiroad.OuluOrigin)
	id := 1
	add := func(coords ...float64) {
		if _, err := db.AddElement(el(id, 40, digiroad.FlowBoth, coords...)); err != nil {
			t.Fatal(err)
		}
		id++
	}
	for i := 0; i <= n; i++ {
		for j := 0; j < n; j++ {
			add(float64(i*100), float64(j*100), float64(i*100), float64(j*100+100))
			add(float64(j*100), float64(i*100), float64(j*100+100), float64(i*100))
		}
	}
	return db
}

func nodeAt(t *testing.T, g *Graph, p geo.XY) NodeID {
	t.Helper()
	n := g.NearestNode(p)
	if n == nil || n.Pos.Dist(p) > 1 {
		t.Fatalf("no node at %v", p)
	}
	return n.ID
}

func TestShortestPathManhattanDistance(t *testing.T) {
	g, err := Build(gridDB(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	from := nodeAt(t, g, geo.V(100, 100))
	to := nodeAt(t, g, geo.V(400, 300))
	p, err := g.ShortestPath(from, to, nil)
	if err != nil {
		t.Fatalf("ShortestPath: %v", err)
	}
	if !almostEq(p.Length, 500, 1e-9) || !almostEq(p.Cost, 500, 1e-9) {
		t.Fatalf("path length = %f cost = %f, want 500", p.Length, p.Cost)
	}
	if len(p.Nodes) != len(p.Steps)+1 {
		t.Fatalf("nodes/steps mismatch: %d vs %d", len(p.Nodes), len(p.Steps))
	}
	geom := p.Geometry()
	if !almostEq(geom.Length(), 500, 1e-9) {
		t.Fatalf("geometry length = %f", geom.Length())
	}
	// Geometry must run from origin to destination.
	if geom[0].Dist(geo.V(100, 100)) > 1e-9 || geom[len(geom)-1].Dist(geo.V(400, 300)) > 1e-9 {
		t.Fatalf("geometry endpoints: %v .. %v", geom[0], geom[len(geom)-1])
	}
}

func TestShortestPathSelf(t *testing.T) {
	g, err := Build(gridDB(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	from := nodeAt(t, g, geo.V(100, 100))
	p, err := g.ShortestPath(from, from, nil)
	if err != nil {
		t.Fatalf("self path: %v", err)
	}
	if len(p.Steps) != 0 || p.Length != 0 {
		t.Fatalf("self path = %+v", p)
	}
}

func TestShortestPathNoRoute(t *testing.T) {
	// Two disconnected components.
	db := buildDB(t, []digiroad.TrafficElement{
		el(1, 40, digiroad.FlowBoth, 0, 0, 100, 0),
		el(2, 40, digiroad.FlowBoth, 1000, 0, 1100, 0),
	})
	g, err := Build(db)
	if err != nil {
		t.Fatal(err)
	}
	from := nodeAt(t, g, geo.V(0, 0))
	to := nodeAt(t, g, geo.V(1100, 0))
	if _, err := g.ShortestPath(from, to, nil); !errors.Is(err, ErrNoPath) {
		t.Fatalf("err = %v, want ErrNoPath", err)
	}
}

func TestShortestPathOutOfRange(t *testing.T) {
	g, err := Build(gridDB(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.ShortestPath(NodeID(-1), 0, nil); err == nil {
		t.Fatal("negative node accepted")
	}
	if _, err := g.ShortestPath(0, NodeID(10000), nil); err == nil {
		t.Fatal("huge node accepted")
	}
}

func TestShortestPathRespectsOneWay(t *testing.T) {
	// Triangle where the direct hypotenuse A->B is one-way B->A only,
	// forcing the long way round for A->B.
	db := buildDB(t, []digiroad.TrafficElement{
		el(1, 40, digiroad.FlowBackward, 0, 0, 100, 0), // A->B geometry, flow backward (B->A only)
		el(2, 40, digiroad.FlowBoth, 0, 0, 0, 80),
		el(3, 40, digiroad.FlowBoth, 0, 80, 100, 0),
		// Stubs so A and B are junctions rather than merged cycle points.
		el(4, 40, digiroad.FlowBoth, 0, 0, -50, 0),
		el(5, 40, digiroad.FlowBoth, 100, 0, 150, 0),
	})
	g, err := Build(db)
	if err != nil {
		t.Fatal(err)
	}
	a := nodeAt(t, g, geo.V(0, 0))
	b := nodeAt(t, g, geo.V(100, 0))

	pab, err := g.ShortestPath(a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pab.Length < 150 {
		t.Fatalf("A->B must detour, got %d steps, length %f", len(pab.Steps), pab.Length)
	}
	pba, err := g.ShortestPath(b, a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(pba.Length, 100, 1e-9) {
		t.Fatalf("B->A must use the one-way, got %d steps, length %f", len(pba.Steps), pba.Length)
	}
}

func TestTravelTimeWeightPrefersFastRoad(t *testing.T) {
	// Two parallel routes: short slow street vs slightly longer fast one.
	db := buildDB(t, []digiroad.TrafficElement{
		el(1, 30, digiroad.FlowBoth, 0, 0, 300, 0),     // direct, 30 km/h
		el(2, 80, digiroad.FlowBoth, 0, 0, 150, 120),   // fast detour leg 1
		el(3, 80, digiroad.FlowBoth, 150, 120, 300, 0), // fast detour leg 2
		// Stubs so the route endpoints are junctions.
		el(4, 40, digiroad.FlowBoth, 0, 0, -50, 0),
		el(5, 40, digiroad.FlowBoth, 300, 0, 350, 0),
	})
	g, err := Build(db)
	if err != nil {
		t.Fatal(err)
	}
	a := nodeAt(t, g, geo.V(0, 0))
	b := nodeAt(t, g, geo.V(300, 0))

	byDist, err := g.ShortestPath(a, b, DistanceWeight)
	if err != nil {
		t.Fatal(err)
	}
	if len(byDist.Steps) != 1 {
		t.Fatalf("distance routing should take the direct street")
	}
	byTime, err := g.ShortestPath(a, b, TravelTimeWeight)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(byTime.Length, geo.Line(0, 0, 150, 120, 300, 0).Length(), 1e-6) {
		t.Fatalf("time routing should take the fast detour, got length %f", byTime.Length)
	}
}

func TestWeightFuncCanForbidEdges(t *testing.T) {
	g, err := Build(gridDB(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	from := nodeAt(t, g, geo.V(100, 100))
	to := nodeAt(t, g, geo.V(200, 100))
	// Forbid everything: no path.
	_, err = g.ShortestPath(from, to, func(e *Edge, forward bool) float64 {
		return -1
	})
	if !errors.Is(err, ErrNoPath) {
		t.Fatalf("err = %v, want ErrNoPath", err)
	}
}

func TestPathEdges(t *testing.T) {
	g, err := Build(gridDB(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	from := nodeAt(t, g, geo.V(100, 100))
	to := nodeAt(t, g, geo.V(300, 100))
	p, err := g.ShortestPath(from, to, nil)
	if err != nil {
		t.Fatal(err)
	}
	ids := p.Edges()
	if len(ids) != len(p.Steps) {
		t.Fatalf("Edges() length mismatch")
	}
	for i, s := range p.Steps {
		if ids[i] != s.Edge.ID {
			t.Fatalf("Edges()[%d] = %d, want %d", i, ids[i], s.Edge.ID)
		}
	}
}

// TestShortestDistancesMatchesPointQueries checks one bounded
// shortest-distance tree from a fixed grid corner: every node it reaches
// is within the bound and at its point-query distance, and a node beyond
// the bound is absent.
func TestShortestDistancesMatchesPointQueries(t *testing.T) {
	g, err := Build(gridDB(t, 6))
	if err != nil {
		t.Fatal(err)
	}
	from := nodeAt(t, g, geo.V(100, 100))
	batch := g.Router().NewDistanceBatch(nil, 350)
	defer batch.Release()
	batch.AddSource(from)
	reached := 0
	for n := range g.Nodes {
		to := NodeID(n)
		d, ok := batch.Dist(from, to)
		if !ok {
			continue
		}
		reached++
		if d > 350 {
			t.Fatalf("node %d at %f exceeds the bound", to, d)
		}
		p, err := g.ShortestPath(from, to, nil)
		if err != nil {
			t.Fatalf("point query to %d failed: %v", to, err)
		}
		if !almostEq(p.Cost, d, 1e-9) {
			t.Fatalf("tree %f vs point query %f for node %d", d, p.Cost, to)
		}
	}
	if reached < 4 {
		t.Fatalf("tree too small: %d nodes", reached)
	}
	// Nodes beyond the bound are absent.
	far := nodeAt(t, g, geo.V(500, 500))
	if _, ok := batch.Dist(from, far); ok {
		t.Fatal("bound not enforced")
	}
}

// refQueue is priorityQueue driven through container/heap, the
// reference the typed push and pop must match move for move.
type refQueue []pqItem

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].cost < q[j].cost }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(pqItem)) }
func (q *refQueue) Pop() any {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// TestPriorityQueueMatchesContainerHeap: interleaved pushes and pops
// with many equal costs pop the same items in the same order as
// container/heap, so equal-cost ties, and the routes they choose,
// resolve as before.
func TestPriorityQueueMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var pq priorityQueue
	var ref refQueue
	for op := 0; op < 20_000; op++ {
		if len(pq) == 0 || rng.Intn(5) < 3 {
			it := pqItem{node: NodeID(op), cost: float64(rng.Intn(16))}
			pq.push(it)
			heap.Push(&ref, it)
			continue
		}
		if got, want := pq.pop(), heap.Pop(&ref).(pqItem); got != want {
			t.Fatalf("op %d: popped %+v, container/heap pops %+v", op, got, want)
		}
	}
	if !reflect.DeepEqual([]pqItem(pq), []pqItem(ref)) {
		t.Fatal("heap layouts diverged")
	}
}
