// Package roadnet reconstructs the road-network graph from Digiroad-style
// traffic elements and provides shortest-path routing over it.
//
// Following the paper's map-preparation step (§IV-A), element endpoints
// shared by at least three elements are junctions (graph vertices),
// endpoints shared by exactly two elements are intermediate points, and
// chains of elements between junctions are merged into single edges. The
// resulting table of junction pairs with their contributing element
// arrays is the paper's Table 1.
package roadnet

import (
	"math"
	"sort"
	"sync"

	"repro/internal/digiroad"
	"repro/internal/geo"
)

// NodeID identifies a graph vertex.
type NodeID int

// EdgeID identifies a graph edge.
type EdgeID int

// Node is a graph vertex: a junction (degree >= 3), a dead end
// (degree 1), or a cycle break point.
type Node struct {
	ID    NodeID
	Pos   geo.XY
	Edges []EdgeID // incident edges, ascending
}

// Degree returns the number of incident edges.
func (n *Node) Degree() int { return len(n.Edges) }

// Edge is a merged chain of traffic elements between two nodes. Geom is
// oriented from From to To; Flow is expressed relative to that
// orientation.
type Edge struct {
	ID       EdgeID
	From, To NodeID
	Geom     geo.Polyline
	Elements []int // contributing traffic element IDs, in chain order
	Length   float64
	// SpeedLimitKmh is the most restrictive limit over the chain.
	SpeedLimitKmh float64
	Class         digiroad.FunctionalClass
	Flow          digiroad.FlowDirection
	Name          string
}

// CanTraverse reports whether the edge may be driven in the given
// orientation (forward = From->To).
func (e *Edge) CanTraverse(forward bool) bool {
	switch e.Flow {
	case digiroad.FlowForward:
		return forward
	case digiroad.FlowBackward:
		return !forward
	default:
		return true
	}
}

// Graph is the reconstructed road network.
type Graph struct {
	Nodes []Node
	Edges []Edge

	edgeIndex *geo.RTree
	nodeIndex *geo.RTree

	// The graph's one routing engine, built lazily by Router().
	routerOnce sync.Once
	router     *Router
}

// quant quantises a coordinate to centimetres so that endpoints that
// are meant to coincide do, despite floating-point noise.
func quant(p geo.XY) [2]int64 {
	return [2]int64{int64(math.Round(p.X * 100)), int64(math.Round(p.Y * 100))}
}

// endpointKey returns the quantised keys of an element's two endpoints.
func endpointKey(e *digiroad.TrafficElement) ([2]int64, [2]int64) {
	return quant(e.Geom[0]), quant(e.Geom[len(e.Geom)-1])
}

// Build reconstructs the graph from every traffic element in db.
// Elements of class ClassPedestrian are skipped: they are not drivable.
func Build(db *digiroad.Database) (*Graph, error) {
	var elements []*digiroad.TrafficElement
	for _, e := range db.Elements() {
		if e.Class == digiroad.ClassPedestrian {
			continue
		}
		elements = append(elements, e)
	}
	if len(elements) == 0 {
		return nil, ErrNoDrivableElements
	}

	// 1. Classify endpoints by how many elements touch them.
	degree := map[[2]int64]int{}
	pos := map[[2]int64]geo.XY{}
	for _, e := range elements {
		a, b := endpointKey(e)
		degree[a]++
		degree[b]++
		pos[a] = e.Geom[0]
		pos[b] = e.Geom[len(e.Geom)-1]
		if a == b {
			// Self-loop element: its endpoint is always a vertex.
			degree[a]++
		}
	}

	g := &Graph{}
	nodeOf := map[[2]int64]NodeID{}
	addNode := func(key [2]int64) NodeID {
		if id, ok := nodeOf[key]; ok {
			return id
		}
		id := NodeID(len(g.Nodes))
		g.Nodes = append(g.Nodes, Node{ID: id, Pos: pos[key]})
		nodeOf[key] = id
		return id
	}
	// Junctions (>=3) and dead ends (1) become nodes; intermediate
	// points (exactly 2) are merged away. Deterministic order: sort keys.
	keys := make([][2]int64, 0, len(degree))
	for k := range degree {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		if degree[k] != 2 {
			addNode(k)
		}
	}

	// 2. Adjacency: endpoint key -> elements touching it.
	touch := map[[2]int64][]*digiroad.TrafficElement{}
	for _, e := range elements {
		a, b := endpointKey(e)
		touch[a] = append(touch[a], e)
		if b != a {
			touch[b] = append(touch[b], e)
		}
	}

	// 3. Walk chains from every node endpoint.
	usedElem := map[int]bool{}
	for _, k := range keys {
		if degree[k] != 2 {
			g.walkChainsFrom(k, nodeOf, touch, usedElem, addNode)
		}
	}
	// 4. Remaining unused elements form pure cycles of intermediate
	// points; break each cycle at its smallest endpoint key.
	for _, e := range elements {
		if usedElem[e.ID] {
			continue
		}
		a, _ := endpointKey(e)
		addNode(a)
		g.walkChainsFrom(a, nodeOf, touch, usedElem, addNode)
	}

	sortEdgeLists(g)
	g.buildIndexes()
	return g, nil
}

// walkChainsFrom starts one chain walk along every unused element
// incident to the endpoint key `start`, merging degree-2 endpoints until
// another node is reached.
func (g *Graph) walkChainsFrom(
	start [2]int64,
	nodeOf map[[2]int64]NodeID,
	touch map[[2]int64][]*digiroad.TrafficElement,
	usedElem map[int]bool,
	addNode func([2]int64) NodeID,
) {
	for _, first := range touch[start] {
		if usedElem[first.ID] {
			continue
		}
		fromID := nodeOf[start]
		geom := geo.Polyline{}
		var elemIDs []int
		limit := math.Inf(1)
		class := digiroad.ClassPedestrian // numerically largest; min below
		flow := digiroad.FlowBoth
		flowConflict := false
		name := first.Name

		cur := first
		at := start
		for {
			usedElem[cur.ID] = true
			a, b := endpointKey(cur)
			elemGeom := cur.Geom
			elemFlow := cur.Flow
			next := b
			if at == b && a != b {
				// Traverse the element against its digitization.
				elemGeom = elemGeom.Reverse()
				elemFlow = reverseFlow(elemFlow)
				next = a
			}
			if len(geom) > 0 {
				elemGeom = elemGeom[1:] // drop the duplicated joint vertex
			}
			geom = append(geom, elemGeom...)
			elemIDs = append(elemIDs, cur.ID)
			if l := cur.MinLimit(); l > 0 && l < limit {
				limit = l
			}
			if cur.Class < class {
				class = cur.Class
			}
			flow, flowConflict = mergeFlow(flow, elemFlow, flowConflict)

			if _, isNode := nodeOf[next]; isNode {
				toID := nodeOf[next]
				g.addEdge(fromID, toID, geom, elemIDs, limit, class, flow, flowConflict, name)
				break
			}
			// Intermediate point: continue along the single other element.
			var follow *digiroad.TrafficElement
			for _, cand := range touch[next] {
				if !usedElem[cand.ID] {
					follow = cand
					break
				}
			}
			if follow == nil {
				// Dangling chain end that was not classified as a node
				// (can happen on duplicated elements); promote it.
				toID := addNode(next)
				g.addEdge(fromID, toID, geom, elemIDs, limit, class, flow, flowConflict, name)
				break
			}
			at = next
			cur = follow
		}
	}
}

func (g *Graph) addEdge(
	from, to NodeID,
	geom geo.Polyline,
	elemIDs []int,
	limit float64,
	class digiroad.FunctionalClass,
	flow digiroad.FlowDirection,
	flowConflict bool,
	name string,
) {
	if math.IsInf(limit, 1) {
		limit = 50 // national default inside built-up areas
	}
	if flowConflict {
		// Conflicting one-way elements in one chain: data error; fall
		// back to two-way rather than making the edge impassable.
		flow = digiroad.FlowBoth
	}
	id := EdgeID(len(g.Edges))
	g.Edges = append(g.Edges, Edge{
		ID:            id,
		From:          from,
		To:            to,
		Geom:          geom,
		Elements:      elemIDs,
		Length:        geom.Length(),
		SpeedLimitKmh: limit,
		Class:         class,
		Flow:          flow,
		Name:          name,
	})
	g.Nodes[from].Edges = append(g.Nodes[from].Edges, id)
	if to != from {
		g.Nodes[to].Edges = append(g.Nodes[to].Edges, id)
	}
}

func reverseFlow(f digiroad.FlowDirection) digiroad.FlowDirection {
	switch f {
	case digiroad.FlowForward:
		return digiroad.FlowBackward
	case digiroad.FlowBackward:
		return digiroad.FlowForward
	default:
		return digiroad.FlowBoth
	}
}

// mergeFlow combines the chain's accumulated flow with the next
// element's flow (both expressed in chain orientation).
func mergeFlow(acc, next digiroad.FlowDirection, conflict bool) (digiroad.FlowDirection, bool) {
	if conflict {
		return acc, true
	}
	switch {
	case acc == next:
		return acc, false
	case acc == digiroad.FlowBoth:
		return next, false
	case next == digiroad.FlowBoth:
		return acc, false
	default:
		return acc, true
	}
}

func sortEdgeLists(g *Graph) {
	for i := range g.Nodes {
		es := g.Nodes[i].Edges
		sort.Slice(es, func(a, b int) bool { return es[a] < es[b] })
	}
}

func (g *Graph) buildIndexes() {
	edgeItems := make([]geo.RTreeItem, len(g.Edges))
	for i := range g.Edges {
		edgeItems[i] = geo.RTreeItem{Rect: g.Edges[i].Geom.Bounds(), ID: i}
	}
	g.edgeIndex = geo.BuildRTree(edgeItems, 0)

	nodeItems := make([]geo.RTreeItem, len(g.Nodes))
	for i := range g.Nodes {
		nodeItems[i] = geo.RTreeItem{Rect: geo.RectFromPoints(g.Nodes[i].Pos), ID: i}
	}
	g.nodeIndex = geo.BuildRTree(nodeItems, 0)
}

// Junctions returns the nodes with degree >= 3 — the paper's junction
// definition used both for the graph and for the Table 4/Fig 6 junction
// counts.
func (g *Graph) Junctions() []*Node {
	var out []*Node
	for i := range g.Nodes {
		if g.Nodes[i].Degree() >= 3 {
			out = append(out, &g.Nodes[i])
		}
	}
	return out
}

// JunctionsIn returns the junction nodes inside r.
func (g *Graph) JunctionsIn(r geo.Rect) []*Node {
	var out []*Node
	for _, n := range g.Junctions() {
		if r.Contains(n.Pos) {
			out = append(out, n)
		}
	}
	return out
}

// EdgeCandidate is an edge found near a query point.
type EdgeCandidate struct {
	Edge     *Edge
	Proj     geo.ProjectResult
	Distance float64
}

// NearScratch holds the reusable buffers for EdgesNearInto. The zero
// value is ready to use; one scratch serves one goroutine.
type NearScratch struct {
	ids   []int
	cands []EdgeCandidate
}

// EdgesNear returns edges passing within radius of p, nearest first.
func (g *Graph) EdgesNear(p geo.XY, radius float64) []EdgeCandidate {
	return g.EdgesNearInto(p, radius, &NearScratch{})
}

// EdgesNearInto is EdgesNear with caller-owned buffers: the returned
// slice aliases s and is valid until the next call with the same
// scratch. The hot path (map matching queries the index a few times
// per route point) runs allocation-free with a warm scratch.
func (g *Graph) EdgesNearInto(p geo.XY, radius float64, s *NearScratch) []EdgeCandidate {
	query := geo.RectFromPoints(p).Expand(radius)
	s.ids = g.edgeIndex.Search(query, s.ids[:0])
	out := s.cands[:0]
	for _, id := range s.ids {
		e := &g.Edges[id]
		proj := e.Geom.Project(p)
		if proj.Distance <= radius {
			out = append(out, EdgeCandidate{Edge: e, Proj: proj, Distance: proj.Distance})
		}
	}
	// Insertion sort by distance: candidate sets are tiny, and unlike
	// sort.Slice this neither allocates nor depends on an unstable
	// algorithm's tie order (ties keep index order).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Distance < out[j-1].Distance; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	s.cands = out
	return out
}

// NearestEdge returns the closest edge to p within maxDist. ok is false
// when none qualifies.
func (g *Graph) NearestEdge(p geo.XY, maxDist float64) (EdgeCandidate, bool) {
	// Probe with a growing radius so the common near-road case stays
	// cheap.
	for r := 25.0; r <= maxDist*2; r *= 2 {
		if r > maxDist {
			r = maxDist
		}
		if cands := g.EdgesNear(p, r); len(cands) > 0 {
			return cands[0], true
		}
		if r == maxDist {
			break
		}
	}
	return EdgeCandidate{}, false
}

// NearestNode returns the node closest to p.
func (g *Graph) NearestNode(p geo.XY) *Node {
	res := g.nodeIndex.Nearest(p, 1, 0)
	if len(res) == 0 {
		return nil
	}
	return &g.Nodes[res[0].ID]
}

// Other returns the node at the opposite end of edge e from n.
func (e *Edge) Other(n NodeID) NodeID {
	if e.From == n {
		return e.To
	}
	return e.From
}

// JunctionPair is one row of the paper's Table 1: two junction
// geometries with the array of traffic elements forming the edge
// between them.
type JunctionPair struct {
	Junction1 geo.XY
	Elements  []int
	Junction2 geo.XY
}

// JunctionPairs returns the Table 1 rows for every edge, ordered by
// edge ID.
func (g *Graph) JunctionPairs() []JunctionPair {
	out := make([]JunctionPair, len(g.Edges))
	for i := range g.Edges {
		e := &g.Edges[i]
		out[i] = JunctionPair{
			Junction1: g.Nodes[e.From].Pos,
			Elements:  append([]int(nil), e.Elements...),
			Junction2: g.Nodes[e.To].Pos,
		}
	}
	return out
}
