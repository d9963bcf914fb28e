package roadnet

import (
	"errors"

	"repro/internal/geo"
)

// WeightFunc scores one directed traversal of an edge. Returning +Inf
// forbids the traversal; the function is never called for orientations
// the edge's flow direction already forbids.
type WeightFunc func(e *Edge, forward bool) float64

// DistanceWeight routes by length.
func DistanceWeight(e *Edge, forward bool) float64 { return e.Length }

// TravelTimeWeight routes by free-flow travel time in seconds.
func TravelTimeWeight(e *Edge, forward bool) float64 {
	return e.Length / (e.SpeedLimitKmh / 3.6)
}

// PathStep is one directed edge traversal in a path.
type PathStep struct {
	Edge    *Edge
	Forward bool // true when traversed From -> To
}

// Path is a routing result.
type Path struct {
	Steps  []PathStep
	Nodes  []NodeID // visited nodes, len(Steps)+1
	Cost   float64  // total weight
	Length float64  // total metres
}

// Geometry concatenates the step geometries into one chain.
func (p *Path) Geometry() geo.Polyline {
	var out geo.Polyline
	for _, s := range p.Steps {
		g := s.Edge.Geom
		if !s.Forward {
			g = g.Reverse()
		}
		if len(out) > 0 && len(g) > 0 {
			g = g[1:]
		}
		out = append(out, g...)
	}
	if len(out) == 0 && len(p.Nodes) > 0 {
		return nil
	}
	return out
}

// AppendGeometry appends exactly the vertices Geometry returns to dst,
// without allocating intermediates (no per-step Reverse copies). Safe
// on cached paths: the step geometries are only read.
func (p *Path) AppendGeometry(dst geo.Polyline) geo.Polyline {
	start := len(dst)
	for _, s := range p.Steps {
		g := s.Edge.Geom
		if s.Forward {
			if len(dst) > start && len(g) > 0 {
				g = g[1:]
			}
			dst = append(dst, g...)
		} else {
			i := len(g) - 1
			if len(dst) > start && len(g) > 0 {
				i-- // skip the joint vertex (reversed head = forward tail)
			}
			for ; i >= 0; i-- {
				dst = append(dst, g[i])
			}
		}
	}
	return dst
}

// Edges returns the traversed edge IDs in order.
func (p *Path) Edges() []EdgeID {
	return p.AppendEdges(make([]EdgeID, 0, len(p.Steps)))
}

// AppendEdges appends the traversed edge IDs to dst.
func (p *Path) AppendEdges(dst []EdgeID) []EdgeID {
	for _, s := range p.Steps {
		dst = append(dst, s.Edge.ID)
	}
	return dst
}

// ErrNoPath is returned when the destination is unreachable. It is a
// permanent condition for a given graph: retrying the same query
// cannot succeed.
var ErrNoPath = errors.New("roadnet: no path")

// ErrNoDrivableElements is returned by Build when the database holds
// no drivable traffic elements to reconstruct a graph from. Permanent.
var ErrNoDrivableElements = errors.New("roadnet: no drivable traffic elements")

// ErrNodeOutOfRange marks a routing query naming a node id outside the
// graph; callers passing computed ids test for it with errors.Is.
// Permanent.
var ErrNodeOutOfRange = errors.New("roadnet: node out of range")

type pqItem struct {
	node NodeID
	cost float64
}

// priorityQueue is a binary min-heap on cost. push and pop move items
// exactly as container/heap's Push and Pop (its up and down), so pop
// order, and with it every routing tie-break, is the same; being typed,
// they box no item into an interface.
type priorityQueue []pqItem

func (pq *priorityQueue) push(it pqItem) {
	h := append(*pq, it)
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !(h[j].cost < h[i].cost) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	*pq = h
}

func (pq *priorityQueue) pop() pqItem {
	h := *pq
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if r := j + 1; r < n && h[r].cost < h[j].cost {
			j = r
		}
		if !(h[j].cost < h[i].cost) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	*pq = h[:n]
	return h[n]
}

// Router returns the graph's routing engine, built on first use. It is
// the only way to get a Router: every stage routing over the graph
// shares its scratch pools and path cache.
func (g *Graph) Router() *Router {
	g.routerOnce.Do(func() {
		g.router = newRouter(g)
	})
	return g.router
}

// ShortestPath routes from one node to another under the given weight
// (nil selects DistanceWeight). Flow directions are respected.
// Shorthand for g.Router().ShortestPath.
func (g *Graph) ShortestPath(from, to NodeID, weight WeightFunc) (*Path, error) {
	return g.Router().ShortestPath(from, to, weight)
}
