// Package mapattr fetches digital-map attribute data along matched
// routes (paper §IV-F): the number of traffic lights, bus stops,
// pedestrian crossings and junctions a transition passes, which Table 4
// summarises per Origin-Destination direction.
package mapattr

import (
	"math"

	"repro/internal/digiroad"
	"repro/internal/geo"
	"repro/internal/mapmatch"
	"repro/internal/roadnet"
)

// RouteAttributes is the feature load of one route.
type RouteAttributes struct {
	TrafficLights       int
	BusStops            int
	PedestrianCrossings int
	Junctions           int
	LengthM             float64
}

// Fetcher counts features along route geometries. It is safe for
// concurrent use: the junction positions and their R-tree are built
// once at construction and only read afterwards.
type Fetcher struct {
	db            *digiroad.Database
	graph         *roadnet.Graph
	junctions     []geo.XY
	junctionIndex *geo.RTree // item IDs index junctions
	// ProximityM is how close a point object must be to the route to
	// count (default 20 m: the object sits on the traversed street).
	ProximityM float64
}

// NewFetcher builds a fetcher. proximityM <= 0 selects 20 m.
func NewFetcher(db *digiroad.Database, graph *roadnet.Graph, proximityM float64) *Fetcher {
	if proximityM <= 0 {
		proximityM = 20
	}
	f := &Fetcher{db: db, graph: graph, ProximityM: proximityM}
	var items []geo.RTreeItem
	for _, n := range graph.Junctions() {
		// A NaN position lies in no route's bounds, so it never counts;
		// in the tree it would poison its leaf's bounds and hide the
		// junctions beside it.
		if math.IsNaN(n.Pos.X) || math.IsNaN(n.Pos.Y) {
			continue
		}
		items = append(items, geo.RTreeItem{Rect: geo.RectFromPoints(n.Pos), ID: len(f.junctions)})
		f.junctions = append(f.junctions, n.Pos)
	}
	f.junctionIndex = geo.BuildRTree(items, 0)
	return f
}

// attrChunkSegs mirrors digiroad's near-line sweep granularity: the
// route is cut into chunks of this many segments, and each junction the
// junction index finds inside a chunk's expanded bounds is tested
// against that chunk only, instead of against the full route.
const attrChunkSegs = 16

// AlongGeometry counts the features within ProximityM of the route
// chain and the junction nodes it passes.
func (f *Fetcher) AlongGeometry(route geo.Polyline) RouteAttributes {
	attrs := RouteAttributes{LengthM: route.Length()}
	fc := f.db.CountObjectsNearLine(route, f.ProximityM)
	attrs.TrafficLights = fc.TrafficLights
	attrs.BusStops = fc.BusStops
	attrs.PedestrianCrossings = fc.PedestrianCrossings

	var ids, seen []int
	for start := 0; start == 0 || start+1 < len(route); start += attrChunkSegs {
		chunk := route
		if len(route) > attrChunkSegs+1 {
			end := start + attrChunkSegs + 1
			if end > len(route) {
				end = len(route)
			}
			chunk = route[start:end]
		}
		ids = f.junctionIndex.Search(chunk.Bounds().Expand(f.ProximityM), ids[:0])
	candidates:
		for _, id := range ids {
			// Few junctions lie along one route, so a linear dedup scan
			// beats a map.
			for _, s := range seen {
				if s == id {
					continue candidates
				}
			}
			// A junction within ProximityM of the route is within
			// ProximityM of the chunk holding its nearest segment, and
			// that chunk's expanded bounds contain it, so this accepts
			// exactly the junctions the full-route test accepts.
			if chunk.Within(f.junctions[id], f.ProximityM) {
				seen = append(seen, id)
			}
		}
		if len(chunk) == len(route) {
			break
		}
	}
	attrs.Junctions = len(seen)
	return attrs
}

// ForMatch counts features for a map-matching result, using its
// connected route geometry (so gap-filled stretches contribute their
// features too, exactly as the paper's element-wise fetch does).
func (f *Fetcher) ForMatch(res *mapmatch.Result) RouteAttributes {
	return f.AlongGeometry(res.Geometry)
}
