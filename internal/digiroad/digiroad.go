// Package digiroad models a Digiroad-style national road database: the
// road network as "traffic elements" (the smallest units of road centre
// line geometry), transport-system point objects (traffic lights, bus
// stops, pedestrian crossings), and segmented line-like attributes such
// as speed limits. It also contains a deterministic generator for a
// downtown-Oulu-like network so that the whole pipeline can run without
// access to the proprietary national database (see DESIGN.md).
package digiroad

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/geo"
)

// FunctionalClass classifies a traffic element's role in the network,
// mirroring Digiroad's functional road classes.
type FunctionalClass int

// Functional classes, from highest-capacity to lowest.
const (
	ClassArterial FunctionalClass = iota + 1
	ClassCollector
	ClassLocal
	ClassPedestrian
)

// String returns the class name.
func (c FunctionalClass) String() string {
	switch c {
	case ClassArterial:
		return "arterial"
	case ClassCollector:
		return "collector"
	case ClassLocal:
		return "local"
	case ClassPedestrian:
		return "pedestrian"
	default:
		return fmt.Sprintf("FunctionalClass(%d)", int(c))
	}
}

// FlowDirection encodes the allowed traffic flow relative to the
// element's digitization direction.
type FlowDirection int

// Flow directions.
const (
	FlowBoth     FlowDirection = iota // two-way traffic
	FlowForward                       // one-way along digitization
	FlowBackward                      // one-way against digitization
)

// String returns the direction name.
func (d FlowDirection) String() string {
	switch d {
	case FlowBoth:
		return "both"
	case FlowForward:
		return "forward"
	case FlowBackward:
		return "backward"
	default:
		return fmt.Sprintf("FlowDirection(%d)", int(d))
	}
}

// TrafficElement is the smallest unit of road centre-line geometry,
// with its characteristic attributes.
type TrafficElement struct {
	ID            int
	Geom          geo.Polyline // projected coordinates, metres
	Class         FunctionalClass
	Flow          FlowDirection
	SpeedLimitKmh float64 // element-level default limit
	// Limits optionally refines the limit as a segmented line-like
	// attribute over along-element ranges (see SetSpeedLimits).
	Limits []SpeedLimitRange
	Name   string // street name, may be empty
}

// Length returns the element's centre-line length in metres.
func (e *TrafficElement) Length() float64 { return e.Geom.Length() }

// ObjectKind identifies a transport-system point object type.
type ObjectKind int

// Point object kinds used by the paper's analysis.
const (
	TrafficLight ObjectKind = iota + 1
	BusStop
	PedestrianCrossing
)

// String returns the kind name.
func (k ObjectKind) String() string {
	switch k {
	case TrafficLight:
		return "traffic_light"
	case BusStop:
		return "bus_stop"
	case PedestrianCrossing:
		return "pedestrian_crossing"
	default:
		return fmt.Sprintf("ObjectKind(%d)", int(k))
	}
}

// PointObject is a transport-system object placed on the network.
type PointObject struct {
	ID        int
	Kind      ObjectKind
	Pos       geo.XY
	ElementID int // the traffic element the object belongs to
}

// Database is an in-memory Digiroad-like store. The zero value is not
// usable; construct with NewDatabase.
type Database struct {
	// Proj maps between WGS84 and the projected plane all geometry in
	// the database lives in.
	Proj *geo.Projection

	elements []*TrafficElement
	objects  []*PointObject
	byID     map[int]*TrafficElement

	// mu guards the slices above, the ID counters and the two spatial
	// indexes. Each index is nil while stale: AddElement drops only the
	// element index and AddObject only the object index, and a query
	// rebuilds only the index it reads.
	mu          sync.Mutex
	nextElemID  int
	nextObjID   int
	elemIndex   *geo.RTree
	elemIndexed []*TrafficElement // elemIndex's item IDs index this
	objIndex    *geo.RTree
	objIndexed  []*PointObject // objIndex's item IDs index this
}

// NewDatabase returns an empty database whose geometry plane is centred
// at origin.
func NewDatabase(origin geo.Point) *Database {
	return &Database{
		Proj:       geo.NewProjection(origin),
		byID:       make(map[int]*TrafficElement),
		nextElemID: 1,
		nextObjID:  1,
	}
}

// AddElement stores a traffic element. A zero ID is assigned the next
// free identifier. It returns the stored element and an error on
// duplicate IDs or degenerate geometry.
func (db *Database) AddElement(e TrafficElement) (*TrafficElement, error) {
	if len(e.Geom) < 2 {
		return nil, fmt.Errorf("digiroad: element geometry needs >=2 points, got %d", len(e.Geom))
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if e.ID == 0 {
		e.ID = db.nextElemID
	}
	if _, dup := db.byID[e.ID]; dup {
		return nil, fmt.Errorf("digiroad: duplicate element id %d", e.ID)
	}
	if e.ID >= db.nextElemID {
		db.nextElemID = e.ID + 1
	}
	stored := e
	db.elements = append(db.elements, &stored)
	db.byID[stored.ID] = &stored
	db.elemIndex, db.elemIndexed = nil, nil
	return &stored, nil
}

// AddObject stores a point object. A zero ID is assigned the next free
// identifier.
func (db *Database) AddObject(o PointObject) *PointObject {
	db.mu.Lock()
	defer db.mu.Unlock()
	if o.ID == 0 {
		o.ID = db.nextObjID
	}
	if o.ID >= db.nextObjID {
		db.nextObjID = o.ID + 1
	}
	stored := o
	db.objects = append(db.objects, &stored)
	db.objIndex, db.objIndexed = nil, nil
	return &stored
}

// Element returns the element with the given ID, or nil.
func (db *Database) Element(id int) *TrafficElement {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.byID[id]
}

// Elements returns all elements ordered by ID. The returned slice is
// owned by the caller; the pointed-to elements are shared.
func (db *Database) Elements() []*TrafficElement {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := append([]*TrafficElement(nil), db.elements...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Objects returns all point objects ordered by ID.
func (db *Database) Objects() []*PointObject {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := append([]*PointObject(nil), db.objects...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ObjectsOfKind returns all point objects of the given kind, ordered by ID.
func (db *Database) ObjectsOfKind(kind ObjectKind) []*PointObject {
	var out []*PointObject
	for _, o := range db.Objects() {
		if o.Kind == kind {
			out = append(out, o)
		}
	}
	return out
}

// NumElements returns the element count.
func (db *Database) NumElements() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.elements)
}

// NumObjects returns the point-object count.
func (db *Database) NumObjects() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.objects)
}

// Bounds returns the bounding box of all element geometry.
func (db *Database) Bounds() geo.Rect {
	db.mu.Lock()
	defer db.mu.Unlock()
	r := geo.EmptyRect()
	for _, e := range db.elements {
		r = r.Union(e.Geom.Bounds())
	}
	return r
}

// elementIndex returns the element R-tree and the elements its item IDs
// index, building both first if an element was added since the last
// build. The indexed slice keeps insertion order.
func (db *Database) elementIndex() (*geo.RTree, []*TrafficElement) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.elemIndex == nil {
		items := make([]geo.RTreeItem, len(db.elements))
		db.elemIndexed = append([]*TrafficElement(nil), db.elements...)
		for i, e := range db.elemIndexed {
			items[i] = geo.RTreeItem{Rect: e.Geom.Bounds(), ID: i}
		}
		db.elemIndex = geo.BuildRTree(items, 0)
	}
	return db.elemIndex, db.elemIndexed
}

// objectIndex is elementIndex for the point objects.
func (db *Database) objectIndex() (*geo.RTree, []*PointObject) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.objIndex == nil {
		items := make([]geo.RTreeItem, len(db.objects))
		db.objIndexed = append([]*PointObject(nil), db.objects...)
		for i, o := range db.objIndexed {
			items[i] = geo.RTreeItem{Rect: geo.RectFromPoints(o.Pos), ID: i}
		}
		db.objIndex = geo.BuildRTree(items, 0)
	}
	return db.objIndex, db.objIndexed
}

// buildIndexes builds whichever index is stale, so that a constructor
// hands out a database whose first query rebuilds nothing.
func (db *Database) buildIndexes() {
	db.elementIndex()
	db.objectIndex()
}

// ElementsNear returns the elements whose geometry passes within radius
// metres of p, sorted by distance to p.
func (db *Database) ElementsNear(p geo.XY, radius float64) []*TrafficElement {
	index, indexed := db.elementIndex()
	query := geo.RectFromPoints(p).Expand(radius)
	ids := index.Search(query, nil)
	type hit struct {
		e *TrafficElement
		d float64
	}
	var hits []hit
	for _, id := range ids {
		e := indexed[id]
		if d := e.Geom.DistanceTo(p); d <= radius {
			hits = append(hits, hit{e, d})
		}
	}
	sort.Slice(hits, func(i, j int) bool { return hits[i].d < hits[j].d })
	out := make([]*TrafficElement, len(hits))
	for i, h := range hits {
		out[i] = h.e
	}
	return out
}

// ObjectsInRect returns the point objects inside r.
func (db *Database) ObjectsInRect(r geo.Rect) []*PointObject {
	index, indexed := db.objectIndex()
	ids := index.Search(r, nil)
	out := make([]*PointObject, 0, len(ids))
	for _, id := range ids {
		if o := indexed[id]; r.Contains(o.Pos) {
			out = append(out, o)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// lineChunkSegs is the sweep granularity for near-line queries: the
// chain is walked in chunks of this many segments, each with its own
// bounding-box index query, so a long route tests candidates against a
// handful of nearby segments instead of the whole chain (the full-chain
// distance test is quadratic in route length × candidate count).
const lineChunkSegs = 16

// ObjectsNearLine returns point objects within dist metres of the chain,
// optionally filtered by kind (pass 0 for all kinds).
func (db *Database) ObjectsNearLine(pl geo.Polyline, dist float64, kind ObjectKind) []*PointObject {
	index, indexed := db.objectIndex()
	var out []*PointObject
	var ids []int
	var seen map[int]struct{}
	for start := 0; start == 0 || start+1 < len(pl); start += lineChunkSegs {
		chunk := pl
		if len(pl) > lineChunkSegs+1 {
			end := start + lineChunkSegs + 1
			if end > len(pl) {
				end = len(pl)
			}
			chunk = pl[start:end]
		}
		ids = index.Search(chunk.Bounds().Expand(dist), ids[:0])
		for _, id := range ids {
			if _, dup := seen[id]; dup {
				continue
			}
			o := indexed[id]
			if kind != 0 && o.Kind != kind {
				continue
			}
			// An object within dist of the full chain is within dist of
			// the chunk holding its nearest segment, so the union over
			// chunks accepts exactly the objects the one-shot full-chain
			// test accepted.
			if chunk.Within(o.Pos, dist) {
				if seen == nil {
					seen = make(map[int]struct{})
				}
				seen[id] = struct{}{}
				out = append(out, o)
			}
		}
		if len(chunk) == len(pl) {
			break
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// CountObjectsNearLine tallies by kind the point objects within dist
// metres of the chain. It accepts exactly the objects ObjectsNearLine
// (with kind 0) accepts, but only counts them, so per-route feature
// fetching does not build and sort a result slice it will immediately
// discard.
func (db *Database) CountObjectsNearLine(pl geo.Polyline, dist float64) FeatureCounts {
	index, indexed := db.objectIndex()
	var fc FeatureCounts
	var ids, seen []int
	for start := 0; start == 0 || start+1 < len(pl); start += lineChunkSegs {
		chunk := pl
		if len(pl) > lineChunkSegs+1 {
			end := start + lineChunkSegs + 1
			if end > len(pl) {
				end = len(pl)
			}
			chunk = pl[start:end]
		}
		ids = index.Search(chunk.Bounds().Expand(dist), ids[:0])
	candidates:
		for _, id := range ids {
			// The accept set is small (objects on the traversed streets),
			// so a linear dedup scan beats a map.
			for _, s := range seen {
				if s == id {
					continue candidates
				}
			}
			o := indexed[id]
			if chunk.Within(o.Pos, dist) {
				seen = append(seen, id)
				switch o.Kind {
				case TrafficLight:
					fc.TrafficLights++
				case BusStop:
					fc.BusStops++
				case PedestrianCrossing:
					fc.PedestrianCrossings++
				}
			}
		}
		if len(chunk) == len(pl) {
			break
		}
	}
	return fc
}

// FeatureCounts tallies the paper's four feature kinds within a
// rectangle. Junction counting needs the road graph, so the fourth
// count here covers only the three point-object kinds; see package
// roadnet for junctions.
type FeatureCounts struct {
	TrafficLights       int
	BusStops            int
	PedestrianCrossings int
}

// CountFeatures tallies point objects by kind within r.
func (db *Database) CountFeatures(r geo.Rect) FeatureCounts {
	var fc FeatureCounts
	for _, o := range db.ObjectsInRect(r) {
		switch o.Kind {
		case TrafficLight:
			fc.TrafficLights++
		case BusStop:
			fc.BusStops++
		case PedestrianCrossing:
			fc.PedestrianCrossings++
		}
	}
	return fc
}
