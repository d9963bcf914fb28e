package mapattr

import "repro/internal/geo"

// ChunkSegs exposes the route chunk length to the external differential
// test, whose oracle cuts routes the same way.
const ChunkSegs = attrChunkSegs

// Scratch is AlongGeometry's query scratch. The allocation test warms
// one directly rather than through the pool, which the race detector
// empties at random.
type Scratch = attrScratch

// AlongGeometryWith is AlongGeometry through the given scratch.
func (f *Fetcher) AlongGeometryWith(route geo.Polyline, sc *Scratch) RouteAttributes {
	return f.along(route, sc)
}
