package geo

import "math"

// Polyline is an open chain of projected points. Operations assume at
// least one vertex unless stated otherwise; a polyline with a single
// vertex has zero length and behaves as a point.
type Polyline []XY

// Length returns the total chain length in metres.
func (pl Polyline) Length() float64 {
	var total float64
	for i := 1; i < len(pl); i++ {
		total += pl[i-1].Dist(pl[i])
	}
	return total
}

// Bounds returns the bounding box of the polyline.
func (pl Polyline) Bounds() Rect { return RectFromPoints(pl...) }

// Reverse returns a new polyline with the vertex order flipped.
func (pl Polyline) Reverse() Polyline {
	out := make(Polyline, len(pl))
	for i, p := range pl {
		out[len(pl)-1-i] = p
	}
	return out
}

// Clone returns a deep copy of the polyline.
func (pl Polyline) Clone() Polyline {
	out := make(Polyline, len(pl))
	copy(out, pl)
	return out
}

// PointAt returns the point at the given distance along the chain,
// clamped to the endpoints.
func (pl Polyline) PointAt(dist float64) XY {
	if len(pl) == 0 {
		return XY{}
	}
	if dist <= 0 {
		return pl[0]
	}
	var walked float64
	for i := 1; i < len(pl); i++ {
		seg := pl[i-1].Dist(pl[i])
		if walked+seg >= dist {
			if seg == 0 {
				return pl[i]
			}
			return pl[i-1].Lerp(pl[i], (dist-walked)/seg)
		}
		walked += seg
	}
	return pl[len(pl)-1]
}

// ProjectResult describes the closest point on a polyline to a query
// point.
type ProjectResult struct {
	Point    XY      // the closest point on the chain
	Distance float64 // metres from the query point to Point
	Along    float64 // metres from the chain start to Point
	Segment  int     // index of the segment containing Point (0-based)
}

// Project returns the closest point on the polyline to p.
func (pl Polyline) Project(p XY) ProjectResult {
	best := ProjectResult{Distance: math.Inf(1)}
	if len(pl) == 0 {
		return best
	}
	if len(pl) == 1 {
		return ProjectResult{Point: pl[0], Distance: pl[0].Dist(p)}
	}
	var walked float64
	for i := 1; i < len(pl); i++ {
		a, b := pl[i-1], pl[i]
		seg := a.Dist(b)
		q, t := closestOnSegment(p, a, b)
		if d := q.Dist(p); d < best.Distance {
			best = ProjectResult{
				Point:    q,
				Distance: d,
				Along:    walked + t*seg,
				Segment:  i - 1,
			}
		}
		walked += seg
	}
	return best
}

// DistanceTo returns the minimum distance from p to the polyline.
func (pl Polyline) DistanceTo(p XY) float64 { return pl.Project(p).Distance }

// withinSlack is the relative margin by which a segment's squared
// offset must exceed r² before Within skips its square root. The
// squares carry a few ulps of rounding (~1e-15 relative) and math.Hypot
// at most about one, so 1e-9 leaves six orders of magnitude to spare.
const withinSlack = 1e-9

// Within reports whether p lies within r metres of the chain. It
// returns exactly DistanceTo(p) <= r for every input, NaN and infinite
// ones included: it runs Project's per-segment closest point and
// math.Hypot, but stops at the first segment within r and sums no arc
// length. A segment whose squared offset exceeds r² by withinSlack is
// rejected without its square root, and only when both squares are
// normal floats, where that margin bounds the rounding.
func (pl Polyline) Within(p XY, r float64) bool {
	if len(pl) == 1 {
		return pl[0].Dist(p) <= r
	}
	far := math.Inf(1)
	if r2 := r * r; isNormal(r2) {
		far = r2 * (1 + withinSlack)
	}
	for i := 1; i < len(pl); i++ {
		q, _ := closestOnSegment(p, pl[i-1], pl[i])
		dx, dy := q.X-p.X, q.Y-p.Y
		if s := dx*dx + dy*dy; s > far && isNormal(s) {
			continue
		}
		if q.Dist(p) <= r {
			return true
		}
	}
	// Project's running minimum starts at +Inf and a NaN offset never
	// lowers it, so with no segment within r, or no segment at all, the
	// distance is either above r or +Inf.
	return math.Inf(1) <= r
}

// isNormal reports whether a non-negative x is a normal float: neither
// zero nor subnormal, and finite.
func isNormal(x float64) bool { return x >= 0x1p-1022 && x <= math.MaxFloat64 }

// BearingAt returns the direction of travel (degrees, 0=north) at the
// given distance along the chain. For degenerate chains it returns 0.
func (pl Polyline) BearingAt(dist float64) float64 {
	if len(pl) < 2 {
		return 0
	}
	var walked float64
	for i := 1; i < len(pl); i++ {
		seg := pl[i-1].Dist(pl[i])
		if walked+seg >= dist || i == len(pl)-1 {
			if seg == 0 {
				continue
			}
			return Bearing(pl[i-1], pl[i])
		}
		walked += seg
	}
	// All segments degenerate except possibly earlier ones; fall back to
	// the overall chord.
	return Bearing(pl[0], pl[len(pl)-1])
}

// Resample returns a polyline with points spaced at most step metres
// apart along the chain, preserving the original vertices.
func (pl Polyline) Resample(step float64) Polyline {
	if len(pl) < 2 || step <= 0 {
		return pl.Clone()
	}
	out := Polyline{pl[0]}
	for i := 1; i < len(pl); i++ {
		a, b := pl[i-1], pl[i]
		seg := a.Dist(b)
		if seg > step {
			n := int(math.Ceil(seg / step))
			for k := 1; k < n; k++ {
				out = append(out, a.Lerp(b, float64(k)/float64(n)))
			}
		}
		out = append(out, b)
	}
	return out
}

// Simplify applies Douglas–Peucker simplification with the given
// tolerance in metres, always keeping the endpoints.
func (pl Polyline) Simplify(tolerance float64) Polyline {
	if len(pl) < 3 {
		return pl.Clone()
	}
	keep := make([]bool, len(pl))
	keep[0], keep[len(pl)-1] = true, true
	simplifyRange(pl, 0, len(pl)-1, tolerance, keep)
	out := make(Polyline, 0, len(pl))
	for i, k := range keep {
		if k {
			out = append(out, pl[i])
		}
	}
	return out
}

func simplifyRange(pl Polyline, lo, hi int, tol float64, keep []bool) {
	if hi-lo < 2 {
		return
	}
	var maxDist float64
	maxIdx := -1
	for i := lo + 1; i < hi; i++ {
		q, _ := closestOnSegment(pl[i], pl[lo], pl[hi])
		if d := q.Dist(pl[i]); d > maxDist {
			maxDist, maxIdx = d, i
		}
	}
	if maxDist > tol {
		keep[maxIdx] = true
		simplifyRange(pl, lo, maxIdx, tol, keep)
		simplifyRange(pl, maxIdx, hi, tol, keep)
	}
}

// Slice returns the sub-chain between the two along-chain distances
// from <= to, including interpolated endpoints.
func (pl Polyline) Slice(from, to float64) Polyline {
	if len(pl) < 2 || to <= from {
		if len(pl) == 0 {
			return nil
		}
		return Polyline{pl.PointAt(from)}
	}
	out := Polyline{pl.PointAt(from)}
	var walked float64
	for i := 1; i < len(pl); i++ {
		seg := pl[i-1].Dist(pl[i])
		vertexAt := walked + seg
		if vertexAt > from && vertexAt < to {
			out = append(out, pl[i])
		}
		walked = vertexAt
		if walked >= to {
			break
		}
	}
	out = append(out, pl.PointAt(to))
	return out
}

// AppendSlice appends exactly the vertices Slice(from, to) returns to
// dst, without allocating an intermediate polyline.
func (pl Polyline) AppendSlice(dst Polyline, from, to float64) Polyline {
	if len(pl) < 2 || to <= from {
		if len(pl) == 0 {
			return dst
		}
		return append(dst, pl.PointAt(from))
	}
	dst = append(dst, pl.PointAt(from))
	var walked float64
	for i := 1; i < len(pl); i++ {
		seg := pl[i-1].Dist(pl[i])
		vertexAt := walked + seg
		if vertexAt > from && vertexAt < to {
			dst = append(dst, pl[i])
		}
		walked = vertexAt
		if walked >= to {
			break
		}
	}
	return append(dst, pl.PointAt(to))
}

// AppendSliceReversed appends exactly the vertices
// Slice(from, to).Reverse() returns to dst, without allocating an
// intermediate polyline.
func (pl Polyline) AppendSliceReversed(dst Polyline, from, to float64) Polyline {
	start := len(dst)
	dst = pl.AppendSlice(dst, from, to)
	for i, j := start, len(dst)-1; i < j; i, j = i+1, j-1 {
		dst[i], dst[j] = dst[j], dst[i]
	}
	return dst
}

// closestOnSegment returns the closest point to p on segment ab and the
// interpolation parameter t in [0,1].
func closestOnSegment(p, a, b XY) (XY, float64) {
	ab := b.Sub(a)
	den := ab.Dot(ab)
	if den == 0 {
		return a, 0
	}
	t := p.Sub(a).Dot(ab) / den
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return a.Lerp(b, t), t
}

// SegmentsIntersect reports whether segments ab and cd share a point and,
// if they cross properly, the intersection point.
func SegmentsIntersect(a, b, c, d XY) (XY, bool) {
	r := b.Sub(a)
	s := d.Sub(c)
	denom := r.Cross(s)
	qp := c.Sub(a)
	if denom == 0 {
		// Parallel. Treat collinear overlap as intersecting at the
		// closest endpoint for robustness.
		if qp.Cross(r) != 0 {
			return XY{}, false
		}
		rr := r.Dot(r)
		if rr == 0 {
			if a.Dist(c) == 0 {
				return a, true
			}
			return XY{}, false
		}
		t0 := qp.Dot(r) / rr
		t1 := t0 + s.Dot(r)/rr
		if t0 > t1 {
			t0, t1 = t1, t0
		}
		if t1 < 0 || t0 > 1 {
			return XY{}, false
		}
		t := math.Max(0, t0)
		return a.Lerp(b, t), true
	}
	t := qp.Cross(s) / denom
	u := qp.Cross(r) / denom
	if t < 0 || t > 1 || u < 0 || u > 1 {
		return XY{}, false
	}
	return a.Lerp(b, t), true
}

// PolylinesIntersect reports whether two chains cross and returns the
// first crossing found walking along pl.
func PolylinesIntersect(pl, other Polyline) (XY, bool) {
	for i := 1; i < len(pl); i++ {
		for j := 1; j < len(other); j++ {
			if p, ok := SegmentsIntersect(pl[i-1], pl[i], other[j-1], other[j]); ok {
				return p, true
			}
		}
	}
	return XY{}, false
}

// Line builds a polyline from interleaved x,y coordinate pairs:
// Line(x0, y0, x1, y1, ...). A trailing unpaired value is ignored.
func Line(coords ...float64) Polyline {
	pl := make(Polyline, 0, len(coords)/2)
	for i := 0; i+1 < len(coords); i += 2 {
		pl = append(pl, XY{X: coords[i], Y: coords[i+1]})
	}
	return pl
}
