package trace

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/geo"
)

// Columnar (struct-of-arrays) point storage. The row-oriented
// RoutePoint layout costs ~80 bytes per point plus a slice header per
// trip, and every pipeline stage that copies points drags all seven
// fields through the cache. Columns stores each field in its own
// parallel slice so stage kernels touch only the columns they read,
// and so one arena allocation serves every trip of a car.
//
// Ownership model: an Arena owns the columns. The pipeline keeps one
// arena per in-flight car, appends the car's raw trips, lets the
// cleaning and segmentation kernels append derived trips to the same
// arena, and resets it before the next car. ColTrip values are cheap
// views (offset + length) into the arena and must not outlive the
// reset that reclaims their rows.

// Columns holds route-point fields as parallel slices. All slices
// always have equal length. Times are unix nanoseconds (full in-memory
// fidelity; the on-disk binary format quantises to milliseconds, like
// CSV). Positions are projected metres, matching RoutePoint.Pos.
type Columns struct {
	PointIDs []int32
	TimesNs  []int64
	Xs       []float64
	Ys       []float64
	Speeds   []float64
	Fuels    []float64
	Dists    []float64
}

// Len returns the number of stored points.
func (c *Columns) Len() int { return len(c.PointIDs) }

// reset empties the columns, keeping capacity.
func (c *Columns) reset() {
	c.PointIDs = c.PointIDs[:0]
	c.TimesNs = c.TimesNs[:0]
	c.Xs = c.Xs[:0]
	c.Ys = c.Ys[:0]
	c.Speeds = c.Speeds[:0]
	c.Fuels = c.Fuels[:0]
	c.Dists = c.Dists[:0]
}

// extend grows every column by n rows (values unspecified) and returns
// the offset of the new block.
func (c *Columns) extend(n int) int {
	off := len(c.PointIDs)
	c.PointIDs = append(c.PointIDs, make([]int32, n)...)
	c.TimesNs = append(c.TimesNs, make([]int64, n)...)
	c.Xs = append(c.Xs, make([]float64, n)...)
	c.Ys = append(c.Ys, make([]float64, n)...)
	c.Speeds = append(c.Speeds, make([]float64, n)...)
	c.Fuels = append(c.Fuels, make([]float64, n)...)
	c.Dists = append(c.Dists, make([]float64, n)...)
	return off
}

// Arena is a per-car growable block of columnar point storage. It is
// not safe for concurrent use; use one arena per worker and Reset it
// between cars to reuse the capacity.
type Arena struct {
	Cols Columns
}

// NewArena returns an arena with capacity for n points (0 is fine).
func NewArena(n int) *Arena {
	a := &Arena{}
	if n > 0 {
		a.Cols.extend(n)
		a.Cols.reset()
	}
	return a
}

// Reset reclaims all rows. Every ColTrip previously issued from this
// arena becomes invalid.
func (a *Arena) Reset() { a.Cols.reset() }

// Len returns the number of rows currently in use.
func (a *Arena) Len() int { return a.Cols.Len() }

// Alloc reserves n rows (contents unspecified) and returns them as a
// view with the given identity. Kernels that compute a trip's points
// in place (cleaning's realignment, for example) write through the
// view's columns directly.
func (a *Arena) Alloc(id int64, carID, n int) ColTrip {
	off := a.Cols.extend(n)
	return ColTrip{ID: id, CarID: carID, Cols: &a.Cols, Off: off, N: n}
}

// Bounds on times representable in the int64-nanosecond column
// (roughly 1678..2262); the zero time.Time lies outside.
var (
	minColTime = time.Unix(0, math.MinInt64)
	maxColTime = time.Unix(0, math.MaxInt64)
)

// ErrUnrepresentable is wrapped by every AppendTrip refusal: the trip
// holds a point the columnar layout cannot store without information
// loss. The trace readers and the ingest decoders refuse such values,
// so only trips built in code reach it.
var ErrUnrepresentable = errors.New("trace: trip not representable in columns")

// AppendTrip copies a trip's points into the arena and returns the
// view. It fails with an error wrapping ErrUnrepresentable, leaving the
// arena unchanged, when the trip cannot be represented columnarly
// without information loss: a point id outside int32, a timestamp
// outside the nanosecond-representable window or not in UTC, or a
// point whose TripID disagrees with the trip (the columnar layout
// stores trip identity once, so a mismatch could not be reproduced
// when materialising).
func (a *Arena) AppendTrip(t *Trip) (ColTrip, error) {
	for i := range t.Points {
		p := &t.Points[i]
		if int64(int32(p.PointID)) != int64(p.PointID) {
			return ColTrip{}, fmt.Errorf("%w: trip %d point id %d overflows int32", ErrUnrepresentable, t.ID, p.PointID)
		}
		if p.Time.Before(minColTime) || p.Time.After(maxColTime) {
			return ColTrip{}, fmt.Errorf("%w: trip %d time %v outside the nanosecond range", ErrUnrepresentable, t.ID, p.Time)
		}
		if p.Time.Location() != time.UTC {
			return ColTrip{}, fmt.Errorf("%w: trip %d time %v not UTC", ErrUnrepresentable, t.ID, p.Time)
		}
		if p.TripID != t.ID {
			return ColTrip{}, fmt.Errorf("%w: trip %d contains a point of trip %d", ErrUnrepresentable, t.ID, p.TripID)
		}
	}
	v := a.Alloc(t.ID, t.CarID, len(t.Points))
	for i := range t.Points {
		p := &t.Points[i]
		j := v.Off + i
		v.Cols.PointIDs[j] = int32(p.PointID)
		v.Cols.TimesNs[j] = p.Time.UnixNano()
		v.Cols.Xs[j] = p.Pos.X
		v.Cols.Ys[j] = p.Pos.Y
		v.Cols.Speeds[j] = p.SpeedKmh
		v.Cols.Fuels[j] = p.FuelMl
		v.Cols.Dists[j] = p.DistM
	}
	return v, nil
}

// ColTrip is a trip-shaped view into an arena's columns: the rows
// [Off, Off+N). The zero value is an empty view.
type ColTrip struct {
	ID    int64
	CarID int
	Cols  *Columns
	Off   int
	N     int
}

// Len returns the number of points in the view.
func (v ColTrip) Len() int { return v.N }

// PointID returns point i's device sequence number.
func (v ColTrip) PointID(i int) int32 { return v.Cols.PointIDs[v.Off+i] }

// TimeNs returns point i's timestamp in unix nanoseconds.
func (v ColTrip) TimeNs(i int) int64 { return v.Cols.TimesNs[v.Off+i] }

// Time returns point i's timestamp.
func (v ColTrip) Time(i int) time.Time { return time.Unix(0, v.Cols.TimesNs[v.Off+i]).UTC() }

// Pos returns point i's projected position.
func (v ColTrip) Pos(i int) geo.XY { return geo.XY{X: v.Cols.Xs[v.Off+i], Y: v.Cols.Ys[v.Off+i]} }

// Speed returns point i's speed in km/h.
func (v ColTrip) Speed(i int) float64 { return v.Cols.Speeds[v.Off+i] }

// Fuel returns point i's cumulative fuel in millilitres.
func (v ColTrip) Fuel(i int) float64 { return v.Cols.Fuels[v.Off+i] }

// Dist returns point i's cumulative odometer distance in metres.
func (v ColTrip) Dist(i int) float64 { return v.Cols.Dists[v.Off+i] }

// Sub returns the zero-copy subview of points [i, j).
func (v ColTrip) Sub(i, j int) ColTrip {
	if i < 0 || j < i || j > v.N {
		panic(fmt.Sprintf("trace: ColTrip.Sub(%d, %d) out of range 0..%d", i, j, v.N))
	}
	return ColTrip{ID: v.ID, CarID: v.CarID, Cols: v.Cols, Off: v.Off + i, N: j - i}
}

// PathLength returns the sum of distances between consecutive points,
// floating-point-identical to PathLength over the materialised points.
func (v ColTrip) PathLength() float64 {
	var total float64
	for i := 1; i < v.N; i++ {
		total += v.Pos(i - 1).Dist(v.Pos(i))
	}
	return total
}

// Point materialises point i as a RoutePoint.
func (v ColTrip) Point(i int) RoutePoint {
	return RoutePoint{
		PointID:  int(v.PointID(i)),
		TripID:   v.ID,
		Pos:      v.Pos(i),
		Time:     v.Time(i),
		SpeedKmh: v.Speed(i),
		FuelMl:   v.Fuel(i),
		DistM:    v.DistM(i),
	}
}

// DistM is an alias of Dist kept close to the RoutePoint field name.
func (v ColTrip) DistM(i int) float64 { return v.Dist(i) }

// Materialize copies the view out into a standalone row-oriented Trip.
// timeSorted marks the result as being in non-decreasing time order
// (true for anything downstream of cleaning).
func (v ColTrip) Materialize(timeSorted bool) *Trip {
	t := &Trip{ID: v.ID, CarID: v.CarID, Points: v.appendPoints(make([]RoutePoint, 0, v.N))}
	if timeSorted {
		t.MarkTimeSorted()
	}
	return t
}

// appendPoints appends the view's points to dst.
func (v ColTrip) appendPoints(dst []RoutePoint) []RoutePoint {
	for i := 0; i < v.N; i++ {
		dst = append(dst, v.Point(i))
	}
	return dst
}

// MaterializeAll copies a batch of views into row-oriented trips
// backed by a single shared point slab (two allocations total plus one
// per trip header). timeSorted marks every result as time-ordered.
func MaterializeAll(views []ColTrip, timeSorted bool) []*Trip {
	total := 0
	for _, v := range views {
		total += v.N
	}
	slab := make([]RoutePoint, 0, total)
	trips := make([]Trip, len(views))
	out := make([]*Trip, len(views))
	for i, v := range views {
		start := len(slab)
		slab = v.appendPoints(slab)
		trips[i] = Trip{ID: v.ID, CarID: v.CarID, Points: slab[start:len(slab):len(slab)]}
		if timeSorted {
			trips[i].MarkTimeSorted()
		}
		out[i] = &trips[i]
	}
	return out
}
