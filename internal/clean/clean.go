// Package clean implements the paper's data-cleaning stage (§IV-B):
// repairing route-point ordering corrupted in transit and filtering the
// most obvious measurement errors.
//
// A trip's points carry two candidate orderings — device sequence id
// and timestamp — and transmission latency or device glitches can make
// them disagree. The paper's rule: sort the points both ways, compute
// the total trip distance under each ordering, and judge the shorter
// one correct (a wrong ordering makes the trajectory zigzag, which can
// only add length). All point properties are then realigned to the
// chosen sequence so that ids, timestamps and cumulative measurements
// increase monotonically.
package clean

import (
	"math"
	"sort"
	"time"

	"repro/internal/geo"
	"repro/internal/trace"
)

// Order identifies which candidate ordering the cleaner selected.
type Order int

// Ordering choices.
const (
	OrderByID Order = iota
	OrderByTime
)

// String returns the order name.
func (o Order) String() string {
	if o == OrderByTime {
		return "timestamp"
	}
	return "id"
}

// Config tunes the validity filters.
type Config struct {
	// MaxSpeedKmh drops points implying an impossible speed from their
	// predecessor (GPS spikes). Default 150.
	MaxSpeedKmh float64
	// Area drops points outside a plausible region when non-empty.
	Area geo.Rect
}

func (c Config) withDefaults() Config {
	// !(x > 0) rather than x <= 0: a NaN threshold must select the
	// default too, not silently disable the spike filter (every
	// "v > NaN" comparison is false). +Inf remains an explicit opt-out.
	if !(c.MaxSpeedKmh > 0) {
		c.MaxSpeedKmh = 150
	}
	return c
}

// DropStats breaks the dropped-point count down by removal reason —
// the cleaning stage's contribution to the pipeline's drop-reason
// lineage. The row and columnar cleaners attribute identically (the
// filters apply in the same precedence: finiteness, area, duplicate
// id, spike), so the differential tests hold field by field.
type DropStats struct {
	NonFinite   int `json:"non_finite"`   // NaN/Inf field or zero timestamp
	OutOfArea   int `json:"out_of_area"`  // outside the configured area
	DuplicateID int `json:"duplicate_id"` // repeated device sequence id
	Spike       int `json:"spike"`        // implied speed impossible
}

// Total sums the per-reason counts.
func (d DropStats) Total() int { return d.NonFinite + d.OutOfArea + d.DuplicateID + d.Spike }

// Merge adds o into d.
func (d *DropStats) Merge(o DropStats) {
	d.NonFinite += o.NonFinite
	d.OutOfArea += o.OutOfArea
	d.DuplicateID += o.DuplicateID
	d.Spike += o.Spike
}

// Result reports what cleaning did to one trip.
type Result struct {
	Trip         *trace.Trip // cleaned copy; nil when nothing survived
	ChosenOrder  Order
	LengthByID   float64   // trip length under id ordering, metres
	LengthByTime float64   // trip length under timestamp ordering, metres
	Reordered    bool      // arrival order differed from the chosen order
	Dropped      int       // points removed by validity filters (== Drops.Total())
	Drops        DropStats // the same count broken down by reason
}

// Repair cleans one trip. The input is not modified.
//
// Repair is idempotent: running it on its own output changes nothing
// (the differential tests rely on this). Idempotence is not automatic —
// realignment re-assigns the sorted timestamp multiset to the chosen
// point order, which can create point adjacencies whose implied speed
// exceeds MaxSpeedKmh even though every original adjacency passed the
// spike filter. Repair therefore re-runs the validity filter over the
// realigned result until a pass drops nothing (the count strictly
// decreases, so the loop terminates).
func Repair(t *trace.Trip, cfg Config) Result {
	cfg = cfg.withDefaults()
	var drops DropStats
	pts := filterValid(t.Points, cfg, &drops)
	if len(pts) == 0 {
		return Result{Dropped: drops.Total(), Drops: drops}
	}

	byID := append([]trace.RoutePoint(nil), pts...)
	sort.SliceStable(byID, func(i, j int) bool { return byID[i].PointID < byID[j].PointID })
	byTime := append([]trace.RoutePoint(nil), pts...)
	sort.SliceStable(byTime, func(i, j int) bool { return timeBefore(byTime[i], byTime[j]) })

	lenID := trace.PathLength(byID)
	lenTime := trace.PathLength(byTime)

	chosen := byID
	order := OrderByID
	if lenTime < lenID {
		chosen = byTime
		order = OrderByTime
	}

	reordered := false
	for i := range pts {
		if pts[i].PointID != chosen[i].PointID {
			reordered = true
			break
		}
	}

	// Fixpoint: realignment can surface new spikes (see the doc
	// comment); keep filtering + realigning until stable. After the
	// first realign both candidate orderings coincide with position
	// order, so the ordering decision is never revisited.
	cleaned := realign(chosen)
	for {
		again := filterValid(cleaned, cfg, &drops)
		if len(again) == len(cleaned) {
			break
		}
		if len(again) == 0 {
			return Result{
				ChosenOrder:  order,
				LengthByID:   lenID,
				LengthByTime: lenTime,
				Reordered:    reordered,
				Dropped:      drops.Total(),
				Drops:        drops,
			}
		}
		cleaned = realign(again)
	}

	out := t.Clone()
	out.Points = cleaned
	// Realignment assigned the sorted timestamp multiset along the
	// sequence, so the result is time-ordered by construction.
	out.MarkTimeSorted()
	return Result{
		Trip:         out,
		ChosenOrder:  order,
		LengthByID:   lenID,
		LengthByTime: lenTime,
		Reordered:    reordered,
		Dropped:      drops.Total(),
		Drops:        drops,
	}
}

// RepairAll cleans a batch. Every trip yields a Result — including
// trips with no surviving points (Trip == nil), whose drop counts
// would otherwise vanish from the lineage accounting. Use Trips to
// extract the survivors.
func RepairAll(trips []*trace.Trip, cfg Config) []Result {
	out := make([]Result, 0, len(trips))
	for _, t := range trips {
		out = append(out, Repair(t, cfg))
	}
	return out
}

// Trips extracts the cleaned trips from a batch of results.
func Trips(results []Result) []*trace.Trip {
	out := make([]*trace.Trip, 0, len(results))
	for _, r := range results {
		if r.Trip != nil {
			out = append(out, r.Trip)
		}
	}
	return out
}

// filterValid drops records with non-finite fields, out-of-area
// positions, duplicate point ids, and GPS spikes implying impossible
// speed, accumulating each removal's reason into drops.
func filterValid(pts []trace.RoutePoint, cfg Config, drops *DropStats) []trace.RoutePoint {
	seen := make(map[int]bool, len(pts))
	out := make([]trace.RoutePoint, 0, len(pts))
	for _, p := range pts {
		if !finite(p.Pos.X) || !finite(p.Pos.Y) || !finite(p.SpeedKmh) ||
			!finite(p.FuelMl) || !finite(p.DistM) || p.Time.IsZero() {
			drops.NonFinite++
			continue
		}
		if cfg.Area.Area() > 0 && !cfg.Area.Contains(p.Pos) {
			drops.OutOfArea++
			continue
		}
		if seen[p.PointID] {
			drops.DuplicateID++
			continue
		}
		seen[p.PointID] = true
		out = append(out, p)
	}
	if len(out) < 2 {
		return out
	}
	// Spike filter in timestamp order: a point requiring impossible
	// speed from its accepted predecessor is discarded.
	byTime := append([]trace.RoutePoint(nil), out...)
	sort.SliceStable(byTime, func(i, j int) bool { return timeBefore(byTime[i], byTime[j]) })
	bad := map[int]bool{}
	last := byTime[0]
	for _, p := range byTime[1:] {
		dt := p.Time.Sub(last.Time).Seconds()
		if dt > 0.5 {
			v := p.Pos.Dist(last.Pos) / dt * 3.6
			if v > cfg.MaxSpeedKmh {
				bad[p.PointID] = true
				continue // do not advance last: compare next to the anchor
			}
		}
		last = p
	}
	if len(bad) == 0 {
		return out
	}
	drops.Spike += len(bad)
	kept := out[:0]
	for _, p := range out {
		if !bad[p.PointID] {
			kept = append(kept, p)
		}
	}
	return kept
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// timeBefore orders points by timestamp, then point id, so the order of
// points that share a timestamp does not depend on their arrival order.
func timeBefore(a, b trace.RoutePoint) bool {
	if !a.Time.Equal(b.Time) {
		return a.Time.Before(b.Time)
	}
	return a.PointID < b.PointID
}

// realign rewrites the chosen sequence so every keyed property
// increases monotonically: point ids are renumbered 1..n and the
// timestamp and cumulative fuel/distance multisets are re-assigned in
// ascending order along the sequence.
func realign(pts []trace.RoutePoint) []trace.RoutePoint {
	n := len(pts)
	out := append([]trace.RoutePoint(nil), pts...)

	times := make([]int64, n)
	fuels := make([]float64, n)
	dists := make([]float64, n)
	for i, p := range pts {
		times[i] = p.Time.UnixMilli()
		fuels[i] = p.FuelMl
		dists[i] = p.DistM
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	sort.Float64s(fuels)
	sort.Float64s(dists)
	for i := range out {
		out[i].PointID = i + 1
		out[i].Time = time.UnixMilli(times[i]).UTC()
		out[i].FuelMl = fuels[i]
		out[i].DistM = dists[i]
	}
	return out
}
