package clean

// The row-oriented reference implementation of RepairColumns, kept for
// the tests alone. It works on copied RoutePoint slices with maps and
// sort.SliceStable, the paper's §IV-B steps written as plainly as
// possible; the production kernel must agree with it bit for bit.
// The external test package (clean_test) reaches Repair, Result and
// CheckedRepair too, since this file belongs to package clean.

import (
	"math"
	"sort"
	"testing"
	"time"

	"repro/internal/trace"
)

// Result is the oracle's ColResult: what cleaning did to one trip.
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
// Repair is idempotent: running it on its own output changes nothing.
// Idempotence is not automatic — realignment re-assigns the sorted
// timestamp multiset to the chosen point order, which can create point
// adjacencies whose implied speed exceeds MaxSpeedKmh even though every
// original adjacency passed the spike filter. Repair therefore re-runs
// the validity filter over the realigned result until a pass drops
// nothing (the count strictly decreases, so the loop terminates).
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

// CheckedRepair cleans tr twice, with RepairColumns over an arena copy
// and with the oracle Repair, and fails t unless the two agree: the
// same ordering choice, lengths and drop counts, and bit-identical
// points. It returns the production result. When the arena refuses tr
// it runs neither kernel and returns the arena's error, which wraps
// trace.ErrUnrepresentable.
func CheckedRepair(t testing.TB, tr *trace.Trip, cfg Config) (ColResult, error) {
	t.Helper()
	a := trace.NewArena(len(tr.Points))
	v, err := a.AppendTrip(tr)
	if err != nil {
		return ColResult{}, err
	}
	var s Scratch
	got := RepairColumns(v, cfg, a, &s)
	want := Repair(tr, cfg)
	if got.ChosenOrder != want.ChosenOrder || got.Reordered != want.Reordered ||
		got.Dropped != want.Dropped || got.Drops != want.Drops ||
		math.Float64bits(got.LengthByID) != math.Float64bits(want.LengthByID) ||
		math.Float64bits(got.LengthByTime) != math.Float64bits(want.LengthByTime) {
		t.Fatalf("trip %d stats diverge:\nproduction %+v\noracle     %+v", tr.ID, got, want)
	}
	if got.Drops.Total() != got.Dropped {
		t.Fatalf("trip %d: Drops %+v does not sum to Dropped %d", tr.ID, got.Drops, got.Dropped)
	}
	if want.Trip == nil {
		if got.Trip.N != 0 {
			t.Fatalf("trip %d: the oracle kept nothing, production kept %d points", tr.ID, got.Trip.N)
		}
		return got, nil
	}
	assertTripsBitIdentical(t, "clean", []*trace.Trip{want.Trip}, []*trace.Trip{got.Trip.Materialize(true)})
	return got, nil
}

// assertTripsBitIdentical requires two trip lists to agree in identity
// and in every point field, floats bit for bit.
func assertTripsBitIdentical(t testing.TB, stage string, want, got []*trace.Trip) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d oracle trips, %d production", stage, len(want), len(got))
	}
	for i, w := range want {
		g := got[i]
		if w.ID != g.ID || w.CarID != g.CarID || len(w.Points) != len(g.Points) {
			t.Fatalf("%s: trip %d/%d (%d points) vs %d/%d (%d points)",
				stage, w.CarID, w.ID, len(w.Points), g.CarID, g.ID, len(g.Points))
		}
		for j := range w.Points {
			a, b := &w.Points[j], &g.Points[j]
			if a.PointID != b.PointID || a.TripID != b.TripID || !a.Time.Equal(b.Time) ||
				a.Time.Location() != b.Time.Location() ||
				math.Float64bits(a.Pos.X) != math.Float64bits(b.Pos.X) ||
				math.Float64bits(a.Pos.Y) != math.Float64bits(b.Pos.Y) ||
				math.Float64bits(a.SpeedKmh) != math.Float64bits(b.SpeedKmh) ||
				math.Float64bits(a.FuelMl) != math.Float64bits(b.FuelMl) ||
				math.Float64bits(a.DistM) != math.Float64bits(b.DistM) {
				t.Fatalf("%s: trip %d point %d: oracle %+v, production %+v", stage, w.ID, j, *a, *b)
			}
		}
	}
}
