package segment

// The row-oriented reference implementation of SplitColumns, kept for
// the tests alone. It copies every segment into a fresh trip and
// measures gaps with time.Time arithmetic; the production kernel must
// agree with it point for point. The external test package
// (segment_test) reaches Split and CheckedSplit too, since this file
// belongs to package segment.

import (
	"math"
	"testing"

	"repro/internal/trace"
)

// Split segments one cleaned trip into copied segment trips, as
// SplitColumns does into subviews.
func Split(t *trace.Trip, rules Rules, stats *Stats) []*trace.Trip {
	if stats != nil {
		stats.InputTrips++
	}
	segs := splitOnce(t, rules, false, stats)

	// Rule 5: second round over segments that remain implausibly long.
	var out []*trace.Trip
	for _, s := range segs {
		if trace.PathLength(s.Points) > rules.ResplitLengthM {
			if stats != nil {
				stats.Resplit++
			}
			out = append(out, splitOnce(s, rules, true, stats)...)
			continue
		}
		out = append(out, s)
	}

	// Post-filters.
	kept := out[:0]
	for _, s := range out {
		if stats != nil {
			stats.RawSegments++
		}
		n := len(s.Points)
		length := trace.PathLength(s.Points)
		switch {
		case n < rules.MinPoints:
			if stats != nil {
				stats.TooFewPoints++
			}
		case length > rules.MaxLengthM:
			if stats != nil {
				stats.TooLong++
			}
		default:
			kept = append(kept, s)
			if stats != nil {
				stats.KeptSegments++
				stats.TotalKeptLength += length
			}
		}
	}
	return kept
}

// splitOnce breaks the trip at every detected stop, with
// splitOnceCols's window rule 1 (rule 5 on the re-split round) and gap
// rules 2-4.
func splitOnce(t *trace.Trip, rules Rules, resplit bool, stats *Stats) []*trace.Trip {
	pts := t.Points
	if len(pts) == 0 {
		return nil
	}
	type cut struct {
		end  int // last index of the finished segment (inclusive)
		next int // first index of the following segment
		rule int // 1-based rule number
	}
	var cuts []cut

	stillGap := rules.StillGap
	stillRule := 1
	if resplit {
		stillGap = rules.ResplitGap
		stillRule = 5
	}
	i := 0
	for i < len(pts)-1 {
		// Maximal still-run anchored at point i.
		j := i
		for j+1 < len(pts) && pts[j+1].Pos.Dist(pts[i].Pos) < rules.MoveEpsilonM {
			j++
		}
		if j > i && pts[j].Time.Sub(pts[i].Time) >= stillGap {
			cuts = append(cuts, cut{end: i, next: j, rule: stillRule})
			i = j
			continue
		}
		if !resplit {
			if r := pairRule(&pts[i], &pts[i+1], rules); r != 0 {
				cuts = append(cuts, cut{end: i, next: i + 1, rule: r})
			}
		}
		i++
	}

	var segs []*trace.Trip
	start := 0
	for _, c := range cuts {
		if stats != nil {
			stats.StopGapsByRule[c.rule-1]++
			stats.DroppedStopPoints += c.next - c.end - 1
		}
		segs = append(segs, subTrip(t, start, c.end+1))
		start = c.next
	}
	segs = append(segs, subTrip(t, start, len(pts)))
	return segs
}

// pairRule returns the rule (2, 3 or 4) classifying a single
// inter-point gap as a stop, or 0, like pairRuleCols.
func pairRule(a, b *trace.RoutePoint, rules Rules) int {
	dt := b.Time.Sub(a.Time)
	if dt <= 0 {
		return 0
	}
	dd := a.Pos.Dist(b.Pos)
	v := dd / dt.Seconds()
	switch {
	case dd < rules.SlowDistM && dt > rules.LongGap && v > rules.CrawlSpeedMS:
		return 4
	case dd < rules.SlowDistM && dt > rules.SlowGap:
		return 2
	case v < rules.CrawlSpeedMS:
		return 3
	default:
		return 0
	}
}

// subTrip copies points [i, j) into a fresh segment trip.
func subTrip(t *trace.Trip, i, j int) *trace.Trip {
	out := &trace.Trip{ID: t.ID, CarID: t.CarID}
	out.Points = append([]trace.RoutePoint(nil), t.Points[i:j]...)
	if t.TimeSorted() {
		// A contiguous slice of a time-ordered trip stays ordered.
		out.MarkTimeSorted()
	}
	return out
}

// CheckedSplit segments v twice, with SplitColumns and with the oracle
// Split over v's materialised rows, and fails t unless the two give
// the same Stats (the kept length bit for bit) and the same segments,
// every point field bit for bit. Like the kernels, it adds into stats
// when stats is non-nil, and leaves the counting out when it is nil. It
// returns the production segments.
func CheckedSplit(t testing.TB, v trace.ColTrip, rules Rules, stats *Stats) []trace.ColTrip {
	t.Helper()
	var want, got *Stats
	if stats != nil {
		w, g := *stats, *stats
		want, got = &w, &g
	}
	rows := Split(v.Materialize(false), rules, want)
	views := SplitColumns(v, rules, got, nil)
	if stats != nil {
		if math.Float64bits(want.TotalKeptLength) != math.Float64bits(got.TotalKeptLength) {
			t.Fatalf("trip %d: kept length: oracle %v, production %v", v.ID, want.TotalKeptLength, got.TotalKeptLength)
		}
		if *want != *got {
			t.Fatalf("trip %d stats diverge:\nproduction %+v\noracle     %+v", v.ID, *got, *want)
		}
		*stats = *got
	}
	assertTripsBitIdentical(t, "segment", rows, trace.MaterializeAll(views, false))
	return views
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
