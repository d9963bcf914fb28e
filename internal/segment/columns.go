package segment

import (
	"math"
	"time"

	"repro/internal/trace"
)

// Columnar mirror of Split: the same Table 2 rules over an
// arena-backed view, with segments returned as zero-copy subviews
// instead of copied point slices. The rule expressions reuse the
// row-oriented shapes exactly, so a segment's membership — and every
// Stats counter — is identical between the two kernels.

// subNsSeg returns a-b as a Duration with time.Time.Sub's saturation.
func subNsSeg(a, b int64) time.Duration {
	d := a - b
	switch {
	case a > b && d < 0:
		return time.Duration(math.MaxInt64)
	case a < b && d >= 0:
		return time.Duration(math.MinInt64)
	}
	return time.Duration(d)
}

// SplitColumns segments one cleaned columnar trip, appending the kept
// segment views to out.
func SplitColumns(v trace.ColTrip, rules Rules, stats *Stats, out []trace.ColTrip) []trace.ColTrip {
	if stats != nil {
		stats.InputTrips++
	}
	segs := splitOnceCols(v, rules, false, stats, nil)

	// Rule 5: second round over segments that remain implausibly long.
	var kept []trace.ColTrip
	for _, s := range segs {
		if s.PathLength() > rules.ResplitLengthM {
			if stats != nil {
				stats.Resplit++
			}
			kept = splitOnceCols(s, rules, true, stats, kept)
			continue
		}
		kept = append(kept, s)
	}

	// Post-filters.
	for _, s := range kept {
		if stats != nil {
			stats.RawSegments++
		}
		n := s.Len()
		length := s.PathLength()
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
			out = append(out, s)
			if stats != nil {
				stats.KeptSegments++
				stats.TotalKeptLength += length
			}
		}
	}
	return out
}

// splitOnceCols mirrors splitOnce over a view, appending segments to
// segs.
func splitOnceCols(v trace.ColTrip, rules Rules, resplit bool, stats *Stats, segs []trace.ColTrip) []trace.ColTrip {
	n := v.Len()
	if n == 0 {
		return segs
	}
	stillGap := rules.StillGap
	stillRule := 1
	if resplit {
		stillGap = rules.ResplitGap
		stillRule = 5
	}
	start := 0
	emit := func(end, next, rule int) {
		if stats != nil {
			stats.StopGapsByRule[rule-1]++
			stats.DroppedStopPoints += next - end - 1
		}
		segs = append(segs, v.Sub(start, end+1))
		start = next
	}
	i := 0
	for i < n-1 {
		// Maximal still-run anchored at point i.
		j := i
		for j+1 < n && v.Pos(j+1).Dist(v.Pos(i)) < rules.MoveEpsilonM {
			j++
		}
		if j > i && subNsSeg(v.TimeNs(j), v.TimeNs(i)) >= stillGap {
			emit(i, j, stillRule)
			i = j
			continue
		}
		if !resplit {
			if r := pairRuleCols(v, i, i+1, rules); r != 0 {
				emit(i, i+1, r)
			}
		}
		i++
	}
	return append(segs, v.Sub(start, n))
}

// pairRuleCols mirrors pairRule for points a, b of a view.
func pairRuleCols(v trace.ColTrip, a, b int, rules Rules) int {
	dt := subNsSeg(v.TimeNs(b), v.TimeNs(a))
	if dt <= 0 {
		return 0
	}
	dd := v.Pos(a).Dist(v.Pos(b))
	sp := dd / dt.Seconds()
	switch {
	case dd < rules.SlowDistM && dt > rules.LongGap && sp > rules.CrawlSpeedMS:
		return 4
	case dd < rules.SlowDistM && dt > rules.SlowGap:
		return 2
	case sp < rules.CrawlSpeedMS:
		return 3
	default:
		return 0
	}
}
