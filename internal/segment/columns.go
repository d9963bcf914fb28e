package segment

import "repro/internal/trace"

// SplitColumns segments one cleaned trip; it is the stage's one
// kernel. Points must already be in true order (package clean
// guarantees this). It appends the kept segments to out as zero-copy
// subviews of v. They share the source trip's ID; the paper's key of
// trip id and start time keeps them distinct.
//
// The tests hold SplitColumns to the row-oriented oracle Split
// (oracle_test.go): the same segments, point for point, and the same
// Stats, which is why its rule expressions keep the oracle's shapes.
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

// splitOnceCols breaks the view at every detected stop, appending the
// pieces to segs. Rule 1 (and its rule 5 variant on the re-split
// round) is a *window* rule: the device keeps emitting heartbeat
// points while the taxi stands, so stillness must be detected over
// runs of points that stay within MoveEpsilonM, not over single gaps.
// Rules 2-4 act on single inter-point gaps.
//
// At a still-run stop the segment ends at the run's first point (the
// arrival) and the next segment starts at the run's last point (the
// departure); the heartbeat points strictly inside the stop are
// discarded (counted in Stats.DroppedStopPoints).
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
		if j > i && v.TimeSub(j, i) >= stillGap {
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

// pairRuleCols returns the rule (2, 3 or 4) classifying the gap
// between points a and b of a view as a stop, or 0.
func pairRuleCols(v trace.ColTrip, a, b int, rules Rules) int {
	dt := v.TimeSub(b, a)
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
