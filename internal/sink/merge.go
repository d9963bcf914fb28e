package sink

import (
	"errors"
	"fmt"

	"repro/internal/grid"
	"repro/internal/stats"
)

// ErrFrameMismatch marks an attempt to merge snapshots aggregated on
// different analysis frames (grid area / cell size) or different gate
// registrations: their cell indexes and OD names would refer to
// different physical things, so combining them would silently corrupt
// the statistics — the grid-level analogue of obs.ErrLayoutMismatch.
var ErrFrameMismatch = errors.New("sink: snapshot analysis frames differ")

// sameFrame reports whether two grids describe the same analysis frame.
func sameFrame(a, b *grid.Grid) bool {
	return a.Area == b.Area && a.CellM == b.CellM
}

// sameGates reports whether two gate registrations are identical
// (order included — gate order is registration order on every worker
// running the shared config).
func sameGates(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// mergeCellStats folds two published cell aggregates with the Welford
// parallel-merge algebra (stats.Welford.Merge): the cell stats carry
// the full sufficient statistics (m2 = var·(n−1)), so the merged
// moments equal a single accumulator's over the union of observations
// up to float rounding.
func mergeCellStats(a, b CellStats) CellStats {
	w := welfordOfCell(a)
	w.Merge(welfordOfCell(b))
	out := CellStats{N: w.N(), MeanKmh: w.Mean()}
	if out.N >= 2 {
		out.VarKmh = w.Variance()
	}
	if out.N > 0 {
		out.MinKmh, out.MaxKmh = w.Min(), w.Max()
	}
	return out
}

func welfordOfCell(c CellStats) stats.Welford {
	if c.N <= 0 {
		return stats.Welford{}
	}
	return stats.WelfordFromState(stats.WelfordState{
		N: c.N, Mean: c.MeanKmh, M2: c.VarKmh * float64(c.N-1),
		Min: c.MinKmh, Max: c.MaxKmh,
	})
}

// mergeProfileStats folds two profile buckets of the same (edge, hour)
// key with the same sufficient-statistic algebra as mergeCellStats.
func mergeProfileStats(a, b EdgeProfileStats) EdgeProfileStats {
	w := welfordOfProfile(a)
	w.Merge(welfordOfProfile(b))
	out := EdgeProfileStats{N: w.N(), MeanSPerKm: w.Mean()}
	if out.N >= 2 {
		out.VarSPerKm = w.Variance()
	}
	if out.N > 0 {
		out.MinSPerKm, out.MaxSPerKm = w.Min(), w.Max()
	}
	return out
}

func welfordOfProfile(p EdgeProfileStats) stats.Welford {
	if p.N <= 0 {
		return stats.Welford{}
	}
	return stats.WelfordFromState(stats.WelfordState{
		N: p.N, Mean: p.MeanSPerKm, M2: p.VarSPerKm * float64(p.N-1),
		Min: p.MinSPerKm, Max: p.MaxSPerKm,
	})
}

// mergeMetricStats folds two metric summaries. MetricStats does not
// expose a variance, so M2 rides along as zero; count, mean and
// extrema combine with the same arithmetic Welford.Merge applies.
func mergeMetricStats(a, b MetricStats) MetricStats {
	w := welfordOfMetric(a)
	w.Merge(welfordOfMetric(b))
	m := MetricStats{N: w.N()}
	if m.N > 0 {
		m.Mean, m.Min, m.Max = w.Mean(), w.Min(), w.Max()
	}
	return m
}

func welfordOfMetric(m MetricStats) stats.Welford {
	if m.N <= 0 {
		return stats.Welford{}
	}
	return stats.WelfordFromState(stats.WelfordState{
		N: m.N, Mean: m.Mean, Min: m.Min, Max: m.Max,
	})
}

// mergeODStats folds two aggregates of the same direction. The frozen
// travel-time histograms merge bucket-exactly; a layout mismatch
// (obs.ErrLayoutMismatch) propagates — cross-layout counts are never
// combined.
func mergeODStats(a, b ODStats) (ODStats, error) {
	hist, err := a.TravelTimeS.Merge(b.TravelTimeS)
	if err != nil {
		return ODStats{}, fmt.Errorf("direction %s-%s: %w", a.From, a.To, err)
	}
	return ODStats{
		From: a.From, To: a.To,
		Trips:          a.Trips + b.Trips,
		TravelTimeS:    hist,
		DistKm:         mergeMetricStats(a.DistKm, b.DistKm),
		FuelMl:         mergeMetricStats(a.FuelMl, b.FuelMl),
		LowSpeedPct:    mergeMetricStats(a.LowSpeedPct, b.LowSpeedPct),
		NormalSpeedPct: mergeMetricStats(a.NormalSpeedPct, b.NormalSpeedPct),
		Attrs: AttrTotals{
			TrafficLights:       a.Attrs.TrafficLights + b.Attrs.TrafficLights,
			BusStops:            a.Attrs.BusStops + b.Attrs.BusStops,
			PedestrianCrossings: a.Attrs.PedestrianCrossings + b.Attrs.PedestrianCrossings,
			Junctions:           a.Attrs.Junctions + b.Attrs.Junctions,
		},
	}, nil
}

// MergeSnapshots combines cluster workers' partial snapshots into one
// fleet snapshot — the coordinator's core operation, and the only
// merge of aggregates: a single sink folds sequentially and publishes
// by freezing. The merge is commutative and associative up to float
// rounding (integer fields and histogram buckets exactly), and the
// empty snapshot is its identity, so the coordinator may fold partials
// in any arrival order.
//
// Validation: every pair of non-nil grids must describe the same frame
// and every pair of non-empty gate registrations must be identical
// (ErrFrameMismatch); histograms must share a bucket layout
// (obs.ErrLayoutMismatch, via the OD merge). The result carries:
// Epoch = max, Complete = AND over inputs (the fleet is sealed only
// when every partial is), PublishedAt = latest, counters summed.
//
// Nil snapshots are skipped; zero inputs yield the empty snapshot.
func MergeSnapshots(snaps ...*Snapshot) (*Snapshot, error) {
	out := &Snapshot{Complete: true}
	merged := 0
	for _, s := range snaps {
		if s == nil {
			continue
		}
		if s.Grid != nil {
			if out.Grid == nil {
				out.Grid = s.Grid
			} else if !sameFrame(out.Grid, s.Grid) {
				return nil, fmt.Errorf("%w: grid %+v cell %gm vs %+v cell %gm",
					ErrFrameMismatch, out.Grid.Area, out.Grid.CellM, s.Grid.Area, s.Grid.CellM)
			}
		}
		if len(s.Gates) > 0 {
			if len(out.Gates) == 0 {
				out.Gates = s.Gates
			} else if !sameGates(out.Gates, s.Gates) {
				return nil, fmt.Errorf("%w: gate registrations %v vs %v", ErrFrameMismatch, out.Gates, s.Gates)
			}
		}

		if s.Epoch > out.Epoch {
			out.Epoch = s.Epoch
		}
		if s.PublishedAt.After(out.PublishedAt) {
			out.PublishedAt = s.PublishedAt
		}
		out.CarsIngested += s.CarsIngested
		out.CarsFailed += s.CarsFailed
		out.Points += s.Points
		out.Complete = out.Complete && s.Complete

		for id, c := range s.Cells {
			if out.Cells == nil {
				out.Cells = make(map[grid.CellID]CellStats, len(s.Cells))
			}
			if prev, ok := out.Cells[id]; ok {
				out.Cells[id] = mergeCellStats(prev, c)
			} else {
				out.Cells[id] = c
			}
		}
		for key, ps := range s.EdgeProfiles {
			if out.EdgeProfiles == nil {
				out.EdgeProfiles = make(map[EdgeProfileKey]EdgeProfileStats, len(s.EdgeProfiles))
			}
			if prev, ok := out.EdgeProfiles[key]; ok {
				out.EdgeProfiles[key] = mergeProfileStats(prev, ps)
			} else {
				out.EdgeProfiles[key] = ps
			}
		}
		for key, od := range s.OD {
			if out.OD == nil {
				out.OD = make(map[ODKey]ODStats, len(s.OD))
			}
			if prev, ok := out.OD[key]; ok {
				m, err := mergeODStats(prev, od)
				if err != nil {
					return nil, err
				}
				out.OD[key] = m
			} else {
				out.OD[key] = od
			}
		}
		merged++
	}
	if merged == 0 {
		out.Complete = false
	}
	return out, nil
}
