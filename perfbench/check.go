package main

import (
	"fmt"
	"math"

	"repro/internal/sink"
)

// feq compares floats to within accumulation-order rounding: two sinks
// fold the same transitions into Welford accumulators in different
// orders.
func feq(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// compareSnapshots applies the rule of the repository's streamed-vs-batch
// differential test: integer counts, extrema and histogram buckets match
// exactly, floating-point moments to within accumulation-order rounding.
// It returns the first difference found.
func compareSnapshots(got, want *sink.Snapshot) error {
	if got.Complete != want.Complete {
		return fmt.Errorf("complete = %v, want %v", got.Complete, want.Complete)
	}
	if got.CarsIngested != want.CarsIngested || got.CarsFailed != want.CarsFailed {
		return fmt.Errorf("cars = %d/%d, want %d/%d", got.CarsIngested, got.CarsFailed, want.CarsIngested, want.CarsFailed)
	}
	if got.Points != want.Points {
		return fmt.Errorf("points = %d, want %d", got.Points, want.Points)
	}
	if len(got.Cells) != len(want.Cells) {
		return fmt.Errorf("cells = %d, want %d", len(got.Cells), len(want.Cells))
	}
	for id, wc := range want.Cells {
		gc, ok := got.Cells[id]
		switch {
		case !ok:
			return fmt.Errorf("cell %v missing", id)
		case gc.N != wc.N || gc.MinKmh != wc.MinKmh || gc.MaxKmh != wc.MaxKmh:
			return fmt.Errorf("cell %v: n/min/max %d/%g/%g, want %d/%g/%g", id, gc.N, gc.MinKmh, gc.MaxKmh, wc.N, wc.MinKmh, wc.MaxKmh)
		case !feq(gc.MeanKmh, wc.MeanKmh) || !feq(gc.VarKmh, wc.VarKmh):
			return fmt.Errorf("cell %v: mean/var %g/%g, want %g/%g", id, gc.MeanKmh, gc.VarKmh, wc.MeanKmh, wc.VarKmh)
		}
	}
	if len(got.OD) != len(want.OD) {
		return fmt.Errorf("directions = %v, want %v", got.Directions(), want.Directions())
	}
	for dir, wo := range want.OD {
		g, ok := got.OD[dir]
		if !ok {
			return fmt.Errorf("direction %s missing", dir)
		}
		if g.Trips != wo.Trips || g.Attrs != wo.Attrs {
			return fmt.Errorf("%s: trips %d attrs %+v, want %d %+v", dir, g.Trips, g.Attrs, wo.Trips, wo.Attrs)
		}
		if !g.TravelTimeS.Equal(wo.TravelTimeS) {
			return fmt.Errorf("%s: travel-time histogram differs", dir)
		}
		for _, m := range [][2]sink.MetricStats{
			{g.DistKm, wo.DistKm}, {g.FuelMl, wo.FuelMl},
			{g.LowSpeedPct, wo.LowSpeedPct}, {g.NormalSpeedPct, wo.NormalSpeedPct},
		} {
			if m[0].N != m[1].N || m[0].Min != m[1].Min || m[0].Max != m[1].Max || !feq(m[0].Mean, m[1].Mean) {
				return fmt.Errorf("%s: metric %+v, want %+v", dir, m[0], m[1])
			}
		}
	}
	if len(got.EdgeProfiles) != len(want.EdgeProfiles) {
		return fmt.Errorf("edge profiles = %d, want %d", len(got.EdgeProfiles), len(want.EdgeProfiles))
	}
	for key, wp := range want.EdgeProfiles {
		gp, ok := got.EdgeProfiles[key]
		if !ok {
			return fmt.Errorf("edge profile %+v missing", key)
		}
		if gp.N != wp.N || gp.MinSPerKm != wp.MinSPerKm || gp.MaxSPerKm != wp.MaxSPerKm ||
			!feq(gp.MeanSPerKm, wp.MeanSPerKm) || !feq(gp.VarSPerKm, wp.VarSPerKm) {
			return fmt.Errorf("edge profile %+v: %+v, want %+v", key, gp, wp)
		}
	}
	return nil
}

// odTrips sums the transition count over every direction of a snapshot.
func odTrips(s *sink.Snapshot) int {
	n := 0
	for _, od := range s.OD {
		n += od.Trips
	}
	return n
}
