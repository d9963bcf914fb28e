package odselect_test

import (
	"math"
	"testing"

	"repro/internal/clean"
	"repro/internal/core"
	"repro/internal/segment"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// TestRunViewsMatchesRunOnFleet: over every car of the seed-42 fleet,
// cleaned and segmented by the production kernels, RunViews on the
// segment views gives Run's funnel on their rows and the same accepted
// transitions: gates, direction, both crossings, and a Seg whose
// identity, time-sorted mark and points are bit for bit the rows Run
// classified.
func TestRunViewsMatchesRunOnFleet(t *testing.T) {
	p, err := core.NewPipeline(core.Config{
		CitySeed: 42,
		Fleet:    tracegen.Config{Seed: 42, Cars: 16, TripsPerCar: 8, GateRunFraction: 0.35},
	})
	if err != nil {
		t.Fatal(err)
	}
	arena := trace.NewArena(0)
	var sc clean.Scratch
	var segs, accepted int
	for car := 1; car <= p.Gen.Cars(); car++ {
		arena.Reset()
		var stats segment.Stats
		var views []trace.ColTrip
		for _, raw := range p.Gen.CarTrips(car) {
			v, err := arena.AppendTrip(raw)
			if err != nil {
				t.Fatalf("car %d trip %d: %v", car, raw.ID, err)
			}
			if r := clean.RepairColumns(v, p.Config.Clean, arena, &sc); r.Trip.N > 0 {
				views = segment.SplitColumns(r.Trip, p.Rules, &stats, views)
			}
		}
		rows := trace.MaterializeAll(views, true)
		wantF, want := p.Selector.Run(car, rows)
		gotF, got := p.Selector.RunViews(car, views)
		if gotF != wantF {
			t.Fatalf("car %d: funnel %+v, rows %+v", car, gotF, wantF)
		}
		if len(got) != len(want) {
			t.Fatalf("car %d: %d accepted, rows %d", car, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.From != w.From || g.To != w.To || g.Direction != w.Direction ||
				g.FromCross != w.FromCross || g.ToCross != w.ToCross {
				t.Fatalf("car %d transition %d: %+v, rows %+v", car, i, *g, *w)
			}
			sameTrip(t, g.Seg, w.Seg)
		}
		segs += len(views)
		accepted += len(want)
	}
	t.Logf("%d segments, %d accepted", segs, accepted)
	if accepted == 0 {
		t.Fatal("degenerate fleet: no accepted transition")
	}
}

// sameTrip requires two segment trips to be identical, floats compared
// by their bits.
func sameTrip(t *testing.T, got, want *trace.Trip) {
	t.Helper()
	if got.ID != want.ID || got.CarID != want.CarID || got.TimeSorted() != want.TimeSorted() ||
		len(got.Points) != len(want.Points) {
		t.Fatalf("segment trip %d car %d (%d points, sorted %v), rows trip %d car %d (%d points, sorted %v)",
			got.ID, got.CarID, len(got.Points), got.TimeSorted(), want.ID, want.CarID, len(want.Points), want.TimeSorted())
	}
	bits := math.Float64bits
	for i, w := range want.Points {
		g := got.Points[i]
		if g.PointID != w.PointID || g.TripID != w.TripID || !g.Time.Equal(w.Time) || g.Time.Location() != w.Time.Location() ||
			bits(g.Pos.X) != bits(w.Pos.X) || bits(g.Pos.Y) != bits(w.Pos.Y) || bits(g.SpeedKmh) != bits(w.SpeedKmh) ||
			bits(g.FuelMl) != bits(w.FuelMl) || bits(g.DistM) != bits(w.DistM) {
			t.Fatalf("trip %d point %d: %+v, rows %+v", want.ID, i, g, w)
		}
	}
}
