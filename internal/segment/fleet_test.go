package segment_test

import (
	"testing"

	"repro/internal/clean"
	"repro/internal/digiroad"
	"repro/internal/roadnet"
	"repro/internal/segment"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// TestSplitColumnsMatchesSplitOnFleet is the fleet-scale half of the
// segmentation differential: every raw trip of the determinism fleet
// is cleaned by the production kernel, as the stage driver does, and
// SplitColumns over the cleaned view must agree with the oracle Split
// over its materialised rows — the same Stats and bit-identical
// segments (CheckedSplit). clean's TestRepairColumnsMatchesRepairOnFleet
// proves that cleaned output equal to the cleaning oracle's.
func TestSplitColumnsMatchesSplitOnFleet(t *testing.T) {
	gen := determinismFleet(t)
	rules := segment.DefaultRules()
	arena := trace.NewArena(0)
	var sc clean.Scratch
	var trips, segs int
	for car := 1; car <= gen.Cars(); car++ {
		for _, raw := range gen.CarTrips(car) {
			trips++
			arena.Reset()
			v, err := arena.AppendTrip(raw)
			if err != nil {
				t.Fatalf("car %d trip %d: %v", car, raw.ID, err)
			}
			cleaned := clean.RepairColumns(v, clean.Config{}, arena, &sc)
			if cleaned.Trip.N == 0 {
				continue
			}
			var stats segment.Stats
			segs += len(segment.CheckedSplit(t, cleaned.Trip, rules, &stats))
		}
	}
	if segs == 0 {
		t.Fatalf("degenerate fleet: %d trips, no segments", trips)
	}
}

// determinismFleet builds the fleet of core's determinism test: the
// seed-42 city and 3 cars × 8 trips with a gate-run fraction of 0.35.
func determinismFleet(t *testing.T) *tracegen.Generator {
	t.Helper()
	city := digiroad.SynthesizeOulu(digiroad.SynthConfig{Seed: 42})
	graph, err := roadnet.Build(city.DB)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := tracegen.New(city, graph, tracegen.Config{
		Seed: 42, Cars: 3, TripsPerCar: 8, GateRunFraction: 0.35,
	})
	if err != nil {
		t.Fatal(err)
	}
	return gen
}
