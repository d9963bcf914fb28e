package clean_test

import (
	"testing"

	"repro/internal/clean"
	"repro/internal/digiroad"
	"repro/internal/roadnet"
	"repro/internal/tracegen"
)

// TestRepairColumnsMatchesRepairOnFleet is the fleet-scale half of the
// cleaning differential: every raw trip of the determinism fleet must
// be representable in columns, and RepairColumns must agree with the
// oracle Repair on it bit for bit — the cleaning decision and lengths,
// every drop count and every point field (CheckedRepair). The
// segmentation half, segment's TestSplitColumnsMatchesSplitOnFleet,
// carries on from the production output.
func TestRepairColumnsMatchesRepairOnFleet(t *testing.T) {
	gen := determinismFleet(t)
	var trips, reordered int
	for car := 1; car <= gen.Cars(); car++ {
		for _, raw := range gen.CarTrips(car) {
			trips++
			r, err := clean.CheckedRepair(t, raw, clean.Config{})
			if err != nil {
				t.Fatalf("car %d trip %d: %v", car, raw.ID, err)
			}
			if r.Reordered {
				reordered++
			}
		}
	}
	if reordered == 0 {
		t.Fatalf("degenerate fleet: %d trips, none reordered", trips)
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
