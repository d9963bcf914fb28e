package segment

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/trace"
)

// randomCleanedTrip builds a time-ordered trip shaped like cleaning
// output, with still periods, slow crawls and long gaps sprinkled in so
// every Table 2 rule fires across the population.
func randomCleanedTrip(rng *rand.Rand, id int64) *trace.Trip {
	tr := &trace.Trip{ID: id, CarID: 1}
	x, y := 0.0, 0.0
	at := time.Date(2012, 10, 1, 8, 0, 0, 0, time.UTC).Add(time.Duration(id) * time.Hour)
	n := 2 + rng.Intn(60)
	for i := 0; i < n; i++ {
		switch rng.Intn(8) {
		case 0: // still period (rule 1 / resplit rule 5 material)
			at = at.Add(time.Duration(1+rng.Intn(8)) * time.Minute)
			x += rng.Float64() * 5
		case 1: // long gap with little movement (rules 2 and 4)
			at = at.Add(time.Duration(5+rng.Intn(20)) * time.Minute)
			x += rng.Float64() * 2000
		case 2: // crawl (rule 3)
			at = at.Add(30 * time.Minute)
			x += 0.001
		case 3: // zero-duration pair
			x += 100
		default: // normal driving
			at = at.Add(time.Duration(10+rng.Intn(50)) * time.Second)
			x += 100 + rng.Float64()*400
			y += rng.Float64() * 50
		}
		tr.Points = append(tr.Points, trace.RoutePoint{
			PointID:  i + 1,
			TripID:   id,
			Pos:      geo.V(x, y),
			Time:     at,
			SpeedKmh: rng.Float64() * 60,
			FuelMl:   float64(i) * 8,
			DistM:    float64(i) * 100,
		})
	}
	tr.MarkTimeSorted()
	return tr
}

// TestSplitColumnsMatchesSplit: over thousands of random cleaned
// trips, the production kernel must produce the same segments — same
// membership, same point values — and the same Stats as the oracle.
func TestSplitColumnsMatchesSplit(t *testing.T) {
	rules := DefaultRules()
	loose := DefaultRules()
	loose.MinPoints = 2
	loose.ResplitLengthM = 5000
	loose.MaxLengthM = 100_000
	rng := rand.New(rand.NewSource(19))
	a := trace.NewArena(0)
	for i := 0; i < 3000; i++ {
		r := rules
		if i%2 == 1 {
			r = loose
		}
		tr := randomCleanedTrip(rng, int64(i+1))
		a.Reset()
		v, err := a.AppendTrip(tr)
		if err != nil {
			t.Fatal(err)
		}
		var stats Stats
		CheckedSplit(t, v, r, &stats)
	}
}

// TestSplitColumnsAppendsToOut: the out parameter and the Stats
// accumulate across calls, the pattern the pipeline uses for a car's
// whole trip list.
func TestSplitColumnsAppendsToOut(t *testing.T) {
	const trips = 5
	rules := DefaultRules()
	rules.MinPoints = 2
	rng := rand.New(rand.NewSource(23))
	a := trace.NewArena(0)
	var out []trace.ColTrip
	var stats Stats
	wantTotal := 0
	for i := 0; i < trips; i++ {
		tr := randomCleanedTrip(rng, int64(i+1))
		wantTotal += len(Split(tr, rules, nil))
		v, err := a.AppendTrip(tr)
		if err != nil {
			t.Fatal(err)
		}
		out = SplitColumns(v, rules, &stats, out)
	}
	if len(out) != wantTotal {
		t.Fatalf("accumulated %d segments, want %d", len(out), wantTotal)
	}
	if stats.InputTrips != trips || stats.KeptSegments != len(out) || !(stats.TotalKeptLength > 0) {
		t.Fatalf("stats over %d trips and %d kept segments: %+v", trips, len(out), stats)
	}
}
