package clean

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/trace"
)

// randomCorruptTrip builds a trip with the corruption modes cleaning
// exists to fix: arrival shuffles, duplicated ids, GPS spikes,
// non-finite fields, out-of-area points, timestamp ties and
// sub-millisecond noise.
func randomCorruptTrip(rng *rand.Rand, id int64) *trace.Trip {
	n := 2 + rng.Intn(30)
	tr := &trace.Trip{ID: id, CarID: 1 + rng.Intn(3)}
	for i := 0; i < n; i++ {
		p := trace.RoutePoint{
			PointID:  i + 1,
			TripID:   id,
			Pos:      geo.V(float64(i)*100+rng.Float64(), rng.Float64()*50),
			Time:     t0.Add(time.Duration(i)*30*time.Second + time.Duration(rng.Intn(1e6))*time.Nanosecond),
			SpeedKmh: rng.Float64() * 80,
			FuelMl:   float64(i) * 8,
			DistM:    float64(i) * 100,
		}
		switch rng.Intn(12) {
		case 0: // spike
			p.Pos = geo.V(p.Pos.X+1e6, p.Pos.Y)
		case 1: // duplicate id
			if i > 0 {
				p.PointID = 1 + rng.Intn(i)
			}
		case 2: // non-finite field
			switch rng.Intn(3) {
			case 0:
				p.Pos.X = math.NaN()
			case 1:
				p.SpeedKmh = math.Inf(1)
			case 2:
				p.FuelMl = math.NaN()
			}
		case 3: // timestamp tie with a neighbour
			if i > 0 {
				p.Time = tr.Points[i-1].Time
			}
		case 4: // timestamp glitch: far in the past of the trip
			p.Time = t0.Add(-time.Duration(rng.Intn(3600)) * time.Second)
		case 5: // way out of any plausible area
			p.Pos = geo.V(5e5, -5e5)
		}
		tr.Points = append(tr.Points, p)
	}
	rng.Shuffle(len(tr.Points), func(i, j int) {
		tr.Points[i], tr.Points[j] = tr.Points[j], tr.Points[i]
	})
	return tr
}

// TestRepairColumnsMatchesRepair is the kernel-level differential: over
// thousands of randomly corrupted trips and several configs, the
// production kernel must agree with the oracle bit for bit — points,
// order choice, and every stat.
func TestRepairColumnsMatchesRepair(t *testing.T) {
	cfgs := []Config{
		{},
		{MaxSpeedKmh: 1e9},
		{Area: geo.R(-100, -100, 4000, 100)},
		{MaxSpeedKmh: 40, Area: geo.R(-100, -100, 4000, 100)},
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		tr := randomCorruptTrip(rng, int64(i+1))
		if _, err := CheckedRepair(t, tr, cfgs[i%len(cfgs)]); err != nil {
			t.Fatalf("trip %d not columnar-representable: %v", tr.ID, err)
		}
	}
}

// TestRepairColumnsSharedArena: cleaning may append to the same arena
// that holds the raw view (the pipeline does), and multiple trips may
// share one arena and scratch.
func TestRepairColumnsSharedArena(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := trace.NewArena(0)
	var s Scratch
	var views []trace.ColTrip
	trips := make([]*trace.Trip, 8)
	for i := range trips {
		trips[i] = randomCorruptTrip(rng, int64(i+1))
		v, err := a.AppendTrip(trips[i])
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, v)
	}
	for i, v := range views {
		got := RepairColumns(v, Config{}, a, &s)
		want := Repair(trips[i], Config{})
		if (want.Trip == nil) != (got.Trip.N == 0) {
			t.Fatalf("trip %d survival diverges", i+1)
		}
		if want.Trip == nil {
			continue
		}
		mat := got.Trip.Materialize(true)
		for k := range want.Trip.Points {
			if mat.Points[k] != want.Trip.Points[k] {
				t.Fatalf("trip %d point %d diverges under shared arena", i+1, k)
			}
		}
	}
}

// TestRepairColumnsIdempotent: cleaning the kernel's own output, in the
// same arena, changes nothing.
func TestRepairColumnsIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := trace.NewArena(0)
	var s Scratch
	for i := 0; i < 200; i++ {
		a.Reset()
		tr := randomCorruptTrip(rng, int64(i+1))
		v, err := a.AppendTrip(tr)
		if err != nil {
			t.Fatal(err)
		}
		r1 := RepairColumns(v, Config{}, a, &s)
		if r1.Trip.N == 0 {
			continue
		}
		r2 := RepairColumns(r1.Trip, Config{}, a, &s)
		if r2.Trip.N != r1.Trip.N || r2.Dropped != 0 || r2.Reordered {
			t.Fatalf("not idempotent: first %+v, second %+v", r1, r2)
		}
		for k := 0; k < r1.Trip.N; k++ {
			if r1.Trip.Point(k) != r2.Trip.Point(k) {
				t.Fatalf("re-repair moved point %d", k)
			}
		}
	}
}
