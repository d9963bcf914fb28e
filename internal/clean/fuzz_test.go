package clean

import (
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/trace"
)

// FuzzRepair: arbitrary point metadata must never panic the cleaner.
// Every input runs through RepairColumns and the oracle Repair (the
// helper repair), which must agree bit for bit, and the production
// output (when any) must satisfy the monotonicity contract.
func FuzzRepair(f *testing.F) {
	f.Add(int64(1), uint8(5), false)
	f.Add(int64(99), uint8(0), true)
	f.Add(int64(-7), uint8(40), true)

	f.Fuzz(func(t *testing.T, seed int64, n uint8, scramble bool) {
		tr := &trace.Trip{ID: 1, CarID: 1}
		s := seed
		next := func() int64 {
			// xorshift; deterministic per seed, fine for fuzzing shapes.
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			return s
		}
		for i := 0; i < int(n); i++ {
			id := i + 1
			ts := t0.Add(time.Duration(i) * 10 * time.Second)
			if scramble {
				id = int(next() % 50)
				ts = t0.Add(time.Duration(next()%100000) * time.Millisecond)
			}
			tr.Points = append(tr.Points, trace.RoutePoint{
				PointID: id, TripID: 1,
				Pos:      geo.V(float64(next()%10000), float64(next()%10000)),
				Time:     ts,
				SpeedKmh: float64(next() % 200),
				FuelMl:   float64(next() % 100000),
				DistM:    float64(next() % 1000000),
			})
		}
		r := repair(t, tr, Config{})
		if r.Trip == nil {
			return
		}
		pts := r.Trip.Points
		for i := 1; i < len(pts); i++ {
			if pts[i].PointID != pts[i-1].PointID+1 {
				t.Fatal("ids not sequential after repair")
			}
			if pts[i].Time.Before(pts[i-1].Time) {
				t.Fatal("time not monotone after repair")
			}
			if pts[i].FuelMl < pts[i-1].FuelMl || pts[i].DistM < pts[i-1].DistM {
				t.Fatal("cumulative measurements not monotone after repair")
			}
		}

		// Differential properties over the same input:
		//
		// Idempotence — cleaning a cleaned trip is the identity.
		// Historically this failed: realignment re-assigns the sorted
		// timestamp multiset along the chosen order, which can create
		// adjacencies faster than MaxSpeedKmh that only a second pass
		// would filter. Both kernels now iterate to the fixpoint.
		r2 := repair(t, r.Trip, Config{})
		if r2.Trip == nil {
			t.Fatal("cleaning a cleaned trip dropped everything")
		}
		if r2.Dropped != 0 || r2.Reordered {
			t.Fatalf("cleaning is not idempotent: second pass dropped %d, reordered %v",
				r2.Dropped, r2.Reordered)
		}
		if len(r2.Trip.Points) != len(pts) {
			t.Fatalf("cleaning is not idempotent: %d -> %d points", len(pts), len(r2.Trip.Points))
		}
		for i := range pts {
			if pts[i] != r2.Trip.Points[i] {
				t.Fatalf("cleaning is not idempotent: point %d changed", i)
			}
		}

		// Ordering minimality — the chosen ordering's trip length is
		// the smaller of the two candidates, the paper's §IV-B rule.
		chosenLen, otherLen := r.LengthByID, r.LengthByTime
		if r.ChosenOrder == OrderByTime {
			chosenLen, otherLen = r.LengthByTime, r.LengthByID
		}
		if chosenLen > otherLen {
			t.Fatalf("chose the longer ordering: %s %.1f m over %.1f m",
				r.ChosenOrder, chosenLen, otherLen)
		}
	})
}
