package segment

import (
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/trace"
)

// FuzzSplit drives the segmenter with adversarial point sequences —
// zero and negative time deltas, teleporting positions, single-point
// trips — and checks the post-filter contract on whatever survives:
// every kept segment has at least MinPoints points and is no longer
// than MaxLengthM, the stats ledger matches the returned slice, and
// segments own their points (mutating one never writes through to the
// source trip).
func FuzzSplit(f *testing.F) {
	f.Add(int64(1), uint8(20), int64(30_000), false)
	f.Add(int64(42), uint8(80), int64(200_000), true)
	f.Add(int64(-3), uint8(5), int64(0), true)     // zero time deltas
	f.Add(int64(7), uint8(12), int64(-5000), true) // time running backwards

	f.Fuzz(func(t *testing.T, seed int64, n uint8, stepMs int64, jitter bool) {
		base := time.Date(2016, 3, 1, 8, 0, 0, 0, time.UTC)
		tr := &trace.Trip{ID: 1, CarID: 1}
		s := seed | 1
		next := func() int64 {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			return s
		}
		ts := base
		for i := 0; i < int(n); i++ {
			step := stepMs
			if jitter {
				step = next() % 1_200_000 // up to 20 min, sign included
			}
			ts = ts.Add(time.Duration(step) * time.Millisecond)
			tr.Points = append(tr.Points, trace.RoutePoint{
				PointID: i + 1, TripID: 1,
				Pos:  geo.V(float64(next()%50_000), float64(next()%50_000)),
				Time: ts,
			})
		}

		rules := DefaultRules()
		var stats Stats
		segs := Split(tr, rules, &stats)

		if stats.KeptSegments != len(segs) {
			t.Fatalf("stats.KeptSegments = %d, returned %d segments",
				stats.KeptSegments, len(segs))
		}
		total := 0
		for _, sg := range segs {
			if len(sg.Points) < rules.MinPoints {
				t.Fatalf("kept a %d-point segment, MinPoints = %d",
					len(sg.Points), rules.MinPoints)
			}
			if l := trace.PathLength(sg.Points); l > rules.MaxLengthM {
				t.Fatalf("kept a %.0f m segment, MaxLengthM = %.0f",
					l, rules.MaxLengthM)
			}
			if sg.ID != tr.ID || sg.CarID != tr.CarID {
				t.Fatal("segment lost its trip/car identity")
			}
			total += len(sg.Points)
		}
		if total > len(tr.Points) {
			t.Fatalf("segments hold %d points, source trip only %d",
				total, len(tr.Points))
		}

		// Aliasing: segments must be copies. Poison every segment point
		// and verify the source trip still reads its own ids.
		for _, sg := range segs {
			for i := range sg.Points {
				sg.Points[i].PointID = -1
			}
		}
		for i, p := range tr.Points {
			if p.PointID != i+1 {
				t.Fatalf("mutating a segment changed source point %d", i)
			}
		}
	})
}
