package ingest

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// stageRow returns the ledger row of one stage.
func stageRow(lin *obs.Lineage, stage string) obs.StageSnapshot {
	for _, s := range lin.Snapshot(0).Stages {
		if s.Stage == stage {
			return s
		}
	}
	return obs.StageSnapshot{}
}

// TestPushAppliesWireBounds is the regression test for in-process
// pushes skipping the wire bounds: a point whose seq or time the wire
// decoders would refuse used to be admitted, then took its whole trip
// down at flush, with no drop recorded and a ledger that still
// conserved. Admission now drops exactly that point as non_finite and
// the rest of the trip reaches cleaning.
func TestPushAppliesWireBounds(t *testing.T) {
	p := testPipeline(t)
	cases := map[string]func(*Point){
		"seq overflows int32": func(pt *Point) { pt.Seq = 1 << 40 },
		"time out of range":   func(pt *Point) { pt.TimeMs = trace.MaxEventTimeMs + 1 },
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			lin := obs.NewLineage(nil)
			e := newTestEngine(t, Config{AllowedLateness: 5 * time.Second, Lineage: lin})
			var pts []Point
			for i := int64(1); i <= 10; i++ {
				pts = append(pts, syntheticPoint(p, 1, 1, int(i), i))
			}
			bad := syntheticPoint(p, 1, 1, 11, 11)
			corrupt(&bad)
			pts = append(pts[:5], append([]Point{bad}, pts[5:]...)...)
			e.PushBatch(pts)
			e.Close()

			if st := e.Stats(); st.Dropped[obs.DropNonFinite] != 1 || len(st.Dropped) != 1 {
				t.Fatalf("drops = %+v, want one non_finite", st.Dropped)
			}
			if out, in := stageRow(lin, "ingest").Out, stageRow(lin, "clean").In; out != 10 || in != 10 {
				t.Fatalf("ingest.out = %d, clean.in = %d, want 10 and 10", out, in)
			}
			if err := lin.Check(); err != nil {
				t.Fatalf("lineage conservation violated: %v", err)
			}
		})
	}
}

// TestClosedTripIDsNotInTimeOrder pins the closed-trip semantics
// against trip ids that do not follow event time (tracegen numbers
// trips per car and draws each trip's day at random): only the very
// trips that closed refuse new points. A per-car id frontier would
// refuse the lower-numbered trip 10 below.
func TestClosedTripIDsNotInTimeOrder(t *testing.T) {
	lin := obs.NewLineage(nil)
	e := newTestEngine(t, Config{AllowedLateness: 5 * time.Second, Lineage: lin})
	p := testPipeline(t)

	for i := int64(1); i <= 10; i++ {
		e.Push(syntheticPoint(p, 1, 20, int(i), i))
	}
	for i := int64(100); i <= 110; i++ {
		e.Push(syntheticPoint(p, 1, 30, int(i), i))
	}
	if st := e.Stats(); st.ClosedTrips != 1 {
		t.Fatalf("closed trips = %d, want trip 20 closed behind the watermark", st.ClosedTrips)
	}

	// A never-seen trip with a lower id than the closed one is new data.
	for i := int64(200); i <= 210; i++ {
		if res := e.Push(syntheticPoint(p, 1, 10, int(i), i)); res.Admitted != 1 {
			t.Fatalf("trip 10 point at %ds = %+v, want admitted", i, res)
		}
	}
	// A point for the closed trip stays late, however fresh its time.
	if res := e.Push(syntheticPoint(p, 1, 20, 11, 300)); res.Dropped[obs.DropLate] != 1 {
		t.Fatalf("point for closed trip 20 = %+v, want a late drop", res)
	}
	e.Close()

	st := e.Stats()
	if st.ClosedTrips != 3 {
		t.Fatalf("closed trips = %d, want 3 (trips 20, 30 and 10 flushed separately)", st.ClosedTrips)
	}
	if st.Admitted != 32 || len(st.Dropped) != 1 {
		t.Fatalf("stats = %+v, want 32 admitted and one late drop", st)
	}
	if in := stageRow(lin, "clean").In; in != 32 {
		t.Fatalf("clean.in = %d, want all 32 admitted points", in)
	}
}

// TestEngineStateFollowsActiveFleet streams one trip from each of N
// cars, then lets a clock car run past the idle timeout so every other
// trip closes without Close: from then on the watermark step and Stats
// see the clock car alone, while Close still completes every car ever
// seen in the sink.
func TestEngineStateFollowsActiveFleet(t *testing.T) {
	p := testPipeline(t)
	s := newDiffSink(t, p)
	e := newTestEngine(t, Config{
		Sink:            s,
		AllowedLateness: 5 * time.Second,
		IdleTimeout:     60 * time.Second,
	})

	const cars = 16
	const clock = cars + 1
	for sec := int64(1); sec <= 10; sec++ {
		for car := 1; car <= cars; car++ {
			e.Push(syntheticPoint(p, car, int64(car*100), int(sec), sec))
		}
	}
	if len(e.active) != cars {
		t.Fatalf("active cars = %d, want %d", len(e.active), cars)
	}
	for sec := int64(6); sec <= 80; sec++ {
		e.Push(syntheticPoint(p, clock, clock*100, int(sec), sec))
	}

	st := e.Stats()
	if st.ClosedTrips != cars {
		t.Fatalf("closed trips = %d, want the %d idle cars' trips", st.ClosedTrips, cars)
	}
	if len(e.active) != 1 || e.active[0].car != clock {
		t.Fatalf("active set holds %d cars, want only the clock car", len(e.active))
	}
	if st.OpenTrips != 1 || st.BufferedPoints != 75 {
		t.Fatalf("open trips = %d, buffered points = %d, want the clock car's 1 trip of 75 points",
			st.OpenTrips, st.BufferedPoints)
	}

	e.Close()
	if snap := s.Snapshot(); snap.CarsIngested != cars+1 {
		t.Fatalf("cars ingested = %d, want all %d cars completed", snap.CarsIngested, cars+1)
	}
	if st := e.Stats(); len(e.active) != 0 || st.OpenTrips != 0 || st.BufferedPoints != 0 {
		t.Fatalf("after Close: %d active cars, stats %+v", len(e.active), st)
	}
}
