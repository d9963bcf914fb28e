package ingest

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/sink"
)

// TestPushOverlapsRunningRound: the push whose step closes a trip
// returns while that trip's round is still running, so admission
// overlaps the flush; the next step that closes trips waits for the
// running round, so rounds still publish one at a time, in step order.
// Round 1 is car a's trip A and round 2 car b's trip B; each round's
// clean stage is held on a channel until the test releases it.
func TestPushOverlapsRunningRound(t *testing.T) {
	fx := newDiffFixture(t)
	tripA, tripB := fx.twoTripsWithTransitions(t)
	batches := roundBatches(fx, tripA, tripB)

	// The reference: the same batches, each followed by Advance, which
	// waits for the round; want[1] and want[2] are the epochs published
	// by rounds 1 and 2.
	refSnk := newDiffSink(t, fx.p)
	ref := fx.roundEngine(t, refSnk, nil)
	var want []*sink.Snapshot
	for _, b := range batches {
		ref.PushBatch(b)
		ref.Advance()
		want = append(want, refSnk.Snapshot())
	}
	ref.Close()
	if want[0].Epoch != 0 || want[1].Epoch != 1 || want[2].Epoch != 2 {
		t.Fatalf("reference epochs %d, %d, %d; want 0, 1, 2", want[0].Epoch, want[1].Epoch, want[2].Epoch)
	}

	held := map[int]chan struct{}{tripA[0].Car: make(chan struct{}), tripB[0].Car: make(chan struct{})}
	release := func(car int) {
		select {
		case <-held[car]:
		default:
			close(held[car])
		}
	}
	fx.p.Config.Faults = runner.FaultFunc(func(car int, stage string) error {
		if ch := held[car]; ch != nil && stage == "clean" {
			<-ch
		}
		return nil
	})
	reg := obs.NewRegistry()
	snk := newDiffSink(t, fx.p)
	e := fx.roundEngine(t, snk, reg)
	t.Cleanup(func() {
		release(tripA[0].Car)
		release(tripB[0].Car)
		e.Close()
	})

	push := func(pts []Point) <-chan struct{} {
		done := make(chan struct{})
		go func() {
			defer close(done)
			e.PushBatch(pts)
		}()
		return done
	}
	const timeout = 10 * time.Second
	e.PushBatch(batches[0])
	select {
	case <-push(batches[1]):
	case <-time.After(timeout):
		t.Fatal("the push that closed round 1 did not return while the round's clean stage was held")
	}
	st := e.Stats()
	if st.ClosedTrips != 1 {
		t.Fatalf("closed trips = %d while round 1 runs, want 1 (counted at its step)", st.ClosedTrips)
	}
	if got := reg.Counter("ingest_trips_closed").Value(); got != st.ClosedTrips {
		t.Fatalf("ingest_trips_closed = %d, Stats says %d", got, st.ClosedTrips)
	}
	open, buf := reg.Gauge("ingest_open_trips").Value(), reg.Gauge("ingest_buffered_points").Value()
	if open != int64(st.OpenTrips) || buf != int64(st.BufferedPoints) {
		t.Fatalf("gauges open %d buffered %d, Stats says %d and %d", open, buf, st.OpenTrips, st.BufferedPoints)
	}

	done := push(batches[2])
	select {
	case <-done:
		t.Fatal("the push that closed round 2 returned while round 1 was still running")
	case <-time.After(100 * time.Millisecond):
	}
	release(tripA[0].Car)
	select {
	case <-done:
	case <-time.After(timeout):
		t.Fatal("the push that closed round 2 did not return once round 1 was released")
	}
	if st := e.Stats(); st.ClosedTrips != 2 {
		t.Fatalf("closed trips = %d while round 2 runs, want 2 (counted at its step)", st.ClosedTrips)
	}
	// Round 1 has published and round 2 is held: epoch 1 is round 1's.
	sameSnapshotBits(t, snk.Snapshot(), want[1])

	release(tripB[0].Car)
	e.Advance()
	sameSnapshotBits(t, snk.Snapshot(), want[2])
	if n := reg.Histogram("ingest_handoff_wait_seconds").Count(); n != 1 {
		t.Fatalf("ingest_handoff_wait_seconds has %d observations, want 1 (round 2's step)", n)
	}
}

// twoTripsWithTransitions returns the wire points of two trips of two
// different cars, each of which yields at least one transition.
func (fx *diffFixture) twoTripsWithTransitions(t *testing.T) (a, b []Point) {
	t.Helper()
	var trips [][]Point
	for _, car := range fx.cars {
		cr, err := fx.p.ProcessContext(context.Background(), car, fx.byCar[car])
		if err != nil {
			t.Fatalf("batch car %d: %v", car, err)
		}
		if len(cr.Transitions) == 0 {
			continue
		}
		id := cr.Transitions[0].Transition.Key().TripID
		var trip []Point
		for _, pt := range fx.pts {
			if pt.Car == car && pt.Trip == id {
				trip = append(trip, pt)
			}
		}
		if trips = append(trips, trip); len(trips) == 2 {
			return trips[0], trips[1]
		}
	}
	t.Fatal("the fixture has fewer than two cars with a transition")
	return nil, nil
}

// roundBatches builds three pushes at 5 s lateness. The first buffers
// trips A and B and closes nothing. The second opens a synthetic next
// trip for both cars, which closes A alone: round 1. The third moves
// both synthetic trips on, which closes B: round 2.
func roundBatches(fx *diffFixture, tripA, tripB []Point) [3][]Point {
	carA, carB := tripA[0].Car, tripB[0].Car
	last := max(tripA[len(tripA)-1].TimeMs, tripB[len(tripB)-1].TimeMs)/1000 + 1
	x := last + 1        // car a's next trip starts here: A's bound
	y := x + 5 + 2       // car b's next trip starts here: B's bound
	z := y + 5 + 2       // both cars' maxima for round 2
	const next = 1 << 40 // synthetic trip ids
	return [3][]Point{
		append(append([]Point(nil), tripA...), tripB...),
		{syntheticPoint(fx.p, carA, next, 1, x), syntheticPoint(fx.p, carA, next, 2, y), syntheticPoint(fx.p, carB, next, 1, y)},
		{syntheticPoint(fx.p, carA, next, 3, z), syntheticPoint(fx.p, carB, next, 2, z)},
	}
}

// roundEngine builds an engine whose every push steps, with a 5 s
// lateness and an idle timeout no test trip reaches.
func (fx *diffFixture) roundEngine(t *testing.T, snk *sink.Sink, reg *obs.Registry) *Engine {
	t.Helper()
	e, err := New(Config{
		Pipeline:        fx.p,
		Sink:            snk,
		AllowedLateness: 5 * time.Second,
		IdleTimeout:     365 * 24 * time.Hour,
		WatermarkEvery:  1,
		Metrics:         reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestPushAfterCloseStartsNoRound: once Close has sealed the stream, a
// push admits nothing, and its step closes nothing, so no round starts
// and the sealed snapshot stays as it was. A known car's point inside
// its old range and a never-seen car's point are late; a known car
// resuming past everything it sent is idle_resumed. No round goroutine
// outlives Close.
func TestPushAfterCloseStartsNoRound(t *testing.T) {
	p := testPipeline(t)
	reg := obs.NewRegistry()
	snk := newDiffSink(t, p)
	before := runtime.NumGoroutine()
	e := newTestEngine(t, Config{Sink: snk, Metrics: reg, AllowedLateness: 5 * time.Second})
	for car := 1; car <= 2; car++ {
		for sec := int64(1); sec <= 10; sec++ {
			e.Push(syntheticPoint(p, car, int64(car*100), int(sec), sec))
		}
	}
	e.Close()
	// The last round closes its done channel just before it returns.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after Close, %d before the engine: a round outlived Close", n, before)
	}
	sealed := snk.Snapshot()
	flushes := reg.Counter("ingest_flushes").Value()
	closed := e.Stats().ClosedTrips
	if !sealed.Complete || closed != 2 {
		t.Fatalf("after Close: sealed %v, %d closed trips; want sealed with 2", sealed.Complete, closed)
	}

	res := e.PushBatch([]Point{
		syntheticPoint(p, 1, 100, 11, 5),  // known car, closed trip, old time
		syntheticPoint(p, 2, 300, 1, 3),   // known car, new trip, old time
		syntheticPoint(p, 3, 400, 1, 20),  // never-seen car
		syntheticPoint(p, 2, 300, 2, 600), // known car, newer than all it sent
	})
	if res.Admitted != 0 || res.Dropped[obs.DropLate] != 3 || res.Dropped[obs.DropIdleResumed] != 1 {
		t.Fatalf("push after Close = %+v, want 3 late and 1 idle_resumed drops", res)
	}
	e.Advance()
	if got := reg.Counter("ingest_flushes").Value(); got != flushes {
		t.Fatalf("ingest_flushes went %d -> %d after Close", flushes, got)
	}
	if got := e.Stats().ClosedTrips; got != closed {
		t.Fatalf("closed trips went %d -> %d after Close", closed, got)
	}
	if snap := snk.Snapshot(); snap.Epoch != sealed.Epoch || snap.CarsIngested != sealed.CarsIngested {
		t.Fatalf("a push after Close moved the sealed snapshot: epoch %d -> %d, cars %d -> %d",
			sealed.Epoch, snap.Epoch, sealed.CarsIngested, snap.CarsIngested)
	}
}

// TestRoundPanicRaisedOnceByNextStep: a stage panic in a round nobody
// waits for is raised by the next step that closes trips, once that
// step has started its own round, and by no later call; the trips that
// step closed still fold.
func TestRoundPanicRaisedOnceByNextStep(t *testing.T) {
	p := testPipeline(t)
	var once sync.Once
	p.Config.Faults = runner.FaultFunc(func(car int, stage string) error {
		if car == 1 && stage == "clean" {
			once.Do(func() { panic("poisoned trip") })
		}
		return nil
	})
	t.Cleanup(func() { p.Config.Faults = nil })
	lin := obs.NewLineage(nil)
	e := newTestEngine(t, Config{AllowedLateness: 5 * time.Second, Lineage: lin})
	recovered := func(f func()) (r any) {
		defer func() { r = recover() }()
		f()
		return nil
	}

	// Car 1's trip 1 closes at 106 s (watermark 101 s past trip 2's
	// start): round 1, which panics.
	for i := int64(1); i <= 10; i++ {
		e.Push(syntheticPoint(p, 1, 1, int(i), i))
	}
	for i := int64(100); i <= 106; i++ {
		if r := recovered(func() { e.Push(syntheticPoint(p, 1, 2, int(i), i)) }); r != nil {
			t.Fatalf("push at %ds raised %v before any call waited for round 1", i, r)
		}
	}
	// This step closes car 2's trip 20 (watermark 205 s past trip 21's
	// start), so it waits for round 1 and raises its panic.
	batch := []Point{
		syntheticPoint(p, 2, 20, 1, 102), syntheticPoint(p, 2, 20, 2, 103),
		syntheticPoint(p, 2, 21, 1, 200), syntheticPoint(p, 2, 21, 2, 210),
		syntheticPoint(p, 1, 2, 107, 210),
	}
	if r := recovered(func() { e.PushBatch(batch) }); r != "poisoned trip" {
		t.Fatalf("the next closing push raised %v, want round 1's panic", r)
	}
	if r := recovered(e.Advance); r != nil {
		t.Fatalf("Advance raised %v: round 1's panic must be raised once", r)
	}
	if st := e.Stats(); st.ClosedTrips != 2 {
		t.Fatalf("closed trips = %d, want 2", st.ClosedTrips)
	}
	if in := stageRow(lin, "clean").In; in != 2 {
		t.Fatalf("clean.in = %d, want the 2 points of car 2's trip 20 (round 1 folded nothing)", in)
	}
	if r := recovered(e.Close); r != nil {
		t.Fatalf("Close raised %v", r)
	}
	if in := stageRow(lin, "clean").In; in != 2+8+2 {
		t.Fatalf("clean.in = %d after Close, want 12", in)
	}
}
