package ingest

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/sink"
)

// TestPushOverlapsRunningRound: two rounds run at once, and they fold
// and publish in step order. Rounds 1, 2 and 3 are cars a, b and c's
// trips A, B and C, and round 1's and round 3's clean stages are held
// on channels until the test releases them. The push whose step closes
// round 2 returns while round 1 is held, and round 2 analyses trip B
// meanwhile but publishes nothing; the push that closes round 3 finds
// two rounds in flight and waits for round 1, the older. Once round 1
// is released the epochs follow round order.
func TestPushOverlapsRunningRound(t *testing.T) {
	fx := newDiffFixture(t)
	trips := fx.tripsWithTransitions(t, 3)
	carA, carB, carC := trips[0][0].Car, trips[1][0].Car, trips[2][0].Car
	batches := roundBatches(fx, trips)

	// The reference: the same batches, each followed by Advance, which
	// waits for the round; want[k] is the epoch round k published. It
	// also counts trip B's mapattr stages, the last of its analysis.
	var bStages atomic.Int64
	fx.p.Config.Faults = runner.FaultFunc(func(car int, stage string) error {
		if car == carB && stage == "mapattr" {
			bStages.Add(1)
		}
		return nil
	})
	want := fx.referenceEpochs(t, batches)
	lastStage := bStages.Load()

	held, release := cleanHolds(carA, carC)
	analysed := make(chan struct{})
	bStages.Store(0)
	fx.p.Config.Faults = runner.FaultFunc(func(car int, stage string) error {
		switch {
		case held[car] != nil && stage == "clean":
			<-held[car]
		case car == carB && stage == "mapattr" && bStages.Add(1) == lastStage:
			close(analysed)
		}
		return nil
	})
	reg := obs.NewRegistry()
	snk := newDiffSink(t, fx.p)
	e := fx.roundEngine(t, snk, reg)
	t.Cleanup(func() {
		release(carA)
		release(carC)
		e.Close()
	})

	const timeout = 10 * time.Second
	e.PushBatch(batches[0])
	for k := 1; k <= 2; k++ {
		select {
		case <-pushAsync(e, batches[k]):
		case <-time.After(timeout):
			t.Fatalf("the push that closed round %d did not return while round 1's clean stage was held", k)
		}
	}
	st := e.Stats()
	if st.ClosedTrips != 2 {
		t.Fatalf("closed trips = %d while rounds 1 and 2 run, want 2 (counted at their steps)", st.ClosedTrips)
	}
	if got := reg.Counter("ingest_trips_closed").Value(); got != st.ClosedTrips {
		t.Fatalf("ingest_trips_closed = %d, Stats says %d", got, st.ClosedTrips)
	}
	open, buf := reg.Gauge("ingest_open_trips").Value(), reg.Gauge("ingest_buffered_points").Value()
	if open != int64(st.OpenTrips) || buf != int64(st.BufferedPoints) {
		t.Fatalf("gauges open %d buffered %d, Stats says %d and %d", open, buf, st.OpenTrips, st.BufferedPoints)
	}

	// Round 2 reaches the last stage of its analysis while round 1 is
	// held, and then waits for round 1 before it folds.
	select {
	case <-analysed:
	case <-time.After(timeout):
		t.Fatal("round 2 did not analyse its trip while round 1 was held")
	}
	time.Sleep(50 * time.Millisecond)
	if ep, n := snk.Snapshot().Epoch, reg.Counter("ingest_flushes").Value(); ep != 0 || n != 0 {
		t.Fatalf("epoch %d after %d flushes while round 1 is held: round 2 published ahead of it", ep, n)
	}

	done := pushAsync(e, batches[3])
	select {
	case <-done:
		t.Fatal("the push that closed round 3 returned while rounds 1 and 2 were in flight")
	case <-time.After(100 * time.Millisecond):
	}
	release(carA)
	select {
	case <-done:
	case <-time.After(timeout):
		t.Fatal("the push that closed round 3 did not return once round 1 was released")
	}
	if st := e.Stats(); st.ClosedTrips != 3 {
		t.Fatalf("closed trips = %d while round 3 runs, want 3 (counted at its step)", st.ClosedTrips)
	}
	// Rounds 1 and 2 publish in order; round 3 is held.
	waitEpoch(t, snk, 2)
	sameSnapshotBits(t, snk.Snapshot(), want[2])

	release(carC)
	e.Advance()
	sameSnapshotBits(t, snk.Snapshot(), want[3])
	if n := reg.Histogram("ingest_handoff_wait_seconds").Count(); n != 1 {
		t.Fatalf("ingest_handoff_wait_seconds has %d observations, want 1 (round 3's step)", n)
	}
}

// cleanHolds returns a channel per car, on which a fault hook holds
// that car's clean stage, and a release that closes a car's channel
// once.
func cleanHolds(cars ...int) (map[int]chan struct{}, func(car int)) {
	held := map[int]chan struct{}{}
	for _, car := range cars {
		held[car] = make(chan struct{})
	}
	return held, func(car int) {
		select {
		case <-held[car]:
		default:
			close(held[car])
		}
	}
}

// pushAsync pushes pts on a goroutine of its own and returns a channel
// closed once the push has returned.
func pushAsync(e *Engine, pts []Point) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.PushBatch(pts)
	}()
	return done
}

// waitEpoch waits until the sink has published epoch n.
func waitEpoch(t *testing.T, snk *sink.Sink, n uint64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); snk.Snapshot().Epoch < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("epoch %d, want %d", snk.Snapshot().Epoch, n)
		}
	}
}

// referenceEpochs pushes batches into a round engine, each followed by
// Advance, and returns the snapshot after each: epoch k is round k's.
func (fx *diffFixture) referenceEpochs(t *testing.T, batches [][]Point) []*sink.Snapshot {
	t.Helper()
	snk := newDiffSink(t, fx.p)
	ref := fx.roundEngine(t, snk, nil)
	var want []*sink.Snapshot
	for k, b := range batches {
		ref.PushBatch(b)
		ref.Advance()
		if want = append(want, snk.Snapshot()); want[k].Epoch != uint64(k) {
			t.Fatalf("reference epoch %d after push %d; want one epoch per round", want[k].Epoch, k)
		}
	}
	ref.Close()
	return want
}

// tripsWithTransitions returns the wire points of n trips of n
// different cars, each of which yields at least one transition.
func (fx *diffFixture) tripsWithTransitions(t *testing.T, n int) [][]Point {
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
		if trips = append(trips, trip); len(trips) == n {
			return trips
		}
	}
	t.Fatalf("the fixture has fewer than %d cars with a transition", n)
	return nil
}

// roundBatches builds len(trips)+1 pushes at 5 s lateness that close
// one trip per push. Trip k's car starts a synthetic next trip at t_k,
// 7 s after t_(k-1), which bounds trip k. The first push buffers every
// trip and every next trip's first point and closes nothing: car 1
// holds the watermark at t_1 - 5. Push k moves cars 1..k to t_(k+1),
// so the watermark becomes t_k + 2 and closes trip k alone: round k.
func roundBatches(fx *diffFixture, trips [][]Point) [][]Point {
	var last int64
	for _, tr := range trips {
		last = max(last, tr[len(tr)-1].TimeMs/1000+1)
	}
	at := func(k int) int64 { return last + 1 + 7*int64(k-1) } // t_k
	const next = 1 << 40                                       // synthetic trip ids
	batches := [][]Point{nil}
	for k, tr := range trips {
		batches[0] = append(batches[0], tr...)
		batches[0] = append(batches[0], syntheticPoint(fx.p, tr[0].Car, next, 1, at(k+1)))
	}
	for k := 1; k <= len(trips); k++ {
		var b []Point
		for j := 0; j < k; j++ {
			b = append(b, syntheticPoint(fx.p, trips[j][0].Car, next, 1+k-j, at(k+1)))
		}
		batches = append(batches, b)
	}
	return batches
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

// TestRoundPanicRaisedOnceByFirstWaiter: a stage panic in a round is
// raised by the first call that waits for that round, and by no later
// call. Here round 1 panics; the step that closes round 2 does not wait
// for it, since only one round is in flight, and the step that closes
// round 3 finds two and waits for round 1, the older, so it raises the
// panic once round 3 has started. Rounds 2 and 3 still fold.
func TestRoundPanicRaisedOnceByFirstWaiter(t *testing.T) {
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
	// start): round 2. Round 1 is the only round in flight, so the step
	// does not wait for it.
	batch := []Point{
		syntheticPoint(p, 2, 20, 1, 102), syntheticPoint(p, 2, 20, 2, 103),
		syntheticPoint(p, 2, 21, 1, 200), syntheticPoint(p, 2, 21, 2, 210),
		syntheticPoint(p, 1, 2, 107, 210),
	}
	if r := recovered(func() { e.PushBatch(batch) }); r != nil {
		t.Fatalf("the push that closed round 2 raised %v; only a step that finds two rounds waits", r)
	}
	// This step closes car 3's trip 30 (watermark 305 s past trip 31's
	// start): round 3. It waits for round 1 and raises its panic.
	batch = []Point{
		syntheticPoint(p, 3, 30, 1, 206), syntheticPoint(p, 3, 30, 2, 207),
		syntheticPoint(p, 3, 31, 1, 300), syntheticPoint(p, 3, 31, 2, 310),
		syntheticPoint(p, 1, 2, 108, 310), syntheticPoint(p, 2, 21, 3, 310),
	}
	if r := recovered(func() { e.PushBatch(batch) }); r != "poisoned trip" {
		t.Fatalf("the push that closed round 3 raised %v, want round 1's panic", r)
	}
	if r := recovered(e.Advance); r != nil {
		t.Fatalf("Advance raised %v: round 1's panic must be raised once", r)
	}
	if st := e.Stats(); st.ClosedTrips != 3 {
		t.Fatalf("closed trips = %d, want 3", st.ClosedTrips)
	}
	if in := stageRow(lin, "clean").In; in != 2+2 {
		t.Fatalf("clean.in = %d, want the 2 points each of trips 20 and 30 (round 1 folded nothing)", in)
	}
	if r := recovered(e.Close); r != nil {
		t.Fatalf("Close raised %v", r)
	}
	if in := stageRow(lin, "clean").In; in != 2+2+9+3+2 {
		t.Fatalf("clean.in = %d after Close, want 18", in)
	}
}

// TestRoundPanicKeepsFoldOrder: a round that panics while the round
// before it still runs finishes only after that round, so nothing
// behind it folds early. Round 1 (car a's trip A) is held in its clean
// stage, round 2 (car b's trip B) panics in its own, and round 3 (car
// c's trip C) is held in its clean stage once it starts. While round 1
// is held, an Advance and the push that closes round 3 wait and nothing
// is published. Once it is released, round 1 publishes its epoch,
// round 2 folds nothing, the Advance raises round 2's panic, and round
// 3 folds after round 1.
func TestRoundPanicKeepsFoldOrder(t *testing.T) {
	fx := newDiffFixture(t)
	trips := fx.tripsWithTransitions(t, 3)
	carA, carB, carC := trips[0][0].Car, trips[1][0].Car, trips[2][0].Car
	batches := roundBatches(fx, trips)
	want := fx.referenceEpochs(t, batches)

	held, release := cleanHolds(carA, carC)
	var once sync.Once
	fx.p.Config.Faults = runner.FaultFunc(func(car int, stage string) error {
		switch {
		case stage != "clean":
		case held[car] != nil:
			<-held[car]
		case car == carB:
			once.Do(func() { panic("poisoned trip") })
		}
		return nil
	})
	reg := obs.NewRegistry()
	snk := newDiffSink(t, fx.p)
	e := fx.roundEngine(t, snk, reg)
	t.Cleanup(func() {
		release(carA)
		release(carC)
		defer func() { recover() }()
		e.Close()
	})

	const timeout = 10 * time.Second
	e.PushBatch(batches[0])
	for k := 1; k <= 2; k++ {
		select {
		case <-pushAsync(e, batches[k]):
		case <-time.After(timeout):
			t.Fatalf("the push that closed round %d did not return while round 1's clean stage was held", k)
		}
	}
	advanced := make(chan any, 1)
	go func() {
		defer func() { advanced <- recover() }()
		e.Advance()
	}()
	select {
	case r := <-advanced:
		t.Fatalf("Advance returned (raising %v) while round 1 was held", r)
	case <-time.After(100 * time.Millisecond):
	}
	done := pushAsync(e, batches[3])
	select {
	case <-done:
		t.Fatal("the push that closed round 3 returned while round 1 was held")
	case <-time.After(100 * time.Millisecond):
	}
	if ep, n := snk.Snapshot().Epoch, reg.Counter("ingest_flushes").Value(); ep != 0 || n != 0 {
		t.Fatalf("epoch %d after %d flushes while round 1 is held", ep, n)
	}

	release(carA)
	select {
	case <-done:
	case <-time.After(timeout):
		t.Fatal("the push that closed round 3 did not return once round 1 was released")
	}
	waitEpoch(t, snk, 1)
	sameSnapshotBits(t, snk.Snapshot(), want[1])
	release(carC)
	select {
	case r := <-advanced:
		if r != "poisoned trip" {
			t.Fatalf("Advance raised %v, want round 2's panic", r)
		}
	case <-time.After(timeout):
		t.Fatal("Advance did not return once the rounds were released")
	}
	e.Advance()
	if ep := snk.Snapshot().Epoch; ep != 2 {
		t.Fatalf("epoch %d after round 3, want 2: rounds 1 and 3 publish, round 2 folded nothing", ep)
	}
	if n := reg.Counter("pipeline_clean_trips").Value(); n != 2 {
		t.Fatalf("pipeline_clean_trips = %d, want trips A and C", n)
	}
}

// TestRoundsOverlapLikeAdvanceEveryPush: overlapping rounds change no
// bit of what the engine folds. The shuffled 32-car fixture is pushed
// in batches of WatermarkEvery points, so every full batch steps, and a
// fault hook slows the clean stage of every fourth car, so rounds
// overlap and steps wait for the older of two. The sealed snapshot's
// TAXISNPB bytes and the ledger rows must equal those of an engine
// that calls Advance after every full batch and so never has a second
// round in flight; the two form the same rounds at the same steps.
func TestRoundsOverlapLikeAdvanceEveryPush(t *testing.T) {
	fx := newDiffFixture(t)
	shuffled := append([]Point(nil), fx.pts...)
	ShuffleWindows(shuffled, 32, 20_000, 7)
	const every = 256
	run := func(advance bool, reg *obs.Registry) (*sink.Snapshot, map[string]obs.StageSnapshot) {
		snk := newDiffSink(t, fx.p)
		lin := obs.NewLineage(nil)
		e, err := New(Config{
			Pipeline:        fx.p,
			Sink:            snk,
			AllowedLateness: 30 * time.Second,
			IdleTimeout:     5 * time.Minute,
			WatermarkEvery:  every,
			Metrics:         reg,
			Lineage:         lin,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(shuffled); i += every {
			e.PushBatch(shuffled[i:min(i+every, len(shuffled))])
			if advance && i+every <= len(shuffled) {
				e.Advance() // steps again at the same watermark: closes nothing
			}
		}
		e.Close()
		return snk.Snapshot(), stageRows(lin)
	}
	want, wantRows := run(true, nil)

	fx.p.Config.Faults = runner.FaultFunc(func(car int, stage string) error {
		if stage == "clean" && car%4 == 0 {
			time.Sleep(2 * time.Millisecond)
		}
		return nil
	})
	reg := obs.NewRegistry()
	got, gotRows := run(false, reg)
	sameSnapshotBits(t, got, want)
	if !reflect.DeepEqual(gotRows, wantRows) {
		t.Fatalf("ledger rows %+v, with Advance after every push %+v", gotRows, wantRows)
	}
	if reg.Histogram("ingest_handoff_wait_seconds").Count() == 0 {
		t.Fatal("no step found two rounds in flight: the rounds did not overlap")
	}
}
