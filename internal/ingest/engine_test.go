package ingest

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/tracegen"
)

// The engine tests share one pipeline: construction synthesises the
// city and road network, which dwarfs any single test's own work.
var sharedPipe struct {
	once sync.Once
	p    *core.Pipeline
	err  error
}

func testPipeline(t *testing.T) *core.Pipeline {
	t.Helper()
	sharedPipe.once.Do(func() {
		sharedPipe.p, sharedPipe.err = core.NewPipeline(core.Config{
			CitySeed: 42,
			Fleet: tracegen.Config{
				Seed: 42, Cars: 2, TripsPerCar: 4, GateRunFraction: 0.3,
			},
		})
	})
	if sharedPipe.err != nil {
		t.Fatal(sharedPipe.err)
	}
	return sharedPipe.p
}

// syntheticPoint builds an in-area, finite point for hand-driven
// watermark scenarios; sec is the event time in seconds.
func syntheticPoint(p *core.Pipeline, car int, trip int64, seq int, sec int64) Point {
	area := p.Config.Clean.Area
	centre := geo.XY{X: (area.MinX + area.MaxX) / 2, Y: (area.MinY + area.MaxY) / 2}
	ll := p.City.DB.Proj.ToPoint(centre)
	return Point{
		Car: car, Trip: trip, Seq: seq,
		TimeMs: sec * 1000,
		Lon:    ll.Lon, Lat: ll.Lat,
		SpeedKmh: 20, FuelMl: 0.1, DistM: 5,
	}
}

func newTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	if cfg.Pipeline == nil {
		cfg.Pipeline = testPipeline(t)
	}
	if cfg.WatermarkEvery == 0 {
		cfg.WatermarkEvery = 1 // recompute on every push: deterministic scenarios
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestLatePointDropped drives the watermark forward with one car and
// verifies a point below it is rejected with the typed "late" reason —
// and that the lineage ledger still conserves (in = out + dropped).
func TestLatePointDropped(t *testing.T) {
	lin := obs.NewLineage(nil)
	e := newTestEngine(t, Config{
		AllowedLateness: 5 * time.Second,
		Lineage:         lin,
	})
	p := testPipeline(t)

	// Trip 1 then trip 2 far ahead: the watermark follows the car's max.
	// (Event times start at 1s — epoch ms 0 is the invalid-time
	// sentinel the non-finite filter rejects.)
	for i := int64(1); i <= 10; i++ {
		e.Push(syntheticPoint(p, 1, 1, int(i), i))
	}
	for i := int64(0); i < 10; i++ {
		e.Push(syntheticPoint(p, 1, 2, int(i), 100+i))
	}
	if wm := e.Watermark(); wm != (109-5)*1000 {
		t.Fatalf("watermark = %d, want %d", wm, (109-5)*1000)
	}

	res := e.Push(syntheticPoint(p, 1, 1, 99, 50)) // event time 50s < watermark 104s
	if res.Admitted != 0 || res.Dropped[obs.DropLate] != 1 {
		t.Fatalf("late point result = %+v, want 1 late drop", res)
	}

	st := e.Stats()
	if st.Dropped[obs.DropLate] != 1 {
		t.Fatalf("stats late drops = %d, want 1", st.Dropped[obs.DropLate])
	}
	if err := lin.Check(); err != nil {
		t.Fatalf("lineage conservation violated: %v", err)
	}

	// A point aimed at an already-closed trip is late regardless of its
	// event time. Trip 1's bound is trip 2's first point (100s), which
	// the watermark has passed, so trip 1 must have closed.
	if st.ClosedTrips != 1 {
		t.Fatalf("closed trips = %d, want 1 (trip 1 behind the watermark)", st.ClosedTrips)
	}
	res = e.Push(syntheticPoint(p, 1, 1, 100, 200))
	if res.Dropped[obs.DropLate] != 1 {
		t.Fatalf("point for a closed trip = %+v, want a late drop", res)
	}
}

// TestDuplicatePointDroppedAtClean admits two points with the same
// (car, trip, seq, timestamp) — a device retransmission — and checks
// the trip-close cleaning drops exactly one as duplicate_id, with the
// ledger conserving across the ingest → clean handoff.
func TestDuplicatePointDroppedAtClean(t *testing.T) {
	lin := obs.NewLineage(nil)
	e := newTestEngine(t, Config{
		AllowedLateness: 5 * time.Second,
		Lineage:         lin,
	})
	p := testPipeline(t)

	for i := int64(1); i <= 10; i++ {
		e.Push(syntheticPoint(p, 1, 1, int(i), i))
	}
	e.Push(syntheticPoint(p, 1, 1, 10, 10)) // retransmission of seq 10
	e.Close()

	snap := lin.Snapshot(0)
	var ingestOut, cleanIn, dupDrops uint64
	for _, st := range snap.Stages {
		switch st.Stage {
		case "ingest":
			ingestOut = st.Out
		case "clean":
			cleanIn = st.In
			for _, r := range st.Reasons {
				if r.Reason == string(obs.DropDuplicateID) {
					dupDrops = r.N
				}
			}
		}
	}
	if ingestOut != 11 || cleanIn != 11 {
		t.Fatalf("ingest.out = %d, clean.in = %d, want 11 and 11 (cross-stage handoff)", ingestOut, cleanIn)
	}
	if dupDrops != 1 {
		t.Fatalf("duplicate_id drops = %d, want 1", dupDrops)
	}
	if err := lin.Check(); err != nil {
		t.Fatalf("lineage conservation violated: %v", err)
	}
}

// TestSilentCarTripCloses verifies the idle policy: a car that goes
// silent mid-trip stops holding the watermark back once its event-time
// silence exceeds the idle timeout, and its open trip closes without
// waiting for Close().
func TestSilentCarTripCloses(t *testing.T) {
	e := newTestEngine(t, Config{
		AllowedLateness: 5 * time.Second,
		IdleTimeout:     60 * time.Second,
	})
	p := testPipeline(t)

	// Car 1 transmits 10 points then dies mid-trip.
	for i := int64(1); i <= 10; i++ {
		e.Push(syntheticPoint(p, 1, 1, int(i), i))
	}
	// Car 2 keeps streaming one long trip. While car 1 is within the
	// idle timeout it pins the watermark at its max (10s) - lateness.
	for i := int64(1); i <= 60; i++ {
		e.Push(syntheticPoint(p, 2, 20, int(i), i))
	}
	if wm := e.Watermark(); wm != (10-5)*1000 {
		t.Fatalf("watermark = %d, want %d (pinned by the silent car)", wm, (10-5)*1000)
	}

	// Past the idle timeout the silent car is excluded: the watermark
	// jumps to car 2's frontier and car 1's orphan trip closes.
	for i := int64(61); i <= 80; i++ {
		e.Push(syntheticPoint(p, 2, 20, int(i), i))
	}
	if wm := e.Watermark(); wm != (80-5)*1000 {
		t.Fatalf("watermark = %d, want %d (silent car excluded)", wm, (80-5)*1000)
	}
	st := e.Stats()
	if st.ClosedTrips != 1 {
		t.Fatalf("closed trips = %d, want 1 (the silent car's)", st.ClosedTrips)
	}
	if st.OpenTrips != 1 {
		t.Fatalf("open trips = %d, want 1 (car 2's live trip)", st.OpenTrips)
	}

	// The dead car's tail point is still rejected, but as a resurrection
	// (newer than everything the car ever sent), not as disordered data.
	if res := e.Push(syntheticPoint(p, 1, 1, 11, 11)); res.Dropped[obs.DropIdleResumed] != 1 {
		t.Fatalf("tail point of the closed trip = %+v, want an idle_resumed drop", res)
	}
}

// TestIdleResumedCarDistinctReason is the regression test for the
// idle-car resurrection bug: a car that went silent, had its trips
// idle-flushed, and then came back used to have its comeback points
// lumped under "late" — indistinguishable from disordered data, so
// operators could not see resurrections in the drop ledger. The
// classifier: a rejected point NEWER than everything its own car sent
// is idle_resumed; anything at or below the car's own frontier stays
// late.
func TestIdleResumedCarDistinctReason(t *testing.T) {
	lin := obs.NewLineage(nil)
	e := newTestEngine(t, Config{
		AllowedLateness: 5 * time.Second,
		IdleTimeout:     60 * time.Second,
		Lineage:         lin,
	})
	p := testPipeline(t)

	// Car 1 dies mid-trip at 10s; car 2 streams on to 80s (starting
	// above car 1's watermark), so the idle timeout passes car 1 and
	// flushes its open trip.
	for i := int64(1); i <= 10; i++ {
		e.Push(syntheticPoint(p, 1, 1, int(i), i))
	}
	for i := int64(6); i <= 80; i++ {
		e.Push(syntheticPoint(p, 2, 20, int(i), i))
	}
	if st := e.Stats(); st.ClosedTrips != 1 {
		t.Fatalf("closed trips = %d, want car 1's idle-flushed trip", st.ClosedTrips)
	}

	// Resurrection against the closed trip: above the watermark, newer
	// than the car's own frontier -> idle_resumed at the closed-trip gate.
	if res := e.Push(syntheticPoint(p, 1, 1, 90, 78)); res.Dropped[obs.DropIdleResumed] != 1 {
		t.Fatalf("resumed point into closed trip = %+v, want idle_resumed", res)
	}
	// Resurrection under the watermark: a new trip whose first point is
	// below the watermark (75s) but still newer than the car's own max
	// (10s) -> idle_resumed at the watermark gate.
	if res := e.Push(syntheticPoint(p, 1, 2, 1, 20)); res.Dropped[obs.DropIdleResumed] != 1 {
		t.Fatalf("resumed point under watermark = %+v, want idle_resumed", res)
	}

	// Contrast 1: a genuinely disordered point from the LIVE car (50s,
	// below both the watermark and car 2's own 80s frontier) stays late.
	if res := e.Push(syntheticPoint(p, 2, 21, 1, 50)); res.Dropped[obs.DropLate] != 1 {
		t.Fatalf("disordered live-car point = %+v, want late", res)
	}
	// Contrast 2: a brand-new car arriving below the watermark has no
	// idle close to resume from -> late.
	if res := e.Push(syntheticPoint(p, 3, 30, 1, 5)); res.Dropped[obs.DropLate] != 1 {
		t.Fatalf("fresh car below watermark = %+v, want late", res)
	}

	// The ledger separates the two reasons and still conserves.
	st := e.Stats()
	if st.Dropped[obs.DropIdleResumed] != 2 || st.Dropped[obs.DropLate] != 2 {
		t.Fatalf("drops = %+v, want 2 idle_resumed and 2 late", st.Dropped)
	}
	var reasons map[string]uint64
	for _, stage := range lin.Snapshot(0).Stages {
		if stage.Stage == "ingest" {
			reasons = map[string]uint64{}
			for _, r := range stage.Reasons {
				reasons[r.Reason] = r.N
			}
		}
	}
	if reasons[string(obs.DropIdleResumed)] != 2 || reasons[string(obs.DropLate)] != 2 {
		t.Fatalf("ledger reasons = %+v, want 2 idle_resumed and 2 late", reasons)
	}
	e.Advance() // wait for the idle flush's round: the ledger conserves between rounds
	if err := lin.Check(); err != nil {
		t.Fatalf("lineage conservation violated: %v", err)
	}
}

// TestConcurrentPush streams several cars from separate goroutines —
// the supported deployment shape, one HTTP body per device — and
// checks nothing is lost: every point is received, the ledger
// conserves, and Close drains every buffer. Run under -race this is
// the engine's locking proof.
func TestConcurrentPush(t *testing.T) {
	lin := obs.NewLineage(nil)
	e := newTestEngine(t, Config{
		AllowedLateness: 5 * time.Second,
		WatermarkEvery:  8,
		Lineage:         lin,
	})
	p := testPipeline(t)

	const cars, perCar = 8, 200
	var wg sync.WaitGroup
	for car := 1; car <= cars; car++ {
		wg.Add(1)
		go func(car int) {
			defer wg.Done()
			for i := 0; i < perCar; i++ {
				e.Push(syntheticPoint(p, car, int64(car*10), i, int64(i+1)))
			}
		}(car)
	}
	wg.Wait()
	e.Close()

	st := e.Stats()
	if st.Received != cars*perCar {
		t.Fatalf("received = %d, want %d", st.Received, cars*perCar)
	}
	if st.OpenTrips != 0 || st.BufferedPoints != 0 {
		t.Fatalf("stats = %+v: Close must drain every buffer", st)
	}
	if err := lin.Check(); err != nil {
		t.Fatalf("lineage conservation violated: %v", err)
	}
}

// TestVisibleLatencyStampedPerRound: every point of a flush round
// becomes queryable with the round's one publish, so trips pushed
// together and closed in one round report equal ingest-to-visible
// latency, however long each trip's analysis took. The clock steps
// one second per reading.
func TestVisibleLatencyStampedPerRound(t *testing.T) {
	var ticks atomic.Int64
	reg := obs.NewRegistry()
	e := newTestEngine(t, Config{
		AllowedLateness: 5 * time.Second,
		WatermarkEvery:  1 << 20,
		Metrics:         reg,
		Now:             func() time.Time { return time.Unix(ticks.Add(1), 0) },
	})
	p := testPipeline(t)

	var pts []Point
	for car := 1; car <= 2; car++ {
		for i := int64(1); i <= 10; i++ {
			pts = append(pts, syntheticPoint(p, car, int64(car), int(i), i))
		}
	}
	e.PushBatch(pts)
	e.Close()

	if st := e.Stats(); st.ClosedTrips != 2 {
		t.Fatalf("closed trips = %d, want both in the close round", st.ClosedTrips)
	}
	h := reg.Histogram("ingest_visible_latency_seconds")
	if h.Count() != uint64(len(pts)) {
		t.Fatalf("latency observations = %d, want %d", h.Count(), len(pts))
	}
	if sum, top := h.Sum(), h.Max(); top <= 0 || sum != top*float64(len(pts)) {
		t.Fatalf("latency sum %g over %d points with max %g: the round's points were stamped at different times",
			sum, len(pts), top)
	}
}

// TestFlushPanicReachesCaller: a stage that panics while a helper
// goroutine analyses a trip panics the Close (or Advance) that ran the
// round, as a serial flush would, instead of killing the process.
// With helpers, car 1's trip holds its worker until car 2's has
// panicked, so when the caller claims the first trip, as it usually
// does, it waits while a helper panics.
func TestFlushPanicReachesCaller(t *testing.T) {
	p := testPipeline(t)
	poisoned := make(chan struct{})
	var once sync.Once
	p.Config.Faults = runner.FaultFunc(func(car int, stage string) error {
		switch {
		case stage != "clean":
		case car == 1 && runtime.GOMAXPROCS(0) > 1:
			<-poisoned
		case car == 2:
			once.Do(func() { close(poisoned) })
			panic("poisoned trip")
		}
		return nil
	})
	t.Cleanup(func() { p.Config.Faults = nil })
	e := newTestEngine(t, Config{AllowedLateness: 5 * time.Second, WatermarkEvery: 1 << 20})

	var pts []Point
	for car := 1; car <= 2; car++ {
		for i := int64(1); i <= 10; i++ {
			pts = append(pts, syntheticPoint(p, car, int64(car), int(i), i))
		}
	}
	e.PushBatch(pts)
	defer func() {
		if r := recover(); r != "poisoned trip" {
			t.Fatalf("Close recovered %v, want the stage's panic", r)
		}
	}()
	e.Close()
	t.Fatal("Close returned without the stage's panic")
}

// TestAdmissionFilters checks the online non-finite and out-of-area
// drops match the cleaning stage's first two per-point filters. The
// area filter is opt-in (like clean.Config.Area), so the shared
// pipeline temporarily gets the city's study area configured.
func TestAdmissionFilters(t *testing.T) {
	p := testPipeline(t)
	oldArea := p.Config.Clean.Area
	p.Config.Clean.Area = p.City.StudyArea
	t.Cleanup(func() { p.Config.Clean.Area = oldArea })
	e := newTestEngine(t, Config{AllowedLateness: 5 * time.Second})

	bad := syntheticPoint(p, 1, 1, 0, 1)
	bad.SpeedKmh = float64(int64(1) << 62)
	bad.SpeedKmh = bad.SpeedKmh * bad.SpeedKmh * 1e300 // +Inf
	if res := e.Push(bad); res.Dropped[obs.DropNonFinite] != 1 {
		t.Fatalf("non-finite speed = %+v, want a non_finite drop", res)
	}

	zero := syntheticPoint(p, 1, 1, 0, 1)
	zero.TimeMs = 0
	if res := e.Push(zero); res.Dropped[obs.DropNonFinite] != 1 {
		t.Fatalf("zero timestamp = %+v, want a non_finite drop", res)
	}

	out := syntheticPoint(p, 1, 1, 0, 1)
	out.Lon += 10 // ~450 km east: far outside the study area
	if res := e.Push(out); res.Dropped[obs.DropOutOfArea] != 1 {
		t.Fatalf("out-of-area point = %+v, want an out_of_area drop", res)
	}

	if st := e.Stats(); st.Admitted != 0 || st.Received != 3 {
		t.Fatalf("stats = %+v, want 3 received 0 admitted", st)
	}
}
