package ingest

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
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

// TestCloseTwiceCompletesEachCarOnce: a repeated close (two close
// requests, or a close followed by shutdown) must not complete any car
// again or publish another epoch; a concurrent second caller returns
// only once the stream is sealed.
func TestCloseTwiceCompletesEachCarOnce(t *testing.T) {
	p := testPipeline(t)
	s := newDiffSink(t, p)
	e := newTestEngine(t, Config{Sink: s, AllowedLateness: 5 * time.Second})
	const cars = 3
	for car := 1; car <= cars; car++ {
		for sec := int64(1); sec <= 5; sec++ {
			e.Push(syntheticPoint(p, car, int64(car*100), int(sec), sec))
		}
	}

	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.Close()
			if !s.Snapshot().Complete {
				t.Error("Close returned before the sink was sealed")
			}
		}()
	}
	wg.Wait()
	first := s.Snapshot()
	if first.CarsIngested != cars {
		t.Fatalf("cars ingested = %d after two concurrent closes, want %d", first.CarsIngested, cars)
	}

	e.Close()
	if again := s.Snapshot(); again.Epoch != first.Epoch || again.CarsIngested != first.CarsIngested {
		t.Fatalf("another Close moved the snapshot: epoch %d -> %d, cars %d -> %d",
			first.Epoch, again.Epoch, first.CarsIngested, again.CarsIngested)
	}
}

// bufRow is one buffered point as the stage driver reads it: floats as
// their bit patterns, so equal rows are bit-identical.
type bufRow struct {
	seq    int32
	timeNs int64
	bits   [5]uint64 // x, y, speed, fuel, dist
}

// TestOpenTripBlockBoundaries: trips whose lengths fall on and around
// the buffer's block boundaries, interleaved and pushed in shuffled
// batches of random size, each reach analysis as a view bit-identical
// to their points in arrival order. Before Close the buffered-point
// count and gauge equal the points pushed; after it the visible
// latency histogram holds one observation per admitted point.
func TestOpenTripBlockBoundaries(t *testing.T) {
	p := testPipeline(t)
	reg := obs.NewRegistry()
	e := newTestEngine(t, Config{Metrics: reg, WatermarkEvery: math.MaxInt})
	type tripKey struct {
		car int
		id  int64
	}
	lengths := []int{1, blockLen - 1, blockLen, blockLen + 1, 2 * blockLen, 2*blockLen + 1, 1000}
	var pts []Point
	for k, n := range lengths {
		for j := 0; j < n; j++ {
			pt := syntheticPoint(p, k%3+1, int64(10+k), j, int64(1+j))
			pt.Lon += float64(j) * 1e-6
			pt.Lat -= float64(k) * 1e-6
			pt.SpeedKmh, pt.FuelMl, pt.DistM = float64(j)/3, float64(k)+float64(j)/7, float64(j)*1.1
			pts = append(pts, pt)
		}
	}
	rng := rand.New(rand.NewSource(27))
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })

	want := map[tripKey][]bufRow{}
	for _, pt := range pts {
		pos := p.City.DB.Proj.ToXY(geo.Point{Lon: pt.Lon, Lat: pt.Lat})
		k := tripKey{pt.Car, pt.Trip}
		want[k] = append(want[k], bufRow{int32(pt.Seq), pt.TimeMs * int64(time.Millisecond), [5]uint64{
			math.Float64bits(pos.X), math.Float64bits(pos.Y),
			math.Float64bits(pt.SpeedKmh), math.Float64bits(pt.FuelMl), math.Float64bits(pt.DistM)}})
	}
	var mu sync.Mutex
	got := map[tripKey][]bufRow{}
	e.analysed = func(v trace.ColTrip) {
		rows := make([]bufRow, v.Len())
		for i := range rows {
			rows[i] = bufRow{v.PointID(i), v.TimeNs(i), [5]uint64{
				math.Float64bits(v.Pos(i).X), math.Float64bits(v.Pos(i).Y),
				math.Float64bits(v.Speed(i)), math.Float64bits(v.Fuel(i)), math.Float64bits(v.Dist(i))}}
		}
		mu.Lock()
		defer mu.Unlock()
		got[tripKey{v.CarID, v.ID}] = rows
	}

	for pushed := 0; pushed < len(pts); {
		n := min(1+rng.Intn(200), len(pts)-pushed)
		if res := e.PushBatch(pts[pushed : pushed+n]); res.Admitted != n {
			t.Fatalf("push of %d points admitted %d: %+v", n, res.Admitted, res)
		}
		pushed += n
		st := e.Stats()
		if gauge := reg.Gauge("ingest_buffered_points").Value(); st.BufferedPoints != pushed || gauge != int64(pushed) {
			t.Fatalf("after %d points: buffered %d, ingest_buffered_points %d", pushed, st.BufferedPoints, gauge)
		}
	}
	e.Close()

	if len(got) != len(lengths) {
		t.Fatalf("analysis saw %d trips, want %d", len(got), len(lengths))
	}
	for k, w := range want {
		g := got[k]
		if len(g) != len(w) {
			t.Fatalf("car %d trip %d: view of %d points, pushed %d", k.car, k.id, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("car %d trip %d: point %d reads %+v, pushed %+v", k.car, k.id, i, g[i], w[i])
			}
		}
	}
	if n := reg.Histogram("ingest_visible_latency_seconds").Count(); n != uint64(len(pts)) {
		t.Fatalf("ingest_visible_latency_seconds counts %d points, %d were admitted", n, len(pts))
	}
}

// TestAdmissionAllocatesPerBlock: admission allocates a block per
// blockLen points, not a slice growth per point. A warm engine that
// never steps admits 64 interleaved open trips of 2,048 points each in
// 512-point batches; past the first batch, which opens the trips, it
// may allocate at most 72 B and 1/48 allocations per point. A 4,096 B
// block per 64 points is 64 B and 1/64; the rest is the block lists
// growing by doubling.
func TestAdmissionAllocatesPerBlock(t *testing.T) {
	p := testPipeline(t)
	e := newTestEngine(t, Config{WatermarkEvery: math.MaxInt})
	const trips, perTrip, batch = 64, 2048, 512
	pts := make([]Point, 0, trips*perTrip)
	for j := 0; j < perTrip; j++ {
		for k := 0; k < trips; k++ {
			pts = append(pts, syntheticPoint(p, 1+k/4, int64(k), j, int64(1+j)))
		}
	}
	e.PushBatch(pts[:batch])

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := batch; i < len(pts); i += batch {
		if res := e.PushBatch(pts[i : i+batch]); res.Admitted != batch {
			t.Fatalf("push admitted %d of %d points", res.Admitted, batch)
		}
	}
	runtime.ReadMemStats(&after)
	n := float64(len(pts) - batch)
	bytes, allocs := float64(after.TotalAlloc-before.TotalAlloc)/n, float64(after.Mallocs-before.Mallocs)/n
	t.Logf("admission: %.1f B and %.4f allocations per point", bytes, allocs)
	if bytes > 72 || allocs > 1.0/48 {
		t.Fatalf("admission allocates %.1f B and %.4f allocations per point, want at most 72 B and 1/48",
			bytes, allocs)
	}
}

// TestWatermarkStepMatchesFullScan is the admission and watermark-step
// differential: random streams of cars with several trips open at once
// (and points of a trip arriving after the next trip has started),
// cars going idle past the idle timeout and resuming, late points,
// shuffled arrival, and points pushed after Close, go through the
// engine and through the full-scan reference (oracle_test.go). Every
// push must admit and drop alike, and every step must give the same
// watermark, close the same trips in the same order with the same
// buffered points, and leave the same Stats.
func TestWatermarkStepMatchesFullScan(t *testing.T) {
	p := testPipeline(t)
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pts := stepStream(p, rng)
		cfg := Config{
			WatermarkEvery:  math.MaxInt,
			AllowedLateness: time.Duration(5+rng.Intn(40)) * time.Second,
			IdleTimeout:     time.Duration(2+rng.Intn(5)) * time.Minute,
			Now:             func() time.Time { return time.Unix(0, seed) },
		}
		got, ref := newTestEngine(t, cfg), newTestEngine(t, cfg)
		steps, closedTrips := 0, 0
		step := func(where string) {
			got.mu.Lock()
			gc := got.advanceLocked()
			got.mu.Unlock()
			ref.mu.Lock()
			rc := ref.advanceScan()
			ref.mu.Unlock()
			steps++
			closedTrips += len(rc)
			if g, w := got.Watermark(), ref.Watermark(); g != w {
				t.Fatalf("seed %d, %s: watermark %d, full scan %d", seed, where, g, w)
			}
			if len(gc) != len(rc) {
				t.Fatalf("seed %d, %s: %d trips closed, full scan %d", seed, where, len(gc), len(rc))
			}
			for i := range rc {
				g, w := gc[i], rc[i]
				if g.car != w.car || g.tb.id != w.tb.id || g.tb.n != w.tb.n ||
					g.tb.minMs != w.tb.minMs || g.tb.maxMs != w.tb.maxMs || len(g.tb.blocks) != len(w.tb.blocks) {
					t.Fatalf("seed %d, %s: closed trip %d is car %d trip %d (%d points), full scan car %d trip %d (%d points)",
						seed, where, i, g.car, g.tb.id, g.tb.n, w.car, w.tb.id, w.tb.n)
				}
				for k := range w.tb.blocks {
					if *g.tb.blocks[k] != *w.tb.blocks[k] {
						t.Fatalf("seed %d, %s: car %d trip %d: block %d differs", seed, where, w.car, w.tb.id, k)
					}
				}
			}
			if g, w := got.Stats(), ref.Stats(); !reflect.DeepEqual(g, w) {
				t.Fatalf("seed %d, %s: stats %+v, full scan %+v", seed, where, g, w)
			}
		}
		push := func(batch []Point, where string) {
			res := got.PushBatch(batch)
			ref.mu.Lock()
			want := ref.pushScan(batch, seed)
			ref.mu.Unlock()
			if !reflect.DeepEqual(res, want) {
				t.Fatalf("seed %d, %s: push %+v, full scan %+v", seed, where, res, want)
			}
		}
		for pushed := 0; pushed < len(pts); {
			n := min(1+rng.Intn(160), len(pts)-pushed)
			push(pts[pushed:pushed+n], fmt.Sprintf("push at point %d", pushed))
			pushed += n
			if rng.Intn(3) > 0 {
				step(fmt.Sprintf("step after point %d", pushed))
			}
		}
		got.closing, ref.closing = true, true
		step("close")
		half := len(pts) / 2
		push(pts[half:min(half+50, len(pts))], "push after close")
		step("step after close")
		if st := ref.Stats(); st.OpenTrips != 0 || st.ClosedTrips != uint64(closedTrips) || closedTrips == 0 {
			t.Fatalf("seed %d: %d open trips and %d closed after close, %d closed by steps", seed, st.OpenTrips, st.ClosedTrips, closedTrips)
		}
		t.Logf("seed %d: %d points, %d steps, %d trips closed, drops %v", seed, len(pts), steps, closedTrips, ref.Stats().Dropped)
	}
}

// stepStream returns one random stream for the step differential:
// 6–30 cars, each with 1–6 trips whose ids do not follow event time.
// A car's next trip starts before, at or after its last trip's end, so
// a trip's points may keep arriving after the next trip's start. Some
// cars fall silent for longer than any idle timeout the test picks,
// before their next trip or before resuming the same one, whose points
// after the silence are then dropped as idle_resumed. Arrival is
// shuffled within 64-point windows, and a few points are re-sent far
// behind the stream, so they arrive late or after their trip closed.
func stepStream(p *core.Pipeline, rng *rand.Rand) []Point {
	var pts []Point
	cars := 6 + rng.Intn(25)
	for car := 1; car <= cars; car++ {
		at := int64(rng.Intn(600)) // seconds
		ids := rng.Perm(1000)
		for trip := range 1 + rng.Intn(6) {
			id := int64(ids[trip])
			n := 1 + rng.Intn(150)
			if rng.Intn(8) == 0 {
				n += blockLen
			}
			for j := range n {
				pts = append(pts, syntheticPoint(p, car, id, j, at))
				at += int64(1 + rng.Intn(20))
			}
			switch rng.Intn(5) {
			case 0: // the next trip starts before this one's last point
				at -= int64(rng.Intn(60))
			case 1: // the car falls silent past the idle timeout
				at += int64(420 + rng.Intn(1200))
			case 2: // ... and then resumes the same trip
				at += int64(420 + rng.Intn(1200))
				for j := range 1 + rng.Intn(5) {
					pts = append(pts, syntheticPoint(p, car, id, n+j, at))
					at += int64(1 + rng.Intn(20))
				}
			default:
				at += int64(rng.Intn(90))
			}
		}
	}
	slices.SortStableFunc(pts, func(a, b Point) int { return cmp.Compare(a.TimeMs, b.TimeMs) })
	ShuffleWindows(pts, 64, 40_000, rng.Int63())
	for range len(pts) / 40 {
		i, j := rng.Intn(len(pts)), rng.Intn(len(pts))
		if i < j {
			i, j = j, i
		}
		pts = slices.Insert(pts, i, pts[j])
	}
	return pts
}
