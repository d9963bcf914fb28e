package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/clean"
	"repro/internal/core"
	"repro/internal/mapattr"
	"repro/internal/mapmatch"
	"repro/internal/obs"
	"repro/internal/odselect"
	"repro/internal/runner"
	"repro/internal/segment"
	"repro/internal/sink"
	"repro/internal/trace"
	"repro/internal/weather"
)

// fleet_batch: a closed batch of fleetCars simulated cars as per-car
// TAXITRCB blobs. Every car is simulated on its own (no replicas), so a
// batch averages over as many distinct cars as it holds and its work
// varies little from seed to seed. runner.Run processes each
// car with Pipeline.ProcessBinaryContext on GOMAXPROCS workers and feeds
// a sink that is sealed when the batch ends (no epochs are published
// before the seal, so the stage chain does nearly all the work). One batch is one window;
// the measured phase repeats it.
var fleetPool = poolSpec{Cars: fleetCars, Trips: 3, Gate: 0.10}

const fleetCars = 1024

type fleetBench struct {
	p       *core.Pipeline
	blobs   [][]byte
	lat     []int64 // per-car processing time of the current window, ns
	tracer  *obs.Tracer
	scratch sync.Pool // *carScratch for the traced path
}

// fleetWindow is one processed batch.
type fleetWindow struct {
	elapsed     time.Duration
	busyNs      int64
	cars        int
	failed      int
	transitions int
	snap        *sink.Snapshot

	rawPoints, droppedPoints  int
	rawSegments, keptSegments int
	tripSegments, accepted    int
	matchFailed               int
}

func runFleetBatch(o options, r *report) error {
	inp, pool, err := simulatePool(o.seed, fleetPool)
	if err != nil {
		return err
	}
	fb := &fleetBench{blobs: make([][]byte, fleetCars), lat: make([]int64, fleetCars)}
	var buf bytes.Buffer
	points := 0
	for car := 1; car <= fleetCars; car++ {
		trips := pool[car-1]
		buf.Reset()
		if err := trace.WriteBinary(&buf, trips, inp.City.DB.Proj); err != nil {
			return fmt.Errorf("encode car %d: %w", car, err)
		}
		fb.blobs[car-1] = bytes.Clone(buf.Bytes())
		for _, t := range trips {
			points += len(t.Points)
		}
	}
	fmt.Fprintf(os.Stderr, "fleet_batch: %d cars (%d trips/car, gate %.2f), %d points, workers %d\n",
		fleetCars, fleetPool.Trips, fleetPool.Gate, points, runtime.GOMAXPROCS(0))

	base := liveHeapBytes()
	setup, err := timeSetup(func() error {
		p, err := buildPipeline()
		if err != nil {
			return err
		}
		if _, err := newSink(p, -1); err != nil {
			return err
		}
		fb.p = p
		return nil
	})
	if err != nil {
		return err
	}

	// Warm up: one batch fills the router's path cache and the scratch
	// pools before anything is timed.
	if _, err := fb.window(false); err != nil {
		return err
	}
	if !o.traced {
		ws, err := fb.phase(o.seconds, false, r)
		if err != nil {
			return err
		}
		// Retained: the pipeline (city, graph, router cache, scratch
		// pools) and the last batch's sealed snapshot.
		heap := liveHeapBytes() - base
		runtime.KeepAlive(fb)
		runtime.KeepAlive(ws[len(ws)-1].snap)
		var rates []float64
		var lat []int64
		for _, w := range ws {
			rates = append(rates, float64(w.cars)/w.elapsed.Seconds())
			lat = append(lat, w.lat...)
		}
		r.set("setup_s", setup, "s", setupRepeats)
		r.set("throughput_per_s", median(rates), "1/s", len(rates))
		setLatency(r, lat)
		r.set("heap_retained_mb", heap/(1<<20), "MB", 1)
		return nil
	}

	// Traced run: an untraced phase for the counters and the overhead
	// baseline, then the recomposed columnar path under spans.
	cs0, rc0 := readCPU(), fb.p.Router.CacheStats()
	plain, err := fb.phase(o.seconds/2, false, r)
	if err != nil {
		return err
	}
	cs1, rc1 := readCPU(), fb.p.Router.CacheStats()
	fb.tracer = newTracer()
	traced, err := fb.phase(o.seconds/2, true, r)
	if err != nil {
		return err
	}
	if err := compareSnapshots(traced[len(traced)-1].snap, plain[len(plain)-1].snap); err != nil {
		r.check(false, "traced recomposition disagrees with ProcessBinaryContext: %v", err)
	}

	var cars, wall, busy int64
	var agg fleetWindow
	for _, w := range plain {
		cars += int64(w.cars)
		wall += w.elapsed.Nanoseconds()
		busy += w.busyNs
		agg.rawPoints += w.rawPoints
		agg.droppedPoints += w.droppedPoints
		agg.rawSegments += w.rawSegments
		agg.keptSegments += w.keptSegments
		agg.tripSegments += w.tripSegments
		agg.accepted += w.accepted
		agg.matchFailed += w.matchFailed
	}
	s := summarize(fb.tracer, "car")
	_, tracedCars := s.self("car")
	for _, m := range [][2]string{
		{"trace.decode", "trace.decode_us_per_car"},
		{"clean", "clean.us_per_car"},
		{"segment", "segment.us_per_car"},
		{"core.materialize", "core.materialize_us_per_car"},
		{"odselect", "odselect.us_per_car"},
	} {
		us, _ := s.self(m[0])
		r.set(m[1], us/float64(max(tracedCars, 1)), "us", tracedCars)
	}
	for _, name := range []string{"mapmatch", "mapattr"} {
		us, n := s.self(name)
		r.set(name+".us_per_transition", us/float64(max(n, 1)), "us", n)
	}
	absorbUs, absorbed := s.self("sink.absorb")
	r.set("sink.absorb_us_per_car", absorbUs/float64(max(absorbed, 1)), "us", absorbed)
	sealUs, seals := s.durQuantileUs("sink.seal", 0.5)
	r.set("sink.seal_ms", sealUs/1e3, "ms", seals)
	r.set("clean.drop_ratio", ratio(agg.droppedPoints, agg.rawPoints), "ratio", agg.rawPoints)
	r.set("segment.keep_ratio", ratio(agg.keptSegments, agg.rawSegments), "ratio", agg.rawSegments)
	r.set("odselect.accept_ratio", ratio(agg.accepted, agg.tripSegments), "ratio", agg.tripSegments)
	r.set("mapmatch.fail_ratio", ratio(agg.matchFailed, agg.accepted), "ratio", agg.accepted)
	hits, misses := rc1.Hits-rc0.Hits, rc1.Misses-rc0.Misses
	r.set("roadnet.path_cache_hit_ratio", ratio(int(hits), int(hits+misses)), "ratio", int(hits+misses))
	r.set("runner.busy_ratio", float64(busy)/float64(int64(runtime.GOMAXPROCS(0))*wall), "ratio", int(cars))
	r.set("core.alloc_kb_per_car", float64(cs1.allocBytes-cs0.allocBytes)/1024/float64(cars), "kB", int(cars))
	r.set("core.gc_cpu_ratio", (cs1.gcCPU-cs0.gcCPU)/(cs1.totalCPU-cs0.totalCPU), "ratio", 1)
	s.finish(r, fb.tracer, o, "fleet_batch", overheadRatio(medianRate(plain), medianRate(traced)))
	return nil
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// timedWindow is a window plus its per-car latencies.
type timedWindow struct {
	fleetWindow
	lat []int64
}

// phase repeats batches until d has passed, checking every one.
func (fb *fleetBench) phase(seconds float64, traced bool, r *report) ([]timedWindow, error) {
	runtime.GC()
	var out []timedWindow
	start := time.Now()
	for time.Since(start).Seconds() < seconds {
		w, err := fb.window(traced)
		if err != nil {
			return nil, err
		}
		r.Attempted += int64(w.cars)
		r.Failed += int64(w.failed)
		r.check(w.failed == 0, "%d cars failed", w.failed)
		r.check(w.snap.Complete && w.snap.CarsIngested == w.cars-w.failed && w.snap.CarsFailed == w.failed,
			"sealed snapshot counts %d cars (%d failed), want %d", w.snap.CarsIngested, w.snap.CarsFailed, w.cars)
		r.check(odTrips(w.snap) == w.transitions, "sealed snapshot holds %d transitions, per-car results %d",
			odTrips(w.snap), w.transitions)
		if n := len(out); n > 0 {
			// Every batch must seal the same aggregate; only the latest
			// snapshot stays referenced.
			if err := compareSnapshots(w.snap, out[n-1].snap); err != nil {
				r.check(false, "batch %d differs from batch %d: %v", n, n-1, err)
			}
			out[n-1].snap = nil
		}
		out = append(out, timedWindow{fleetWindow: w, lat: slices.Clone(fb.lat)})
	}
	return out, nil
}

func medianRate(ws []timedWindow) float64 {
	rates := make([]float64, len(ws))
	for i, w := range ws {
		rates[i] = float64(w.cars) / w.elapsed.Seconds()
	}
	return median(rates)
}

// window runs one batch through the runner into a fresh sink and seals
// it.
func (fb *fleetBench) window(traced bool) (fleetWindow, error) {
	snk, err := newSink(fb.p, -1)
	if err != nil {
		return fleetWindow{}, err
	}
	task := fb.processCar
	if traced {
		task = fb.tracedCar
	}
	var w fleetWindow
	start := time.Now()
	st := runner.Run(context.Background(), runner.Config{Workers: runtime.GOMAXPROCS(0)}, len(fb.blobs), task)
	for ev := range st.Events() {
		w.cars++
		if ev.Err != nil {
			w.failed++
		} else {
			cr := &ev.Result
			w.transitions += len(cr.Transitions)
			w.rawPoints += cr.CleanStats.RawPoints
			w.droppedPoints += cr.CleanStats.DroppedPoints
			w.rawSegments += cr.SegStats.RawSegments
			w.keptSegments += cr.SegStats.KeptSegments
			w.tripSegments += cr.Funnel.TripSegments
			w.accepted += cr.Funnel.PostFiltered
			w.matchFailed += cr.MatchStats.Degenerate + cr.MatchStats.Unroutable
		}
		sp := fb.tracer.StartSpan("sink.absorb", ev.Car)
		snk.AbsorbEvent(ev)
		sp.End()
	}
	if err := st.Err(); err != nil {
		return w, fmt.Errorf("fleet run: %w", err)
	}
	sp := fb.tracer.StartSpan("sink.seal", 0)
	w.snap = snk.Seal()
	sp.End()
	w.elapsed = time.Since(start)
	for _, ns := range fb.lat {
		w.busyNs += ns
	}
	return w, nil
}

// processCar is the production path: one call per car.
func (fb *fleetBench) processCar(ctx context.Context, car int) (core.CarResult, error) {
	start := time.Now()
	cr, err := fb.p.ProcessBinaryContext(ctx, car, bytes.NewReader(fb.blobs[car-1]))
	fb.lat[car-1] = time.Since(start).Nanoseconds()
	return cr, err
}

// carScratch is the traced path's per-car reusable state, mirroring the
// pipeline's own columnar scratch.
type carScratch struct {
	arena   *trace.Arena
	clean   clean.Scratch
	br      trace.BinaryReader
	views   []trace.ColTrip
	cleaned []trace.ColTrip
	segs    []trace.ColTrip
}

func (fb *fleetBench) getScratch() *carScratch {
	if sc, ok := fb.scratch.Get().(*carScratch); ok {
		return sc
	}
	return &carScratch{arena: trace.NewArena(0)}
}

func (fb *fleetBench) putScratch(sc *carScratch) {
	sc.arena.Reset()
	sc.views, sc.cleaned, sc.segs = sc.views[:0], sc.cleaned[:0], sc.segs[:0]
	fb.scratch.Put(sc)
}

// tracedCar recomposes ProcessBinaryContext's columnar path from the
// layers' public functions, with a span around each call: binary decode
// into an arena, columnar cleaning and segmentation, materialisation,
// OD selection, then map-matching and attribute fetching per accepted
// transition. All spans of one car share its id.
func (fb *fleetBench) tracedCar(_ context.Context, car int) (core.CarResult, error) {
	start := time.Now()
	defer func() { fb.lat[car-1] = time.Since(start).Nanoseconds() }()
	p := fb.p
	root := fb.tracer.StartSpan("car", car)
	defer root.End()
	sc := fb.getScratch()
	defer fb.putScratch(sc)
	cr := core.CarResult{Car: car}

	sp := root.Child("trace.decode")
	err := sc.br.Reset(bytes.NewReader(fb.blobs[car-1]), p.City.DB.Proj)
	for err == nil {
		var v trace.ColTrip
		v, err = sc.br.Next(sc.arena)
		if err == nil {
			sc.views = append(sc.views, v)
		}
	}
	sp.End()
	if err != io.EOF {
		return cr, fmt.Errorf("decode car %d: %w", car, err)
	}
	slices.SortStableFunc(sc.views, func(a, b trace.ColTrip) int {
		switch {
		case a.ID < b.ID:
			return -1
		case a.ID > b.ID:
			return 1
		}
		return 0
	})
	cr.RawTrips = len(sc.views)

	sp = root.Child("clean")
	for _, v := range sc.views {
		cr.CleanStats.RawPoints += v.Len()
		res := clean.RepairColumns(v, p.Config.Clean, sc.arena, &sc.clean)
		if res.Trip.N > 0 {
			sc.cleaned = append(sc.cleaned, res.Trip)
			cr.CleanStats.KeptPoints += res.Trip.N
		}
		cr.CleanStats.DroppedPoints += res.Dropped
	}
	sp.End()

	sp = root.Child("segment")
	for _, v := range sc.cleaned {
		sc.segs = segment.SplitColumns(v, p.Rules, &cr.SegStats, sc.segs)
	}
	sp.End()

	sp = root.Child("core.materialize")
	cr.Segments = trace.MaterializeAll(sc.segs, true)
	sp.End()

	sp = root.Child("odselect")
	funnel, accepted := p.Selector.Run(car, cr.Segments)
	sp.End()
	cr.Funnel = funnel

	for _, tr := range accepted {
		if rec := fb.tracedTransition(root, car, tr, &cr.MatchStats); rec != nil {
			cr.Transitions = append(cr.Transitions, rec)
		}
	}
	return cr, nil
}

// tracedTransition map-matches one accepted transition and derives its
// record the way the pipeline does.
func (fb *fleetBench) tracedTransition(root obs.TraceSpan, car int, tr *odselect.Transition, ms *core.MatchStats) *core.TransitionRecord {
	p := fb.p
	lo, hi := tr.FromCross.EntryIndex, tr.ToCross.ExitIndex
	if lo > hi {
		lo, hi = hi, lo
	}
	span := tr.Seg.Points[lo : hi+1]
	if len(span) < 2 {
		ms.Degenerate++
		return nil
	}
	sp := root.Child("mapmatch")
	match, err := p.Matcher.Match(span)
	sp.End()
	if err != nil {
		ms.Unroutable++
		return nil
	}
	sp = root.Child("mapattr")
	attrs := p.Fetcher.ForMatch(match)
	sp.End()
	sp = root.Child("core.analyse")
	rec := transitionRecord(p, car, tr, span, match, attrs)
	sp.End()
	ms.Matched++
	return rec
}

// transitionRecord derives the Table 4 metrics of one matched
// transition, as the pipeline's per-transition analysis does.
func transitionRecord(p *core.Pipeline, car int, tr *odselect.Transition, span []trace.RoutePoint,
	match *mapmatch.Result, attrs mapattr.RouteAttributes) *core.TransitionRecord {
	first, last := span[0], span[len(span)-1]
	rec := &core.TransitionRecord{
		Car:         car,
		Transition:  tr,
		Match:       match,
		Attrs:       attrs,
		Season:      weather.SeasonOf(first.Time),
		TempClass:   p.Weather.ClassAt(first.Time),
		RouteTimeH:  last.Time.Sub(first.Time).Hours(),
		RouteDistKm: match.Geometry.Length() / 1000,
		FuelMl:      last.FuelMl - first.FuelMl,
	}
	var low, normal, total float64
	for i := 0; i < len(span)-1; i++ {
		dt := span[i+1].Time.Sub(span[i].Time).Seconds()
		if dt <= 0 {
			continue
		}
		total += dt
		if span[i].SpeedKmh < core.LowSpeedKmh {
			low += dt
		}
		if i < len(match.Points) && !match.Points[i].Skipped &&
			span[i].SpeedKmh >= p.Graph.Edges[match.Points[i].Edge].SpeedLimitKmh-core.NormalSpeedToleranceKmh {
			normal += dt
		}
	}
	if total > 0 {
		rec.LowSpeedPct = 100 * low / total
		rec.NormalSpeedPct = 100 * normal / total
	}
	return rec
}
