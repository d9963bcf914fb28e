package ingest

import (
	"cmp"
	"context"
	"fmt"
	"log/slog"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/sink"
	"repro/internal/trace"
)

// Config assembles one ingest engine.
type Config struct {
	// Pipeline supplies the processing stages (cleaning configuration,
	// segmentation rules, OD selector, matcher, attribute fetcher) and
	// the city projection. Required.
	Pipeline *core.Pipeline
	// Sink receives flushed transitions; trips close into it and a new
	// epoch is published after every flush round, so live snapshots
	// advance as the watermark does. A round flushes on a goroutine of
	// its own: a push returns once its round has started, and Advance
	// and Close return once it has published. Nil runs the engine
	// without a serving layer (the differential tests read Stats
	// instead).
	Sink *sink.Sink
	// AllowedLateness is how far behind a car's newest event time a
	// point may arrive before it is dropped as late; it bounds the
	// out-of-orderness buffer. Default 30s.
	AllowedLateness time.Duration
	// IdleTimeout is the event-time silence after which a car stops
	// holding the low watermark back (and its open trips become
	// closeable) — the "car went silent mid-trip" policy. Default
	// 10 minutes.
	IdleTimeout time.Duration
	// WatermarkEvery recomputes the watermark (and flushes newly
	// closeable trips) every N received points, dropped ones included.
	// Default 256.
	WatermarkEvery int
	// Metrics receives ingest_* instrumentation; nil disables.
	Metrics *obs.Registry
	// Lineage receives the streaming drop-reason ledger: stages
	// "ingest" and "clean" in points, "segment" and "odselect" in
	// segments, "mapmatch" in transitions, each conserving
	// in = out + Σ dropped. Nil disables.
	Lineage *obs.Lineage
	// Log receives one structured line per flush round; nil disables.
	Log *slog.Logger
	// Now is the wall-clock source for the ingest-to-visible latency
	// histogram (test hook); nil selects time.Now.
	Now func() time.Time
}

func (c Config) withDefaults() (Config, error) {
	if c.Pipeline == nil {
		return c, fmt.Errorf("ingest: Config.Pipeline is required")
	}
	if c.AllowedLateness <= 0 {
		c.AllowedLateness = 30 * time.Second
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 10 * time.Minute
	}
	if c.WatermarkEvery <= 0 {
		c.WatermarkEvery = 256
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c, nil
}

// unsetWatermark marks "no watermark yet": nothing is late before the
// first advance.
const unsetWatermark = math.MinInt64

// Engine is the event-time ingestion state machine. Construct with
// New; Push, PushBatch, Advance and Close are safe for concurrent use.
type Engine struct {
	cfg  Config
	proj *geo.Projection
	area geo.Rect // out-of-area filter (disabled when empty), from Config.Pipeline

	// wm is the low watermark in Unix ms, read lock-free on the
	// admission path.
	wm atomic.Int64

	// mu guards the per-car buffers and the watermark bookkeeping;
	// trip processing (cleaning, segmentation, matching) always runs
	// outside it.
	mu   sync.Mutex
	cars map[int]*carState // every car ever seen
	// active holds exactly the cars with an open trip, so a watermark
	// step costs the active fleet, not the stream's history.
	active      []*carState
	globalMaxMs int64
	seenPoints  bool
	sinceAdv    int
	closing     bool
	drops       map[obs.DropReason]uint64
	received    uint64
	admitted    uint64
	closedTrips uint64

	lin    linHandles
	ledger *core.Ledger // clean → mapmatch rows, one commit per flushed trip
	met    engineMetrics

	// stepMu orders watermark steps and their hand-offs: a step, its
	// wait for the running round and the start of its own round happen
	// under it, so rounds start, fold and publish in step order. A round
	// never takes it, and it is never acquired while mu is held.
	stepMu sync.Mutex
	// running is the round the last hand-off started, until a caller
	// has waited for it; guarded by stepMu.
	running *round
	// closeOnce makes Close idempotent: every car is completed in the
	// sink exactly once, and a concurrent second caller returns only
	// after the first has sealed.
	closeOnce sync.Once
}

// carState is one device's online state machine.
type carState struct {
	car   int
	maxMs int64
	open  []*tripBuf // sorted by (minMs, id) at each watermark step
	// closed holds every flushed trip id. Trip ids need not follow
	// event time (a new trip may carry a lower id than a closed one),
	// so no per-car id frontier can stand in for the set.
	closed map[int64]struct{}
}

// trip returns the car's open trip with the given id, or nil.
func (cs *carState) trip(id int64) *tripBuf {
	for _, tb := range cs.open {
		if tb.id == id {
			return tb
		}
	}
	return nil
}

// tripBuf buffers one open trip in arrival order, in the columns the
// stage driver reads at flush.
type tripBuf struct {
	id           int64
	minMs, maxMs int64
	cols         trace.Columns
	recvNs       []int64 // wall receive time per point, for visible latency
}

// byStart orders a car's open trips by first event time, then id.
func byStart(a, b *tripBuf) int {
	if c := cmp.Compare(a.minMs, b.minMs); c != 0 {
		return c
	}
	return cmp.Compare(a.id, b.id)
}

// linHandles are the ledger rows of ingest's own admission stage; the
// stage rows downstream of it belong to the engine's core.Ledger.
type linHandles struct {
	ingest                                          *obs.StageLineage
	inNonFinite, inOutOfArea, inLate, inIdleResumed *obs.DropCounter
}

func newLinHandles(l *obs.Lineage) linHandles {
	h := linHandles{ingest: l.Stage("ingest", "points")}
	h.inNonFinite = h.ingest.Reason(obs.DropNonFinite)
	h.inOutOfArea = h.ingest.Reason(obs.DropOutOfArea)
	h.inLate = h.ingest.Reason(obs.DropLate)
	h.inIdleResumed = h.ingest.Reason(obs.DropIdleResumed)
	return h
}

type engineMetrics struct {
	received    *obs.Counter
	admitted    *obs.Counter
	tripsClosed *obs.Counter
	flushes     *obs.Counter
	watermark   *obs.Gauge
	openTrips   *obs.Gauge
	bufPoints   *obs.Gauge
	latency     *obs.Histogram
	flushTime   *obs.Histogram
	handoffWait *obs.Histogram
}

// New builds an engine over the pipeline's stages.
func New(cfg Config) (*Engine, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	reg := cfg.Metrics
	lin := newLinHandles(cfg.Lineage) // registers "ingest" ahead of the ledger's rows
	e := &Engine{
		cfg:    cfg,
		proj:   cfg.Pipeline.City.DB.Proj,
		area:   cfg.Pipeline.Config.Clean.Area,
		cars:   map[int]*carState{},
		drops:  map[obs.DropReason]uint64{},
		lin:    lin,
		ledger: core.NewLedger(cfg.Lineage),
		met: engineMetrics{
			received:    reg.Counter("ingest_points_received"),
			admitted:    reg.Counter("ingest_points_admitted"),
			tripsClosed: reg.Counter("ingest_trips_closed"),
			flushes:     reg.Counter("ingest_flushes"),
			watermark:   reg.Gauge("ingest_watermark_ms"),
			openTrips:   reg.Gauge("ingest_open_trips"),
			bufPoints:   reg.Gauge("ingest_buffered_points"),
			latency:     reg.Histogram("ingest_visible_latency_seconds"),
			flushTime:   reg.Histogram("ingest_flush_seconds"),
			handoffWait: reg.Histogram("ingest_handoff_wait_seconds"),
		},
	}
	e.wm.Store(unsetWatermark)
	return e, nil
}

// PushResult reports what one Push/PushBatch did.
type PushResult struct {
	Received int
	Admitted int
	// Dropped counts rejected points by reason (nil when none).
	Dropped map[obs.DropReason]int
	// WatermarkMs is the low watermark after the call (Unix ms;
	// math.MinInt64 while unset).
	WatermarkMs int64
}

// Push admits one event.
func (e *Engine) Push(p Point) PushResult {
	return e.PushBatch([]Point{p})
}

// PushBatch admits a batch of events, then steps the watermark if the
// recomputation cadence is due. The trips a step closes flush in a
// round on a goroutine of its own, so PushBatch returns once that
// round has started, not once it has published; the producer admits
// its next batch while the round runs. A step that closes trips while
// the previous round still runs waits for it first: that wait is the
// engine's backpressure.
func (e *Engine) PushBatch(pts []Point) PushResult {
	res := PushResult{Received: len(pts)}
	now := e.cfg.Now().UnixNano()
	due := false

	e.mu.Lock()
	for i := range pts {
		if reason, ok := e.admitLocked(&pts[i], now); ok {
			res.Admitted++
		} else {
			if res.Dropped == nil {
				res.Dropped = map[obs.DropReason]int{}
			}
			res.Dropped[reason]++
		}
	}
	e.sinceAdv += len(pts)
	if e.sinceAdv >= e.cfg.WatermarkEvery {
		e.sinceAdv = 0
		due = true
	}
	e.mu.Unlock()

	e.met.received.Add(uint64(res.Received))
	e.met.admitted.Add(uint64(res.Admitted))
	if due {
		e.stepMu.Lock()
		defer e.stepMu.Unlock()
		e.step()
	}
	res.WatermarkMs = e.wm.Load()
	return res
}

// admitLocked runs the online admission checks for one event and
// buffers it. The non-finite and out-of-area predicates are exactly
// the first two filters of clean.Repair, applied per point at the
// door; removing them here leaves the trip-close Repair (ordering,
// duplicates, spikes) with identical results, so streaming admission
// stays value-equivalent to batch cleaning. A point outside the wire
// bounds (checkBounds) has no representation in the trip buffer and
// is dropped as non_finite too, however it was pushed.
func (e *Engine) admitLocked(p *Point, recvNs int64) (obs.DropReason, bool) {
	e.received++
	pos := e.proj.ToXY(geo.Point{Lon: p.Lon, Lat: p.Lat})
	if checkBounds(*p) != nil || p.TimeMs == 0 || !finite(pos.X) || !finite(pos.Y) ||
		!finite(p.SpeedKmh) || !finite(p.FuelMl) || !finite(p.DistM) {
		return e.dropLocked(p.Car, obs.DropNonFinite, e.lin.inNonFinite), false
	}
	if e.area.Area() > 0 && !e.area.Contains(pos) {
		return e.dropLocked(p.Car, obs.DropOutOfArea, e.lin.inOutOfArea), false
	}
	cs := e.cars[p.Car]
	if cs == nil {
		cs = &carState{car: p.Car, closed: map[int64]struct{}{}}
		e.cars[p.Car] = cs
	}
	if wm := e.wm.Load(); wm != unsetWatermark && p.TimeMs < wm {
		reason, dc := e.staleReason(cs, p)
		return e.dropLocked(p.Car, reason, dc), false
	}
	if _, done := cs.closed[p.Trip]; done {
		reason, dc := e.staleReason(cs, p)
		return e.dropLocked(p.Car, reason, dc), false
	}
	tb := cs.trip(p.Trip)
	if tb == nil {
		if len(cs.open) == 0 {
			e.active = append(e.active, cs)
		}
		tb = &tripBuf{id: p.Trip, minMs: p.TimeMs, maxMs: p.TimeMs}
		cs.open = append(cs.open, tb)
		e.met.openTrips.Add(1)
	}
	tb.cols.Append(int32(p.Seq), p.TimeMs*int64(time.Millisecond), pos, p.SpeedKmh, p.FuelMl, p.DistM)
	tb.recvNs = append(tb.recvNs, recvNs)
	if p.TimeMs < tb.minMs {
		tb.minMs = p.TimeMs
	}
	if p.TimeMs > tb.maxMs {
		tb.maxMs = p.TimeMs
	}
	if p.TimeMs > cs.maxMs || cs.maxMs == 0 {
		cs.maxMs = p.TimeMs
	}
	if p.TimeMs > e.globalMaxMs || !e.seenPoints {
		e.globalMaxMs = p.TimeMs
	}
	e.seenPoints = true
	e.admitted++
	e.met.bufPoints.Add(1)
	e.lin.ingest.Add(1, 1)
	return "", true
}

// staleReason classifies a rejected stale point. A dormant car — one
// whose every trip has been flushed — sending a point NEWER than
// everything it ever sent is not disordered data: the car went idle,
// the watermark passed it, and it is now resuming. Those are reported
// as idle_resumed so resurrection after an idle close is visible
// separately from genuine late arrivals. A car with an open trip is
// live, and a never-admitted car (cs.maxMs == 0) has no idle close to
// resume from; both stay "late".
func (e *Engine) staleReason(cs *carState, p *Point) (obs.DropReason, *obs.DropCounter) {
	if len(cs.open) == 0 && cs.maxMs != 0 && p.TimeMs > cs.maxMs {
		return obs.DropIdleResumed, e.lin.inIdleResumed
	}
	return obs.DropLate, e.lin.inLate
}

// dropLocked counts one rejected point; the caller holds e.mu.
func (e *Engine) dropLocked(car int, reason obs.DropReason, dc *obs.DropCounter) obs.DropReason {
	e.drops[reason]++
	dc.Add(1)
	// One unit in, zero out: attributes the drop to the car in the
	// ledger's per-car table.
	e.lin.ingest.RecordCar(car, 1, 0)
	return reason
}

// closedTrip is one trip extracted for flushing.
type closedTrip struct {
	car int
	tb  *tripBuf
}

// round is one watermark round's flush, running on its own goroutine.
type round struct {
	done     chan struct{} // closed once the round has published or panicked
	panicked any           // the stage panic the round recovered; read after done
}

// Advance recomputes the low watermark, hands the trips it closes to a
// new round and returns once the running round has published. Push
// steps on the recomputation cadence without that wait; owners may
// call Advance directly (e.g. on a wall-clock tick for slow streams)
// and use it as a synchronisation point: every trip closed before it
// returns has been folded into the ledger and the sink.
func (e *Engine) Advance() {
	e.stepMu.Lock()
	defer e.stepMu.Unlock()
	e.step()
	e.wait()
}

// step recomputes the watermark and hands the trips it closes to a new
// round. The caller holds stepMu.
func (e *Engine) step() {
	e.mu.Lock()
	closed := e.advanceLocked()
	e.mu.Unlock()
	e.handOff(closed)
}

// handOff starts the round that flushes closed. One round runs at a
// time and none waits in a queue: if the previous round is still
// running, handOff waits for it first and records the wait in
// ingest_handoff_wait_seconds. A queue would only let trips closed
// since then wait unpublished behind it, and hold their buffers. If the
// previous round panicked, handOff raises that panic once its own round
// has started, so none of the trips this step closed is lost. The
// caller holds stepMu.
func (e *Engine) handOff(closed []closedTrip) {
	if len(closed) == 0 {
		return
	}
	var prev any
	if r := e.running; r != nil {
		select {
		case <-r.done:
		default:
			start := e.cfg.Now()
			<-r.done
			e.met.handoffWait.Observe(e.cfg.Now().Sub(start).Seconds())
		}
		prev = r.panicked
	}
	r := &round{done: make(chan struct{})}
	e.running = r
	go func() {
		defer close(r.done)
		defer func() { r.panicked = recover() }()
		e.flush(closed)
	}()
	if prev != nil {
		panic(prev)
	}
}

// wait returns once the running round, if any, has published, and
// raises the panic it recovered. The caller holds stepMu.
func (e *Engine) wait() {
	r := e.running
	if r == nil {
		return
	}
	e.running = nil
	<-r.done
	if r.panicked != nil {
		panic(r.panicked)
	}
}

// advanceLocked recomputes the watermark from the active cars' maxima,
// extracts every newly closeable trip, marks it closed, counts it out
// of the open set (Stats and the ingest_trips_closed, ingest_open_trips
// and ingest_buffered_points signals) and drops cars left without an
// open trip from the active set; the caller holds e.mu and hands the
// returned trips to a round outside it.
func (e *Engine) advanceLocked() []closedTrip {
	if !e.seenPoints {
		return nil
	}
	latenessMs := e.cfg.AllowedLateness.Milliseconds()
	idleMs := e.cfg.IdleTimeout.Milliseconds()

	var wm int64
	if e.closing {
		wm = math.MaxInt64
	} else {
		// A car with nothing pending is not active, so it cannot pin
		// the watermark.
		minActive := int64(math.MaxInt64)
		for _, cs := range e.active {
			if e.globalMaxMs-cs.maxMs > idleMs {
				continue // silent car: excluded so the watermark still advances
			}
			if cs.maxMs < minActive {
				minActive = cs.maxMs
			}
		}
		if minActive == math.MaxInt64 {
			wm = e.globalMaxMs - latenessMs
		} else {
			wm = minActive - latenessMs
		}
		if cur := e.wm.Load(); cur != unsetWatermark && wm < cur {
			wm = cur // watermarks never regress
		}
	}
	e.wm.Store(wm)
	if wm != math.MaxInt64 {
		e.met.watermark.Set(wm)
	}

	var out []closedTrip
	points := 0
	active := e.active[:0]
	for _, cs := range e.active {
		idle := e.closing || e.globalMaxMs-cs.maxMs > idleMs
		slices.SortFunc(cs.open, byStart)
		open := cs.open[:0] // the trips kept, compacted in place behind the scan
		for i, tb := range cs.open {
			// A trip may close once no in-flight point can still belong
			// to it: when a newer trip of the same car has been seen, all
			// of this trip precedes that trip's first point, so the
			// watermark passing it proves the buffer is complete. With no
			// newer trip the bound falls back to the trip's own maximum —
			// taken only for idle (or closing) cars, which is the
			// documented lateness policy rather than an equivalence-safe
			// bound.
			bound := tb.maxMs
			if i+1 < len(cs.open) {
				bound = max(tb.maxMs, cs.open[i+1].minMs)
			} else if !idle {
				open = append(open, tb)
				continue
			}
			if wm > bound {
				cs.closed[tb.id] = struct{}{}
				out = append(out, closedTrip{car: cs.car, tb: tb})
				points += tb.cols.Len()
			} else {
				open = append(open, tb)
			}
		}
		clear(cs.open[len(open):])
		cs.open = open
		if len(open) > 0 {
			active = append(active, cs)
		}
	}
	clear(e.active[len(active):])
	e.active = active
	e.closedTrips += uint64(len(out))
	e.met.tripsClosed.Add(uint64(len(out)))
	e.met.openTrips.Add(-int64(len(out)))
	e.met.bufPoints.Add(-int64(points))
	// Deterministic flush order (the active set is in arrival order).
	slices.SortFunc(out, func(a, b closedTrip) int {
		if c := cmp.Compare(a.car, b.car); c != 0 {
			return c
		}
		return byStart(a.tb, b.tb)
	})
	return out
}

// flush is a round's body: it analyses the round's closed trips
// (analyse), then folds them in closed's order: each trip's stats
// commit into the engine's ledger and its transitions absorb into the
// sink, and one new epoch is published for the round. The fold stays
// sequential and rounds run one at a time in step order (handOff), so
// the sink and the ledger see the same sequence at any core count.
// It runs without e.mu, concurrently with admission.
func (e *Engine) flush(closed []closedTrip) {
	start := e.cfg.Now()
	results := e.analyse(closed)
	absorbed := false
	for i, ct := range closed {
		cr := &results[i].cr
		if err := results[i].err; err != nil && e.cfg.Log != nil {
			e.cfg.Log.Error("ingest: trip analysis failed",
				slog.Int("car", ct.car), slog.Int64("trip", ct.tb.id), slog.String("error", err.Error()))
		}
		// A failed trip still commits and absorbs what the stages
		// produced before the failure.
		e.ledger.Commit(cr)
		if e.cfg.Sink != nil && len(cr.Transitions) > 0 {
			e.cfg.Sink.AbsorbTransitions(ct.car, cr.Transitions)
			absorbed = true
		}
	}
	if absorbed {
		e.cfg.Sink.Publish()
	}

	// Every point of the round became queryable with that publish.
	end := e.cfg.Now()
	for _, ct := range closed {
		for _, r := range ct.tb.recvNs {
			e.met.latency.Observe(float64(end.UnixNano()-r) / 1e9)
		}
	}
	e.met.flushes.Inc()
	e.met.flushTime.Observe(end.Sub(start).Seconds())
	if e.cfg.Log != nil {
		e.cfg.Log.Debug("ingest: flush round",
			slog.Int("trips", len(closed)),
			slog.Int64("watermark_ms", e.wm.Load()))
	}
}

// tripResult is one closed trip's stage-driver output.
type tripResult struct {
	cr  core.CarResult
	err error
}

// analyse runs each closed trip through the pipeline's stage driver
// (core.Pipeline.ProcessTrip: cleaning → segmentation → OD selection →
// map-matching → attributes) and returns the results indexed like
// closed. A round of several trips spreads them over
// min(GOMAXPROCS, len(closed)) workers, the caller included, each
// claiming the next trip in closed's order. A trip's analysis reads
// only its own buffer and the pipeline's concurrency-safe stages, so
// each result is the same whichever worker computes it. A panic in a
// helper is raised again on the caller, as it would be serially.
func (e *Engine) analyse(closed []closedTrip) []tripResult {
	res := make([]tripResult, len(closed))
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1) - 1)
			if i >= len(closed) {
				return
			}
			ct := closed[i]
			trip := trace.ColTrip{ID: ct.tb.id, CarID: ct.car, Cols: &ct.tb.cols, N: ct.tb.cols.Len()}
			res[i].cr, res[i].err = e.cfg.Pipeline.ProcessTrip(context.Background(), trip)
		}
	}

	helpers := min(runtime.GOMAXPROCS(0), len(closed)) - 1
	var running atomic.Int64
	var panicked atomic.Pointer[any]
	running.Store(int64(helpers))
	for range helpers {
		go func() {
			defer func() {
				if p := recover(); p != nil {
					panicked.CompareAndSwap(nil, &p)
				}
				running.Add(-1)
			}()
			work()
		}()
	}
	work()
	// Yield rather than park until the helpers are done: the runtime
	// readies a parked goroutine on the P of the goroutine that wakes
	// it, so a caller blocked in a WaitGroup would leave its warm core
	// for the last helper's, and the rest of the round would run cold.
	for running.Load() > 0 {
		runtime.Gosched()
	}
	if p := panicked.Load(); p != nil {
		panic(*p)
	}
	return res
}

// Close ends the stream: the watermark jumps to +infinity, every
// buffered trip flushes, each car is completed in the sink, and the
// sink (when attached) seals its final snapshot. Close returns once
// the last round has published and the sink is sealed. Points pushed
// after Close are dropped as stale (late, or idle_resumed for a car
// resuming past everything it sent) and start no round. Only the
// first call does the work; later calls return once it is done.
func (e *Engine) Close() { e.closeOnce.Do(e.close) }

func (e *Engine) close() {
	e.stepMu.Lock()
	defer e.stepMu.Unlock()
	e.mu.Lock()
	e.closing = true
	closed := e.advanceLocked()
	carIDs := make([]int, 0, len(e.cars))
	for car := range e.cars {
		carIDs = append(carIDs, car)
	}
	slices.Sort(carIDs)
	e.mu.Unlock()
	e.handOff(closed)
	e.wait()

	if e.cfg.Sink != nil {
		for _, car := range carIDs {
			e.cfg.Sink.CarComplete(car)
		}
		e.cfg.Sink.Seal()
	}
}

// Watermark returns the low watermark in Unix ms (math.MinInt64 while
// unset, math.MaxInt64 once closed).
func (e *Engine) Watermark() int64 { return e.wm.Load() }

// VisibleLatencyQuantile returns the q-quantile (0..1) of the
// ingest-to-visible latency distribution in seconds — the time from a
// point's admission to the end of the flush round, after its publish,
// that made its trip queryable.
func (e *Engine) VisibleLatencyQuantile(q float64) float64 {
	return e.met.latency.Quantile(q)
}

// Stats is a point-in-time engine summary.
type Stats struct {
	Received uint64
	Admitted uint64
	Dropped  map[obs.DropReason]uint64
	// ClosedTrips counts the trips watermark steps have closed, the
	// running round's included.
	ClosedTrips    uint64
	OpenTrips      int
	BufferedPoints int // admitted points of the open trips
	WatermarkMs    int64
}

// Stats snapshots the engine's counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := Stats{
		Received:    e.received,
		Admitted:    e.admitted,
		ClosedTrips: e.closedTrips,
		WatermarkMs: e.wm.Load(),
		Dropped:     make(map[obs.DropReason]uint64, len(e.drops)),
	}
	for r, n := range e.drops {
		s.Dropped[r] = n
	}
	for _, cs := range e.active {
		s.OpenTrips += len(cs.open)
		for _, tb := range cs.open {
			s.BufferedPoints += tb.cols.Len()
		}
	}
	return s
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
