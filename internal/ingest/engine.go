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
	// its own and analyses its trips while the round before it may
	// still run, but folds and publishes only after that round has
	// published, so epochs follow step order. A push returns once its
	// round has started; Advance and Close return once every round in
	// flight has published. Nil runs the engine without a serving layer
	// (the differential tests read Stats instead).
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
	// Metrics receives the ingest_* instrumentation, plus the stage
	// counters core.Ledger commits with each flushed trip
	// (pipeline_clean_trips, pipeline_segment_resplit, ...). Points
	// received and admitted are the in and out of Lineage's "ingest"
	// row. Nil disables.
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
	ledger *core.Ledger // clean → mapmatch counts, one commit per flushed trip
	met    engineMetrics

	// stepMu orders watermark steps and their hand-offs: a step, its
	// wait for the older round in flight and the start of its own round
	// happen under it, so rounds start, fold and publish in step order.
	// A round never takes it, and it is never acquired while mu is held.
	stepMu sync.Mutex
	// older and newer are the rounds in flight, in step order, until a
	// caller has waited for them; guarded by stepMu. newer is the round
	// the last hand-off started, and older is set only while newer is.
	older, newer *round
	// closeOnce makes Close idempotent: every car is completed in the
	// sink exactly once, and a concurrent second caller returns only
	// after the first has sealed.
	closeOnce sync.Once

	// arenas holds the *trace.Arena each analysis worker gathers its
	// trips into, so rounds reuse them.
	arenas sync.Pool
	// analysed, when set, runs on each gathered view once its trip's
	// analysis has returned; a test hook, nil in production.
	analysed func(trace.ColTrip)
}

// carState is one device's online state machine.
type carState struct {
	car   int
	maxMs int64
	open  []*tripBuf // sorted by (minMs, id) at each watermark step
	// last is the open trip the car's last admitted point went to, nil
	// once that trip closes: a car's points mostly follow one another
	// in one trip, and they reach its buffer without a scan of open.
	last *tripBuf
	// closed holds every flushed trip id. Trip ids need not follow
	// event time (a new trip may carry a lower id than a closed one),
	// so no per-car id frontier can stand in for the set.
	closed map[int64]struct{}
}

// trip returns the car's open trip with the given id, or nil.
func (cs *carState) trip(id int64) *tripBuf {
	if tb := cs.last; tb != nil && tb.id == id {
		return tb
	}
	for _, tb := range cs.open {
		if tb.id == id {
			return tb
		}
	}
	return nil
}

// blockLen is the number of points one trip buffer block holds: the
// eight per-point fields of 64 points take 3,840 B, inside Go's
// 4,096 B size class.
const blockLen = 64

// block is blockLen points of one open trip, one array per field. A
// block never grows or moves: admission writes one slot of its trip's
// last block, and the blocks go to the GC with the closed trip.
type block struct {
	seq                     [blockLen]int32
	timeNs                  [blockLen]int64
	recvNs                  [blockLen]int64 // wall receive time, for visible latency
	x, y, speed, fuel, dist [blockLen]float64
}

// tripBuf buffers one open trip's admitted points in arrival order:
// point i is slot i%blockLen of blocks[i/blockLen].
type tripBuf struct {
	id           int64
	minMs, maxMs int64
	n            int // points buffered
	blocks       []*block
}

// add buffers one admitted point at position pos, received at recvNs.
func (tb *tripBuf) add(p *Point, pos geo.XY, recvNs int64) {
	i := uint(tb.n) % blockLen
	if i == 0 {
		tb.blocks = append(tb.blocks, new(block))
	}
	b := tb.blocks[len(tb.blocks)-1]
	b.seq[i] = int32(p.Seq)
	b.timeNs[i] = p.TimeMs * int64(time.Millisecond)
	b.recvNs[i] = recvNs
	b.x[i], b.y[i] = pos.X, pos.Y
	b.speed[i], b.fuel[i], b.dist[i] = p.SpeedKmh, p.FuelMl, p.DistM
	tb.n++
}

// filled returns the number of points block k holds.
func (tb *tripBuf) filled(k int) int { return min(blockLen, tb.n-k*blockLen) }

// gather copies the trip's points, in arrival order, into rows of a
// and returns them as a view of car's trip.
func (tb *tripBuf) gather(a *trace.Arena, car int) trace.ColTrip {
	v := a.Alloc(tb.id, car, tb.n)
	c := v.Cols
	for k, b := range tb.blocks {
		at, m := v.Off+k*blockLen, tb.filled(k)
		copy(c.PointIDs[at:], b.seq[:m])
		copy(c.TimesNs[at:], b.timeNs[:m])
		copy(c.Xs[at:], b.x[:m])
		copy(c.Ys[at:], b.y[:m])
		copy(c.Speeds[at:], b.speed[:m])
		copy(c.Fuels[at:], b.fuel[:m])
		copy(c.Dists[at:], b.dist[:m])
	}
	return v
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
		ledger: core.NewLedger(reg, cfg.Lineage),
		met: engineMetrics{
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
// its next batch while the round runs. At most two rounds are in
// flight: a step that closes trips while two are still running waits
// for the older first, and that wait is the engine's backpressure.
// PushBatch raises the stage panic of the round it waited for, after
// starting its own.
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
	e.received += uint64(len(pts))
	e.admitted += uint64(res.Admitted)
	e.met.bufPoints.Add(int64(res.Admitted))
	e.lin.ingest.Add(uint64(res.Admitted), uint64(res.Admitted))
	e.sinceAdv += len(pts)
	if e.sinceAdv >= e.cfg.WatermarkEvery {
		e.sinceAdv = 0
		due = true
	}
	e.mu.Unlock()

	if due {
		e.stepMu.Lock()
		defer e.stepMu.Unlock()
		if p := e.step(); p != nil {
			panic(p)
		}
	}
	res.WatermarkMs = e.wm.Load()
	return res
}

// admitLocked runs the online admission checks for one event and
// buffers it. The non-finite and out-of-area predicates are exactly
// the first two filters of clean.RepairColumns, applied per point at
// the door; removing them here leaves the trip-close cleaning
// (ordering, duplicates, spikes) with identical results, so streaming
// admission stays value-equivalent to batch cleaning. A point outside the wire
// bounds (checkBounds) has no representation in the trip buffer and
// is dropped as non_finite too, however it was pushed.
func (e *Engine) admitLocked(p *Point, recvNs int64) (obs.DropReason, bool) {
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
	tb := cs.trip(p.Trip)
	if tb == nil {
		// Open and closed ids are disjoint: a step moves an id from the
		// open trips to closed, and nothing reopens it.
		if _, done := cs.closed[p.Trip]; done {
			reason, dc := e.staleReason(cs, p)
			return e.dropLocked(p.Car, reason, dc), false
		}
		if len(cs.open) == 0 {
			e.active = append(e.active, cs)
		}
		tb = &tripBuf{id: p.Trip, minMs: p.TimeMs, maxMs: p.TimeMs}
		cs.open = append(cs.open, tb)
		e.met.openTrips.Add(1)
	}
	cs.last = tb
	tb.add(p, pos, recvNs)
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
// It holds no link to the round before it, which run takes as a
// parameter instead, so a finished round keeps no earlier round
// reachable and the rounds of a run form no chain.
type round struct {
	done     chan struct{} // closed once the round and every round before it have finished
	panicked any           // the stage panic the round recovered; read after done
}

// run flushes closed as round r. It analyses at once, folds only after
// prev (the round started before it, nil if none is in flight) has
// finished, and closes r.done only after prev.done, even when its own
// analysis panicked: rounds publish and finish in step order.
func (r *round) run(e *Engine, closed []closedTrip, prev *round) {
	defer close(r.done)
	defer func() {
		r.panicked = recover()
		if prev != nil {
			<-prev.done
		}
	}()
	e.flush(closed, prev)
}

// Advance recomputes the low watermark, hands the trips it closes to a
// new round and returns once every round in flight has published. Push
// steps on the recomputation cadence without that wait; owners may
// call Advance directly (e.g. on a wall-clock tick for slow streams)
// and use it as a synchronisation point: every trip closed before it
// returns has been folded into the ledger and the sink. It raises the
// stage panic of the oldest round in flight that recovered one.
func (e *Engine) Advance() {
	e.stepMu.Lock()
	defer e.stepMu.Unlock()
	e.settle(e.step())
}

// step recomputes the watermark and hands the trips it closes to a new
// round; it returns handOff's panic. The caller holds stepMu.
func (e *Engine) step() any {
	e.mu.Lock()
	closed := e.advanceLocked()
	e.mu.Unlock()
	return e.handOff(closed)
}

// handOff starts the round that flushes closed. At most two rounds are
// in flight and none waits in a queue: if two are, handOff first waits
// for the older and records the wait in ingest_handoff_wait_seconds.
// Two rounds let a round analyse its trips while the one before it
// finishes; a queue would only let trips closed since then wait
// unpublished behind them, and hold their buffers. handOff returns the
// panic the older round recovered, if any, and the caller raises it:
// the round has then started, so none of the trips this step closed is
// lost. The caller holds stepMu.
func (e *Engine) handOff(closed []closedTrip) any {
	if len(closed) == 0 {
		return nil
	}
	var p any
	if r := e.older; r != nil {
		select {
		case <-r.done:
		default:
			start := e.cfg.Now()
			<-r.done
			e.met.handoffWait.Observe(e.cfg.Now().Sub(start).Seconds())
		}
		p = r.panicked
	}
	r := &round{done: make(chan struct{})}
	go r.run(e, closed, e.newer)
	e.older, e.newer = e.newer, r
	return p
}

// settle returns once every round in flight has published, then raises
// p or, if p is nil, the panic of the oldest round that recovered one.
// It forgets the rounds up to that one; a later round's panic stays for
// the next call that waits for it. The caller holds stepMu.
func (e *Engine) settle(p any) {
	if e.newer == nil {
		return
	}
	<-e.newer.done // closes only after the older round's done
	for p == nil && e.newer != nil {
		r := e.older
		if r != nil {
			e.older = nil
		} else {
			r, e.newer = e.newer, nil
		}
		p = r.panicked
	}
	if p != nil {
		panic(p)
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
		if !idle && len(cs.open) == 1 {
			// The loop below keeps the last open trip of a car that is
			// not idle, so a car with one open trip closes nothing.
			active = append(active, cs)
			continue
		}
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
				if cs.last == tb {
					cs.last = nil
				}
				out = append(out, closedTrip{car: cs.car, tb: tb})
				points += tb.n
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
// (analyse), waits until prev, if any, has finished, then folds them
// in closed's order: each trip's stats commit into the engine's ledger
// and its transitions absorb into the sink, and one new epoch is
// published for the round. The fold stays sequential and rounds fold
// one at a time in step order, so the sink and the ledger see the same
// sequence at any core count. It runs without e.mu, concurrently with
// admission and with the other round in flight; only folds are ordered.
func (e *Engine) flush(closed []closedTrip, prev *round) {
	start := e.cfg.Now()
	results := e.analyse(closed)
	if prev != nil {
		<-prev.done
	}
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
		for k, b := range ct.tb.blocks {
			for _, r := range b.recvNs[:ct.tb.filled(k)] {
				e.met.latency.Observe(float64(end.UnixNano()-r) / 1e9)
			}
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
// claiming the next trip in closed's order. A worker gathers each trip
// it claims into one arena, which it resets for the next: the result
// holds copies, never rows of the arena. A trip's analysis reads only
// its own points and the pipeline's concurrency-safe stages, so each
// result is the same whichever worker computes it. A panic in a helper
// is raised again on the caller, as it would be serially.
func (e *Engine) analyse(closed []closedTrip) []tripResult {
	res := make([]tripResult, len(closed))
	var next atomic.Int64
	work := func() {
		arena, _ := e.arenas.Get().(*trace.Arena)
		if arena == nil {
			arena = trace.NewArena(0)
		}
		for {
			i := int(next.Add(1) - 1)
			if i >= len(closed) {
				e.arenas.Put(arena)
				return
			}
			ct := closed[i]
			arena.Reset()
			trip := ct.tb.gather(arena, ct.car)
			res[i].cr, res[i].err = e.cfg.Pipeline.ProcessTrip(context.Background(), trip)
			if e.analysed != nil {
				e.analysed(trip)
			}
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
// every round in flight has published and the sink is sealed; if a
// round's stage panic is still to be raised, Close raises it instead
// of sealing. Points pushed after Close are dropped as stale (late, or
// idle_resumed for a car resuming past everything it sent) and start no
// round. Only the first call does the work; later calls return once it
// is done.
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
	e.settle(e.handOff(closed))

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
	// ClosedTrips counts the trips watermark steps have closed, those of
	// the rounds in flight included.
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
			s.BufferedPoints += tb.n
		}
	}
	return s
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
