package ingest

import (
	"cmp"
	"context"
	"fmt"
	"log/slog"
	"math"
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
	// advance as the watermark does. Nil runs the engine without a
	// serving layer (the differential tests read Stats instead).
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
	// closeable trips) every N admitted points. Default 256.
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
// New; Push/PushBatch are safe for concurrent use.
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

	// flushMu serialises flush rounds so two concurrent watermark
	// advances cannot interleave their sink publishes.
	flushMu sync.Mutex
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

// PushBatch admits a batch of events, then advances the watermark (and
// flushes newly closed trips) if the recomputation cadence is due.
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
		e.Advance()
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

// Advance recomputes the low watermark and flushes every trip it
// closes. Push calls it on the recomputation cadence; owners may also
// call it directly (e.g. on a wall-clock tick for slow streams).
func (e *Engine) Advance() {
	e.flushMu.Lock()
	defer e.flushMu.Unlock()

	e.mu.Lock()
	closed := e.advanceLocked()
	e.mu.Unlock()

	if len(closed) > 0 {
		e.flush(closed)
	}
}

// advanceLocked recomputes the watermark from the active cars' maxima,
// extracts every newly closeable trip, marks it closed and drops cars
// left without an open trip from the active set; the caller holds e.mu
// and processes the returned trips outside it.
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
	// Deterministic flush order (the active set is in arrival order).
	slices.SortFunc(out, func(a, b closedTrip) int {
		if c := cmp.Compare(a.car, b.car); c != 0 {
			return c
		}
		return byStart(a.tb, b.tb)
	})
	return out
}

// flush runs each closed trip through the pipeline's stage driver
// (core.Pipeline.ProcessTrip: cleaning → segmentation → OD selection →
// map-matching → attributes), commits its stats into the engine's
// ledger, absorbs its transitions into the sink and publishes one new
// epoch for the round. The caller holds flushMu (never e.mu): stage
// work here runs concurrently with admission.
func (e *Engine) flush(closed []closedTrip) {
	start := e.cfg.Now()
	ctx := context.Background()
	absorbed := false
	for _, ct := range closed {
		n := ct.tb.cols.Len()
		cr, err := e.cfg.Pipeline.ProcessTrip(ctx, trace.ColTrip{ID: ct.tb.id, CarID: ct.car, Cols: &ct.tb.cols, N: n})
		if err != nil && e.cfg.Log != nil {
			e.cfg.Log.Error("ingest: trip analysis failed",
				slog.Int("car", ct.car), slog.Int64("trip", ct.tb.id), slog.String("error", err.Error()))
		}
		// A failed trip still commits and absorbs what the stages
		// produced before the failure.
		e.ledger.Commit(&cr)
		if e.cfg.Sink != nil && len(cr.Transitions) > 0 {
			e.cfg.Sink.AbsorbTransitions(ct.car, cr.Transitions)
			absorbed = true
		}

		nowNs := e.cfg.Now().UnixNano()
		for _, r := range ct.tb.recvNs {
			e.met.latency.Observe(float64(nowNs-r) / 1e9)
		}

		e.mu.Lock()
		e.closedTrips++
		e.mu.Unlock()
		e.met.tripsClosed.Inc()
		e.met.openTrips.Add(-1)
		e.met.bufPoints.Add(-int64(n))
	}
	if absorbed && e.cfg.Sink != nil {
		e.cfg.Sink.Publish()
	}
	e.met.flushes.Inc()
	e.met.flushTime.Observe(e.cfg.Now().Sub(start).Seconds())
	if e.cfg.Log != nil {
		e.cfg.Log.Debug("ingest: flush round",
			slog.Int("trips", len(closed)),
			slog.Int64("watermark_ms", e.wm.Load()))
	}
}

// Close ends the stream: the watermark jumps to +infinity, every
// buffered trip flushes, each car is completed in the sink, and the
// sink (when attached) seals its final snapshot. Points pushed after
// Close are dropped as late.
func (e *Engine) Close() {
	e.flushMu.Lock()
	e.mu.Lock()
	e.closing = true
	closed := e.advanceLocked()
	carIDs := make([]int, 0, len(e.cars))
	for car := range e.cars {
		carIDs = append(carIDs, car)
	}
	slices.Sort(carIDs)
	e.mu.Unlock()

	if len(closed) > 0 {
		e.flush(closed)
	}
	e.flushMu.Unlock()

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
// point's admission to the flush that made its trip queryable.
func (e *Engine) VisibleLatencyQuantile(q float64) float64 {
	return e.met.latency.Quantile(q)
}

// Stats is a point-in-time engine summary.
type Stats struct {
	Received       uint64
	Admitted       uint64
	Dropped        map[obs.DropReason]uint64
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
