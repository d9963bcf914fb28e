// Package sink is the serving layer's ingest side: a mergeable,
// incrementally updated aggregation over the fleet stream. Where the
// batch pipeline computes grid-cell speed maps (Table 5), OD transition
// statistics (Tables 3-4) and travel-time distributions once at the end
// of a run, the sink folds each car in as it completes — consuming the
// runner's CarEvents — and periodically publishes immutable,
// epoch-numbered snapshots that the HTTP query API (internal/serve)
// reads without ever blocking ingest.
//
// Concurrency model:
//
//   - Ingest is one lane: a single mutex guards one grid aggregator,
//     one OD map and one profile map. Each absorb call (a whole car, or
//     one closed trip's transitions) folds under it, so a publish never
//     observes a half-folded call, and the aggregation is one
//     sequential fold in absorb order whatever the core count.
//   - Publish freezes that accumulator straight into a fresh *Snapshot
//     under the same mutex and swaps it in with one atomic pointer
//     store. There is no in-process merge; sink.MergeSnapshots is the
//     one merge, used by the cluster coordinator.
//   - Readers call Snapshot() — a single atomic load. A reader holds one
//     immutable epoch forever; there is nothing to tear and nothing to
//     lock.
//
// The final sealed snapshot is value-identical to the batch Result
// aggregation over the same fleet: integer counts (cells, trips, points,
// histogram buckets) match exactly, and floating-point moments match up
// to accumulation-order rounding (see TestFinalSnapshotMatchesBatch).
package sink

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Config assembles one sink.
type Config struct {
	// Grid is the analysis grid frame cells are keyed on (required;
	// use the pipeline's study area and cell size to make the final
	// snapshot comparable to the batch aggregation).
	Grid *grid.Grid
	// PublishEvery is the auto-publish cadence in absorbed cars: after
	// every PublishEvery-th car a new epoch is published (default 1 —
	// every completed car becomes queryable immediately). Zero or
	// negative disables auto-publish; the owner then calls Publish or
	// Seal explicitly.
	PublishEvery int
	// Metrics instruments ingest and publish (sink_* metrics); nil
	// disables.
	Metrics *obs.Registry
	// Gates registers the gate names OD directions may reference; the
	// set is published on every snapshot (Snapshot.Gates) so the query
	// layer can reject lookups naming unknown gates. Empty disables
	// gate validation.
	Gates []string
	// Check enables the correctness harness on the sink's own boundary:
	// every publish validates the snapshot transition (strictly
	// advancing epoch, non-shrinking non-negative counts) against the
	// previous one, counting violations on Metrics. With Check.Strict a
	// violation is additionally latched and reported by CheckErr.
	Check check.Config
	// Now is the publish timestamp source (test hook); nil selects
	// time.Now.
	Now func() time.Time
	// Log receives one structured line per publish (Debug) and per seal
	// (Info) — epoch, cars, cells, OD pairs. Nil disables.
	Log *slog.Logger
}

func (c Config) withDefaults() (Config, error) {
	if c.Grid == nil {
		return c, fmt.Errorf("sink: Config.Grid is required")
	}
	if c.PublishEvery == 0 {
		c.PublishEvery = 1
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c, nil
}

// Sink accumulates fleet results and publishes epoch-swapped immutable
// snapshots. Construct with New; all methods are safe for concurrent
// use.
type Sink struct {
	cfg Config
	// cur is the atomic snapshot pointer readers load; each publish
	// swaps it exactly once, under mu.
	cur atomic.Pointer[Snapshot]

	// mu guards the accumulator below and serialises publishes. Each
	// absorb call folds entirely under it, so a publish never observes
	// a half-folded car or trip.
	mu     sync.Mutex
	cars   int // successful cars folded in; drives auto-publish
	failed int
	points int
	agg    *grid.Aggregator
	od     map[ODKey]*odAcc
	// profiles accumulates per-edge pace observations (seconds per km
	// by edge and hour bucket) from the matched routes.
	profiles map[EdgeProfileKey]*stats.Welford

	// checker validates snapshot transitions when Config.Check is on
	// (nil otherwise); checkErr latches the first strict violation.
	// Both are guarded by mu (the checker runs only inside publish).
	checker  *check.Validator
	checkErr error

	met sinkMetrics
}

// odAcc accumulates one direction's transition statistics.
type odAcc struct {
	trips int
	// travel is the travel-time distribution in seconds, on the obs
	// log-linear bucket layout (its frozen copies merge exactly across
	// cluster partials).
	travel obs.Histogram
	// Per-transition metric moments (Table 4 rows).
	distKm, fuelMl, lowPct, normalPct stats.Welford
	// Route attribute totals along the matched routes.
	lights, busStops, pedestrian, junctions int
}

type sinkMetrics struct {
	carsAbsorbed *obs.Counter
	carsFailed   *obs.Counter
	publishes    *obs.Counter
	absorbTime   *obs.Histogram
	publishTime  *obs.Histogram
	epoch        *obs.Gauge
	cells        *obs.Gauge
	odPairs      *obs.Gauge
	profiles     *obs.Gauge
}

// New builds a sink and publishes the empty epoch-0 snapshot, so
// readers attached before the first car completes already see a
// consistent (if empty) world.
func New(cfg Config) (*Sink, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Sink{
		cfg:      cfg,
		agg:      grid.NewAggregator(cfg.Grid),
		od:       map[ODKey]*odAcc{},
		profiles: map[EdgeProfileKey]*stats.Welford{},
		checker:  check.New(cfg.Check, cfg.Gates, nil, cfg.Metrics),
	}
	reg := cfg.Metrics
	s.met = sinkMetrics{
		carsAbsorbed: reg.Counter("sink_cars_absorbed"),
		carsFailed:   reg.Counter("sink_cars_failed"),
		publishes:    reg.Counter("sink_publishes"),
		absorbTime:   reg.Histogram("sink_absorb_seconds"),
		publishTime:  reg.Histogram("sink_publish_seconds"),
		epoch:        reg.Gauge("sink_epoch"),
		cells:        reg.Gauge("sink_cells_nonempty"),
		odPairs:      reg.Gauge("sink_od_pairs"),
		profiles:     reg.Gauge("sink_edge_profiles"),
	}
	s.cur.Store(&Snapshot{
		Grid:        cfg.Grid,
		PublishedAt: cfg.Now(),
		Cells:       map[grid.CellID]CellStats{},
		OD:          map[ODKey]ODStats{},
		Gates:       cfg.Gates,
	})
	return s, nil
}

// CheckErr returns the first strict-mode invariant violation a publish
// latched (nil while the sink's snapshot sequence has stayed valid, or
// when checking is off). The error is sticky: once a transition has
// violated the epoch/count monotonicity contract, every later epoch is
// suspect.
func (s *Sink) CheckErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checkErr
}

// Snapshot returns the current immutable snapshot: one atomic load,
// never nil, never blocked by ingest. Every field of the returned value
// belongs to a single epoch.
func (s *Sink) Snapshot() *Snapshot { return s.cur.Load() }

// AbsorbEvent consumes one runner event — the function to tee onto
// Pipeline.Stream / pass to Pipeline.RunObserved. Failed cars are
// counted; successful cars are folded into the aggregation, and the
// auto-publish cadence may publish a new epoch.
func (s *Sink) AbsorbEvent(ev core.CarEvent) {
	if ev.Err != nil {
		s.mu.Lock()
		s.failed++
		s.mu.Unlock()
		s.met.carsFailed.Inc()
		return
	}
	s.Absorb(&ev.Result)
}

// Absorb folds one completed car into the aggregation and applies the
// auto-publish cadence.
func (s *Sink) Absorb(cr *core.CarResult) {
	start := time.Now()
	s.mu.Lock()
	s.absorbTransitions(cr.Transitions)
	due := s.carDoneLocked()
	s.mu.Unlock()
	s.met.absorbTime.Observe(time.Since(start).Seconds())
	s.met.carsAbsorbed.Inc()
	if due {
		s.Publish()
	}
}

// AbsorbResult folds a whole batch result in — the bridge for inputs
// that bypass the stream (e.g. trips reloaded from CSV).
func (s *Sink) AbsorbResult(res *core.Result) {
	for i := range res.Cars {
		s.Absorb(&res.Cars[i])
	}
}

// AbsorbTransitions folds newly completed transitions of one car into
// the aggregation without counting the car as ingested — the streaming
// ingest layer's partial-absorb path, called once per trip the
// watermark closes. The car's transitions may arrive across many calls
// (and interleaved with other cars); once no more will come, one
// CarComplete call finishes the car's accounting. The final sealed
// snapshot is then value-identical to absorbing the same transitions
// through Absorb in one piece.
//
// AbsorbTransitions never auto-publishes: watermark-driven owners
// publish explicitly after each flush round so snapshot epochs track
// watermark advances rather than trip counts.
func (s *Sink) AbsorbTransitions(car int, recs []*core.TransitionRecord) {
	if len(recs) == 0 {
		return
	}
	start := time.Now()
	s.mu.Lock()
	s.absorbTransitions(recs)
	s.mu.Unlock()
	s.met.absorbTime.Observe(time.Since(start).Seconds())
}

// CarComplete marks one car's stream of transitions finished, counting
// it toward CarsIngested and applying the auto-publish cadence. Call
// exactly once per car, after its last AbsorbTransitions.
func (s *Sink) CarComplete(car int) {
	s.mu.Lock()
	due := s.carDoneLocked()
	s.mu.Unlock()
	s.met.carsAbsorbed.Inc()
	if due {
		s.Publish()
	}
}

// carDoneLocked counts one more ingested car and reports whether the
// auto-publish cadence is due; the caller holds mu.
func (s *Sink) carDoneLocked() bool {
	s.cars++
	return s.cfg.PublishEvery > 0 && s.cars%s.cfg.PublishEvery == 0
}

// absorbTransitions folds transition records into the grid, OD and
// profile accumulators; the caller holds mu.
func (s *Sink) absorbTransitions(recs []*core.TransitionRecord) {
	for _, rec := range recs {
		for _, sp := range core.TransitionSpeedPoints(rec) {
			if s.agg.Add(sp.Pos, sp.SpeedKmh) {
				s.points++
			}
		}
		key := ODKey{From: rec.Transition.From, To: rec.Transition.To}
		od := s.od[key]
		if od == nil {
			od = &odAcc{}
			s.od[key] = od
		}
		od.trips++
		od.travel.Observe(rec.RouteTimeH * 3600)
		od.distKm.Add(rec.RouteDistKm)
		od.fuelMl.Add(rec.FuelMl)
		od.lowPct.Add(rec.LowSpeedPct)
		od.normalPct.Add(rec.NormalSpeedPct)
		od.lights += rec.Attrs.TrafficLights
		od.busStops += rec.Attrs.BusStops
		od.pedestrian += rec.Attrs.PedestrianCrossings
		od.junctions += rec.Attrs.Junctions
		for _, ep := range core.TransitionEdgePaces(rec) {
			key := EdgeProfileKey{Edge: ep.Edge, Hour: ep.Hour}
			w := s.profiles[key]
			if w == nil {
				w = &stats.Welford{}
				s.profiles[key] = w
			}
			w.Add(ep.SecPerKm)
		}
	}
}

// Publish freezes the aggregation into a fresh immutable snapshot,
// bumps the epoch and swaps it in. Publishes are serialised; readers
// are never blocked (they keep whatever epoch they already loaded).
// Returns the published snapshot.
func (s *Sink) Publish() *Snapshot { return s.publish(false) }

// Seal publishes the final snapshot with Complete set — the run is
// over, the aggregation will not change again. Further absorbs are
// still folded in defensively but a sealed sink is meant to be
// read-only.
func (s *Sink) Seal() *Snapshot { return s.publish(true) }

// publish freezes the accumulator into the next epoch under mu. The
// caller-supplied Config.Now and Config.Log run outside the lock.
func (s *Sink) publish(complete bool) *Snapshot {
	start := time.Now()
	now := s.cfg.Now()

	s.mu.Lock()
	prev := s.cur.Load()
	snap := &Snapshot{
		Epoch:        prev.Epoch + 1,
		CarsIngested: s.cars,
		CarsFailed:   s.failed,
		Complete:     complete || prev.Complete, // sealed stays sealed
		Points:       s.points,
		PublishedAt:  now,
		Grid:         s.cfg.Grid,
		Cells:        make(map[grid.CellID]CellStats, s.agg.NumNonEmpty()),
		OD:           make(map[ODKey]ODStats, len(s.od)),
		Gates:        s.cfg.Gates,
	}
	for _, c := range s.agg.Cells() {
		snap.Cells[c.ID] = newCellStats(c)
	}
	if len(s.profiles) > 0 {
		snap.EdgeProfiles = make(map[EdgeProfileKey]EdgeProfileStats, len(s.profiles))
		for key, w := range s.profiles {
			snap.EdgeProfiles[key] = newEdgeProfileStats(w)
		}
	}
	for dir, od := range s.od {
		snap.OD[dir] = ODStats{
			From:           dir.From,
			To:             dir.To,
			Trips:          od.trips,
			TravelTimeS:    od.travel.Freeze(),
			DistKm:         summarize(od.distKm),
			FuelMl:         summarize(od.fuelMl),
			LowSpeedPct:    summarize(od.lowPct),
			NormalSpeedPct: summarize(od.normalPct),
			Attrs: AttrTotals{
				TrafficLights:       od.lights,
				BusStops:            od.busStops,
				PedestrianCrossings: od.pedestrian,
				Junctions:           od.junctions,
			},
		}
	}
	if err := s.checker.SnapshotTransition(
		check.SnapshotMeta{Epoch: prev.Epoch, CarsIngested: prev.CarsIngested, CarsFailed: prev.CarsFailed, Points: prev.Points},
		check.SnapshotMeta{Epoch: snap.Epoch, CarsIngested: snap.CarsIngested, CarsFailed: snap.CarsFailed, Points: snap.Points},
	); err != nil && s.checkErr == nil {
		s.checkErr = err
	}
	s.cur.Store(snap)
	s.met.epoch.Set(int64(snap.Epoch))
	s.met.cells.Set(int64(len(snap.Cells)))
	s.met.odPairs.Set(int64(len(snap.OD)))
	s.met.profiles.Set(int64(len(snap.EdgeProfiles)))
	s.mu.Unlock()

	s.met.publishes.Inc()
	s.met.publishTime.Observe(time.Since(start).Seconds())
	if log := s.cfg.Log; log != nil {
		msg, level := "snapshot published", slog.LevelDebug
		if snap.Complete {
			msg, level = "sink sealed", slog.LevelInfo
		}
		log.Log(context.Background(), level, msg,
			slog.Uint64("epoch", snap.Epoch),
			slog.Int("cars", snap.CarsIngested),
			slog.Int("failed", snap.CarsFailed),
			slog.Int("points", snap.Points),
			slog.Int("cells", len(snap.Cells)),
			slog.Int("od_pairs", len(snap.OD)),
			slog.Bool("complete", snap.Complete))
	}
	return snap
}
