// Package core assembles the paper's full pipeline — the primary
// contribution — from raw taxi traces to map-referenced information:
//
//	raw trips → cleaning → segmentation → OD selection → map-matching
//	          → attribute fetching → grid aggregation → mixed models.
//
// It also owns the synthetic substrates (city + fleet simulator) that
// stand in for the proprietary Driveco data and the Digiroad national
// database; see DESIGN.md for the substitution argument.
package core

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"repro/internal/check"
	"repro/internal/clean"
	"repro/internal/digiroad"
	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/mapattr"
	"repro/internal/mapmatch"
	"repro/internal/obs"
	"repro/internal/odselect"
	"repro/internal/roadnet"
	"repro/internal/runner"
	"repro/internal/segment"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/tracegen"
	"repro/internal/weather"
)

// LowSpeedKmh is the paper's low-speed threshold (<10 km/h), one of
// the significant factors for fuel consumption and emissions.
const LowSpeedKmh = 10

// NormalSpeedToleranceKmh: a point counts as "normal speed" (at the
// speed limit) when within this margin below the local limit.
const NormalSpeedToleranceKmh = 2

// Config assembles one pipeline. Zero values select the paper's
// settings.
type Config struct {
	CitySeed   int64
	City       digiroad.SynthConfig
	Fleet      tracegen.Config
	Clean      clean.Config
	Segment    segment.Rules
	OD         odselect.Config
	Match      mapmatch.Config
	GateWidthM float64 // thick-geometry width (default 150)
	GridCellM  float64 // analysis cell size (default 200)
	// Workers bounds the fleet runner's concurrency (default
	// GOMAXPROCS). The runner owns exactly this many worker
	// goroutines regardless of fleet size.
	Workers int
	// MaxFailures is the fleet error budget as a count: up to this
	// many cars may fail (each isolated and reported as a CarError)
	// before the run aborts early. 0 tolerates any number of
	// failures; negative aborts on the first one.
	MaxFailures int
	// MaxFailureFrac expresses the budget as a fleet fraction (0
	// disables); the stricter of the two budgets wins.
	MaxFailureFrac float64
	// MaxAttempts bounds per-car attempts for errors marked
	// runner.Transient (default 1 = no retries); RetryBackoff is the
	// deterministic base delay before attempt 2, doubling per attempt.
	MaxAttempts  int
	RetryBackoff time.Duration
	// Faults injects per-stage failures, panics or stalls into car
	// processing — the test/chaos hook, called as each stage boundary
	// opens: once per car for simulate, clean, segment and odselect,
	// then per transition for mapmatch (spans of two or more points)
	// and mapattr (matched routes). Nil in production runs.
	Faults runner.FaultInjector
	// Check enables the correctness harness: per-stage invariant
	// validation at every stage boundary (see internal/check).
	// Violations increment check_violations_total counters on Metrics;
	// with Check.Strict they additionally fail the offending car
	// through the runner's fault path. Checking never changes results:
	// pipeline output is byte-identical with the checker on and off on
	// invariant-respecting data (see the determinism test, which runs
	// strict).
	Check check.Config
	// Metrics receives the pipeline's instrumentation: per-stage spans
	// (duration histograms + active gauges), kept/dropped counters for
	// every lossy stage, per-car worker timing, and the router
	// path-cache stats re-exported as gauges. Nil disables
	// instrumentation entirely — every metric operation degrades to a
	// no-op. Metrics never influence results: the pipeline's output is
	// byte-identical with instrumentation on and off (see the
	// determinism test).
	Metrics *obs.Registry
	// Tracer records per-car span trees (which stages ran, under which
	// attempt, for how long) for deterministically sampled cars; see
	// obs.Tracer. Nil disables tracing — the hot path degrades to one
	// nil check per stage. Tracing never influences results.
	Tracer *obs.Tracer
	// Lineage is the drop-reason ledger: per stage, how many records
	// went in, came out, and why the difference was dropped, with
	// per-car attribution. Nil disables the ledger. Counts are
	// committed once per car on its final successful attempt, so the
	// ledger's conservation invariant (in = out + Σ dropped) holds even
	// under retries; see internal/core/lineage.go.
	Lineage *obs.Lineage
	// Log receives structured per-car and fleet-event log lines
	// (log/slog). Nil disables logging.
	Log *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.City.Seed == 0 {
		c.City.Seed = c.CitySeed
	}
	if c.Segment.MinPoints == 0 {
		c.Segment = segment.DefaultRules()
	}
	if c.GateWidthM <= 0 {
		c.GateWidthM = 150
	}
	if c.GridCellM <= 0 {
		c.GridCellM = grid.DefaultCellMeters
	}
	return c
}

// Pipeline is a ready-to-run reproduction pipeline over one synthetic
// city and fleet.
type Pipeline struct {
	Config Config
	City   *digiroad.City
	Graph  *roadnet.Graph
	// Router is the pipeline's shared routing engine: one scratch/heap
	// pool and one path cache serving the fleet simulator, both
	// map-matchers and the coach across all per-car workers.
	Router   *roadnet.Router
	Gen      *tracegen.Generator
	Selector *odselect.Selector
	Matcher  *mapmatch.Matcher
	Fetcher  *mapattr.Fetcher
	Weather  *weather.Model
	Rules    segment.Rules
	// Metrics is the registry instrumentation reports to (nil when
	// disabled); met holds the pre-resolved handles.
	Metrics *obs.Registry
	met     *pipelineMetrics
	// checker is the stage-boundary invariant validator (nil when
	// Config.Check is off; every method of a nil checker is a no-op).
	checker *check.Validator
	// ledger and fleet are the pre-resolved rows of Config.Lineage (all
	// no-ops when it is nil).
	ledger *Ledger
	fleet  *obs.StageLineage
	// scratches pools per-car columnar scratch state (arena + sort
	// buffers) across workers; see driver.go.
	scratches sync.Pool
}

// NewPipeline builds the city, road graph and processing stages.
func NewPipeline(cfg Config) (*Pipeline, error) {
	cfg = cfg.withDefaults()
	city := digiroad.SynthesizeOulu(cfg.City)
	return NewPipelineWithCity(city, cfg)
}

// NewPipelineWithCity builds the processing stages over an existing
// city (e.g. one reloaded from CSV). The city must carry the three
// gate roads and the analysis areas.
func NewPipelineWithCity(city *digiroad.City, cfg Config) (*Pipeline, error) {
	cfg = cfg.withDefaults()
	graph, err := roadnet.Build(city.DB)
	if err != nil {
		return nil, fmt.Errorf("core: build road graph: %w", err)
	}
	router := graph.Router()
	gen, err := tracegen.New(city, graph, cfg.Fleet)
	if err != nil {
		return nil, fmt.Errorf("core: build fleet generator: %w", err)
	}
	odCfg := cfg.OD
	if odCfg.CentralArea.Area() == 0 {
		odCfg.CentralArea = city.CentralArea
	}
	sel, err := odselect.NewSelector([]odselect.Gate{
		odselect.NewGate("T", city.GateT, cfg.GateWidthM),
		odselect.NewGate("S", city.GateS, cfg.GateWidthM),
		odselect.NewGate("L", city.GateL, cfg.GateWidthM),
	}, odCfg)
	if err != nil {
		return nil, fmt.Errorf("core: build OD selector: %w", err)
	}
	wm := cfg.Fleet.Weather
	if wm == nil {
		wm = weather.DefaultModel(cfg.Fleet.Seed)
	}
	registerRouterGauges(cfg.Metrics, router)
	checker := check.New(cfg.Check, sel.GateNames(), graph, cfg.Metrics)
	return &Pipeline{
		Config:   cfg,
		City:     city,
		Graph:    graph,
		Router:   router,
		Gen:      gen,
		Selector: sel,
		Matcher:  mapmatch.NewIncremental(graph, cfg.Match),
		Fetcher:  mapattr.NewFetcher(city.DB, graph, 0),
		Weather:  wm,
		Rules:    cfg.Segment,
		Metrics:  cfg.Metrics,
		met:      newPipelineMetrics(cfg.Metrics),
		checker:  checker,
		ledger:   NewLedger(cfg.Lineage),
		fleet:    cfg.Lineage.Stage("fleet", "cars"),
	}, nil
}

// Checker exposes the pipeline's invariant validator (nil when
// Config.Check is off) so external consumers — the serving layer's
// sink, standalone analyses — can validate their own boundaries with
// the same rule set and counters.
func (p *Pipeline) Checker() *check.Validator { return p.checker }

// TransitionRecord is one accepted OD transition with everything the
// analysis needs.
type TransitionRecord struct {
	Car        int
	Transition *odselect.Transition
	Match      *mapmatch.Result
	Attrs      mapattr.RouteAttributes

	// Table 4 metrics, computed over the trajectory between the origin
	// and destination crossings.
	RouteTimeH     float64
	RouteDistKm    float64
	LowSpeedPct    float64
	NormalSpeedPct float64
	FuelMl         float64

	Season    weather.Season
	TempClass weather.TemperatureClass
}

// Direction returns the transition direction, e.g. "S-T".
func (r *TransitionRecord) Direction() string { return r.Transition.Direction }

// CarResult is the per-car pipeline output (one Table 3 row).
type CarResult struct {
	Car         int
	RawTrips    int
	CleanStats  CleanStats
	SegStats    segment.Stats
	Segments    []*trace.Trip
	Funnel      odselect.Funnel
	MatchStats  MatchStats
	Transitions []*TransitionRecord
}

// CleanStats summarises the cleaning stage for one car.
type CleanStats struct {
	Trips         int // trips with at least one surviving point
	EmptyTrips    int // trips whose points were all dropped
	Reordered     int // trips whose arrival order was repaired
	ChoseTime     int // trips where the timestamp ordering won
	RawPoints     int // points entering the cleaner
	KeptPoints    int // points surviving it
	DroppedPoints int // == Drops.Total(); RawPoints - KeptPoints
	// Drops breaks DroppedPoints down by removal reason — the cleaning
	// row of the car's lineage.
	Drops clean.DropStats
}

// MatchStats summarises the map-matching stage for one car: every
// accepted transition is either matched or dropped with a reason, so
// Matched + Degenerate + Unroutable equals the OD funnel's accepted
// count.
type MatchStats struct {
	Matched    int
	Degenerate int // O-D span shorter than two points
	Unroutable int // the matcher found no route
}

// Result is the full fleet output.
type Result struct {
	Cars []CarResult
}

// Transitions flattens all accepted transitions.
func (r *Result) Transitions() []*TransitionRecord {
	n := 0
	for i := range r.Cars {
		n += len(r.Cars[i].Transitions)
	}
	out := make([]*TransitionRecord, 0, n)
	for i := range r.Cars {
		out = append(out, r.Cars[i].Transitions...)
	}
	return out
}

// Segments flattens all kept trip segments.
func (r *Result) Segments() []*trace.Trip {
	n := 0
	for i := range r.Cars {
		n += len(r.Cars[i].Segments)
	}
	out := make([]*trace.Trip, 0, n)
	for i := range r.Cars {
		out = append(out, r.Cars[i].Segments...)
	}
	return out
}

// CarError is the typed per-car failure record the fleet runner
// reports: car, stage, attempts and cause, with errors.Is/As support.
type CarError = runner.CarError

// FleetStream is the live per-car outcome stream returned by
// Pipeline.Stream.
type FleetStream = runner.Stream[CarResult]

// CarEvent is one streamed per-car outcome.
type CarEvent = runner.Event[CarResult]

// ErrBudgetExceeded re-exports the runner's abort sentinel: test the
// error of RunContext with errors.Is against it to distinguish an
// error-budget abort from isolated car failures.
var ErrBudgetExceeded = runner.ErrBudgetExceeded

// ErrDegenerateSpan marks a transition whose origin→destination span
// has fewer than two points, so no route can be matched for it.
var ErrDegenerateSpan = errors.New("core: degenerate transition span")

// FailedCars extracts the per-car failures from an error returned by
// RunContext/Run (an errors.Join of CarErrors plus any run-level
// error), sorted by car number.
func FailedCars(err error) []*CarError { return runner.CarErrors(err) }

// runnerConfig maps the pipeline configuration onto the fleet runner.
func (p *Pipeline) runnerConfig() runner.Config {
	return runner.Config{
		Workers:        p.Config.Workers,
		MaxFailures:    p.Config.MaxFailures,
		MaxFailureFrac: p.Config.MaxFailureFrac,
		MaxAttempts:    p.Config.MaxAttempts,
		Backoff:        p.Config.RetryBackoff,
		Metrics:        p.Metrics,
		Log:            p.Config.Log,
	}
}

// Stream starts the fleet run and returns the live stream of per-car
// outcomes as cars complete (completion order). This is the primary
// execution API: results arrive incrementally under a bounded worker
// pool, failed cars arrive as typed *CarError events instead of
// aborting the run, and cancelling ctx drains the pool promptly.
// Consumers must drain Events until it closes; RunContext does exactly
// that and rebuilds the batch Result.
func (p *Pipeline) Stream(ctx context.Context) *FleetStream {
	st := runner.Run(ctx, p.runnerConfig(), p.Gen.Cars(), p.RunCarContext)
	if p.Config.Lineage != nil || p.Config.Log != nil {
		// Fold every terminal per-car outcome into the fleet lineage
		// row (and the structured log) exactly once, as it happens.
		st = runner.Tee(st, p.recordFleetEvent)
	}
	return st
}

// StreamCars is Stream over an explicit car list instead of the whole
// fleet — the execution shape of a cluster worker, which owns the
// subset of cars hashing to its shard. Identical semantics otherwise;
// the error budget resolves against len(cars).
func (p *Pipeline) StreamCars(ctx context.Context, cars []int) *FleetStream {
	st := runner.RunList(ctx, p.runnerConfig(), cars, p.RunCarContext)
	if p.Config.Lineage != nil || p.Config.Log != nil {
		st = runner.Tee(st, p.recordFleetEvent)
	}
	return st
}

// RunContext executes the pipeline for the whole fleet under ctx and
// collects the stream into the batch shape. Each car's simulation and
// processing are independent and deterministic, so the result is
// identical to a serial run regardless of worker count.
//
// Unlike the historical fail-fast Run, per-car failures do not discard
// the fleet: the returned Result carries every successful car (sorted
// by car number) and the error is an errors.Join of the per-car
// *CarErrors — plus runner.ErrBudgetExceeded when the failure budget
// aborted the run early, or the context error after cancellation. Use
// FailedCars to recover the typed failures.
func (p *Pipeline) RunContext(ctx context.Context) (*Result, error) {
	return p.RunObserved(ctx, nil)
}

// RunObserved runs the fleet like RunContext while teeing every per-car
// outcome to observe as it happens — the subscription point for live
// consumers such as the serving layer's aggregation sink, which needs
// results mid-run without disturbing the batch collection. observe (may
// be nil) runs on the stream's forwarding goroutine: events are
// observed in completion order, exactly once, before being folded into
// the returned Result.
func (p *Pipeline) RunObserved(ctx context.Context, observe func(CarEvent)) (*Result, error) {
	return collectStream(p.Stream(ctx), p.Gen.Cars(), observe)
}

// RunObservedCars is RunObserved over an explicit car list — the
// batch-collection entry point of a cluster worker running its shard.
func (p *Pipeline) RunObservedCars(ctx context.Context, carIDs []int, observe func(CarEvent)) (*Result, error) {
	return collectStream(p.StreamCars(ctx, carIDs), len(carIDs), observe)
}

// collectStream drains a fleet stream into the sorted batch Result,
// teeing each event to observe (may be nil) first.
func collectStream(st *FleetStream, n int, observe func(CarEvent)) (*Result, error) {
	if observe != nil {
		st = runner.Tee(st, observe)
	}
	cars := make([]CarResult, 0, n)
	var carErrs []*CarError
	for ev := range st.Events() {
		if ev.Err != nil {
			carErrs = append(carErrs, ev.Err)
			continue
		}
		cars = append(cars, ev.Result)
	}
	sort.Slice(cars, func(i, j int) bool { return cars[i].Car < cars[j].Car })
	sort.Slice(carErrs, func(i, j int) bool { return carErrs[i].Car < carErrs[j].Car })
	errs := make([]error, 0, len(carErrs)+1)
	for _, ce := range carErrs {
		errs = append(errs, ce)
	}
	if err := st.Err(); err != nil {
		errs = append(errs, err)
	}
	return &Result{Cars: cars}, errors.Join(errs...)
}

// RunCarContext executes the pipeline for one car under ctx.
func (p *Pipeline) RunCarContext(ctx context.Context, car int) (CarResult, error) {
	ctx, root := p.ensureCarTrace(ctx, car)
	st, err := p.openStage(ctx, car, stageSimulate)
	if err != nil {
		endCarTrace(ctx, root, err)
		return CarResult{Car: car}, err
	}
	raw := p.Gen.CarTrips(car)
	st.close(nil, obs.TAttr("trips", itoa(len(raw))))
	cr, err := p.ProcessContext(ctx, car, raw)
	if err == nil {
		// Committed only on the final successful attempt, like the rest
		// of the stage counters, so retries cannot double-count.
		p.met.simTrips.Add(uint64(len(raw)))
	}
	endCarTrace(ctx, root, err)
	return cr, err
}

// segmentCheckRules adapts segmentation rules to the checker's view.
func segmentCheckRules(r segment.Rules) check.SegmentRules {
	return check.SegmentRules{MinPoints: r.MinPoints, MaxLengthM: r.MaxLengthM}
}

// checkTransitions adapts accepted transitions to the checker's view.
func (p *Pipeline) checkTransitions(car int, accepted []*odselect.Transition) error {
	if p.checker == nil {
		return nil
	}
	trs := make([]check.ODTransition, len(accepted))
	for i, tr := range accepted {
		trs[i] = check.ODTransition{
			From:       tr.From,
			To:         tr.To,
			NumPoints:  len(tr.Seg.Points),
			EntryIndex: tr.FromCross.EntryIndex,
			ExitIndex:  tr.ToCross.ExitIndex,
		}
	}
	return p.checker.Transitions(car, trs)
}

// GridAnalysis aggregates the transition point speeds on the analysis
// grid over the study area, attaches per-cell features, and fits the
// per-cell random-intercept mixed model (paper model 3).
func (p *Pipeline) GridAnalysis(recs []*TransitionRecord) (*grid.Aggregator, *stats.LMMResult, error) {
	sp := p.met.stages[stageGrid].Start()
	g, err := grid.New(p.City.StudyArea, p.Config.GridCellM)
	if err != nil {
		sp.End()
		return nil, nil, err
	}
	agg := grid.NewAggregator(g)
	points := 0
	for _, rec := range recs {
		span := rec.Transition.Span()
		for _, pt := range span {
			agg.Add(pt.Pos, pt.SpeedKmh)
		}
		points += len(span)
	}
	agg.AttachFeatures(p.City.DB, p.Graph)
	sp.End()
	p.met.gridPoints.Add(uint64(points))
	p.met.gridCells.Set(int64(agg.NumNonEmpty()))
	if err := p.checker.GridCells(agg); err != nil {
		return agg, nil, &runner.StageError{Stage: "grid", Err: err}
	}

	sp = p.met.lmm.Start()
	lmm, err := stats.FitLMM(agg.LMMGroups())
	sp.End()
	if err != nil {
		return agg, nil, err
	}
	p.met.lmmObs.Set(int64(lmm.NObs))
	return agg, lmm, nil
}

// PointSpeeds extracts every point speed of the given transitions (the
// paper's "30469 measured point speeds").
func PointSpeeds(recs []*TransitionRecord) []float64 {
	var out []float64
	for _, rec := range recs {
		for _, pt := range rec.Transition.Span() {
			out = append(out, pt.SpeedKmh)
		}
	}
	return out
}

// SpeedPoints pairs positions and speeds for map figures (Figs 3-5).
type SpeedPoint struct {
	Pos      geo.XY
	SpeedKmh float64
}

// TransitionSpeedPoints extracts the positioned speeds of one record.
func TransitionSpeedPoints(rec *TransitionRecord) []SpeedPoint {
	span := rec.Transition.Span()
	out := make([]SpeedPoint, 0, len(span))
	for _, pt := range span {
		out = append(out, SpeedPoint{Pos: pt.Pos, SpeedKmh: pt.SpeedKmh})
	}
	return out
}

// FeatureNames are the fixed-effect covariates of FeatureModel, in
// coefficient order (after the intercept).
var FeatureNames = []string{"traffic_lights", "bus_stops", "pedestrian_crossings", "junctions"}

// FeatureModel fits the paper's model 2: cell point speeds regressed on
// the cell's map features with a per-cell random intercept, estimated
// by REML. It quantifies the associations between map features and
// driving speed that the grid analysis shows qualitatively.
func (p *Pipeline) FeatureModel(recs []*TransitionRecord) (*stats.LMMFixedResult, error) {
	g, err := grid.New(p.City.StudyArea, p.Config.GridCellM)
	if err != nil {
		return nil, err
	}
	agg := grid.NewAggregator(g)
	for _, rec := range recs {
		for _, pt := range rec.Transition.Span() {
			agg.Add(pt.Pos, pt.SpeedKmh)
		}
	}
	agg.AttachFeatures(p.City.DB, p.Graph)
	return stats.FitLMMFixed(agg.LMMGroupsWithFeatures())
}
