// Package taxitrace reproduces "Revealing reliable information from
// taxi traces: from raw data to information discovery" (Keskinarkaus et
// al.): an end-to-end pipeline that turns raw taxi GPS/OBD traces into
// reliable, map-referenced information about city traffic.
//
// The pipeline stages, in paper order:
//
//  1. Map preparation: a road-network graph is reconstructed from
//     Digiroad-style traffic elements; endpoints shared by three or
//     more elements become junctions, and chains between junctions are
//     merged into single edges (Table 1).
//  2. Data cleaning: route-point ordering corrupted in transit is
//     repaired by sorting on both candidate keys (device id and
//     timestamp) and keeping the ordering with the smaller total trip
//     distance; all properties are realigned monotonically.
//  3. Trip segmentation: day-long engine-on trips are split into
//     customer runs with five time-based stop rules (Table 2).
//  4. Origin-Destination selection: segments are matched against
//     thick-geometry gate roads (T, S, L), filtered by crossing angle
//     and the central area, and classified into transitions (Table 3).
//  5. Map-matching: the incremental algorithm with digital-map driving
//     direction hints, with Dijkstra shortest-path gap filling.
//  6. Attribute fetching: traffic lights, junctions, bus stops and
//     pedestrian crossings are counted along each matched route
//     (Table 4).
//  7. Analysis: 200 m grid aggregation (Table 5, Figs 3-6) and a
//     per-cell random-intercept linear mixed model estimated by REML
//     with BLUP predictions (Figs 7-9), plus weather joins (Fig 10).
//
// The proprietary inputs of the paper (Driveco taxi traces, the
// Digiroad national road database, the FMI road weather feed) are
// replaced by deterministic synthetic substrates that exercise the
// same code paths; see DESIGN.md for the substitution arguments.
//
// Quick start:
//
//	p, err := taxitrace.New(taxitrace.Config{CitySeed: 42})
//	if err != nil { ... }
//	res, err := p.RunContext(ctx) // partial results + joined CarErrors on failure
//	recs := res.Transitions()
//	agg, lmm, err := p.GridAnalysis(recs)
//
// Fleet execution is fault tolerant: a car that fails (or panics) is
// isolated as a typed CarError and reported alongside the other cars'
// results; Config.MaxFailures bounds how much failure the run
// tolerates before aborting, and Pipeline.Stream exposes the per-car
// results incrementally as they complete. The execution surface is
// context-first throughout: RunContext, RunCarContext and
// ProcessContext (the historical ctx-free Run/RunCar/Process wrappers
// have been removed), plus Pipeline.ProcessTrip, the per-trip entry
// the event-time ingest layer (internal/ingest) calls as each trip
// closes, with a trace.ColTrip view of the columns it buffered the
// trip in, to drive it through the same stages.
//
// The experiments subpackage (internal/experiments) regenerates every
// table and figure of the paper; cmd/experiments writes them to disk.
package taxitrace

import (
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/obs"
)

// Config assembles one pipeline; the zero value selects the paper's
// settings with a default synthetic city and fleet.
type Config = core.Config

// Pipeline is a ready-to-run reproduction pipeline.
type Pipeline = core.Pipeline

// Result is the full fleet output of Pipeline.Run.
type Result = core.Result

// CarResult is one car's pipeline output (one Table 3 row).
type CarResult = core.CarResult

// CarError is the typed per-car failure record: which car failed, at
// which stage, after how many attempts, and why.
type CarError = core.CarError

// FleetStream is the live stream of per-car outcomes returned by
// Pipeline.Stream: results arrive as cars complete, failures as typed
// CarError events.
type FleetStream = core.FleetStream

// CarEvent is one streamed per-car outcome.
type CarEvent = core.CarEvent

// ErrBudgetExceeded is reported when more cars failed than
// Config.MaxFailures/MaxFailureFrac allow and the run aborted early
// (the partial Result is still returned).
var ErrBudgetExceeded = core.ErrBudgetExceeded

// TransitionRecord is one accepted OD transition with its matched
// route, fetched attributes, and Table 4 metrics.
type TransitionRecord = core.TransitionRecord

// SpeedPoint pairs a position with a measured speed.
type SpeedPoint = core.SpeedPoint

// LowSpeedKmh is the paper's low-speed threshold (10 km/h).
const LowSpeedKmh = core.LowSpeedKmh

// CheckConfig enables the correctness harness (Config.Check): per-stage
// invariant validation at every pipeline stage boundary, with counting
// and strict (fail-the-car) modes. See internal/check.
type CheckConfig = check.Config

// CheckError is the typed strict-mode invariant failure the runner's
// fault path surfaces; errors.As against a failed car's error recovers
// the individual violations.
type CheckError = check.CheckError

// New builds the synthetic city, road graph, fleet generator and all
// processing stages.
func New(cfg Config) (*Pipeline, error) { return core.NewPipeline(cfg) }

// PointSpeeds extracts every measured point speed from the given
// transitions.
func PointSpeeds(recs []*TransitionRecord) []float64 { return core.PointSpeeds(recs) }

// FailedCars extracts the typed per-car failures from an error
// returned by Pipeline.RunContext/Run, sorted by car number.
func FailedCars(err error) []*CarError { return core.FailedCars(err) }

// TransitionSpeedPoints extracts the positioned speeds of one
// transition for map figures.
func TransitionSpeedPoints(rec *TransitionRecord) []SpeedPoint {
	return core.TransitionSpeedPoints(rec)
}

// Tracer records per-car span trees on a fixed-size lock-free ring
// (Config.Tracer); export with WriteTraceEvent (Perfetto /
// chrome://tracing) or WriteNDJSON. A nil Tracer is a no-op.
type Tracer = obs.Tracer

// TracerConfig sizes a Tracer and sets its deterministic per-car
// sampling fraction.
type TracerConfig = obs.TracerConfig

// NewTracer builds a span recorder; see obs.NewTracer.
func NewTracer(cfg TracerConfig) *Tracer { return obs.NewTracer(cfg) }

// Lineage is the run's drop-reason ledger (Config.Lineage): per stage,
// in = out + Σ dropped-by-reason, with per-car drop attribution. A nil
// Lineage is a no-op.
type Lineage = obs.Lineage

// LineageSnapshot is the queryable per-run lineage table.
type LineageSnapshot = obs.LineageSnapshot

// DropReason is a typed cause for discarding a unit of data at a
// pipeline stage (obs.DropSpike, obs.DropTooLong, ...).
type DropReason = obs.DropReason

// NewLineage builds a ledger, mirroring totals into reg when non-nil.
func NewLineage(reg *obs.Registry) *Lineage { return obs.NewLineage(reg) }
