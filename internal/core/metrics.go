package core

import (
	"repro/internal/obs"
	"repro/internal/roadnet"
)

// StageNames lists the instrumented pipeline stages in paper order.
// Every stage owns a span under the "pipeline_<stage>" prefix (a
// _duration_seconds histogram plus an _active gauge); exporters, the
// run report and the taxiflow timing table iterate this list. What a
// stage keeps and drops is counted by the lineage rows (Ledger).
var StageNames = stageNames[:]

// stageID indexes StageNames: stage handles, span timers and pprof
// labels are resolved by it.
type stageID int

const (
	stageSimulate stageID = iota
	stageClean
	stageSegment
	stageODSelect
	stageMapmatch
	stageMapattr
	stageGrid
	numStages
)

var stageNames = [numStages]string{
	"simulate", "clean", "segment", "odselect", "mapmatch", "mapattr", "grid",
}

// pipelineMetrics holds every pre-resolved metric handle the pipeline
// touches outside the ledger commit (Ledger.Commit resolves the stage
// counts). Handles are resolved once at construction; with a nil
// registry every field is nil and every operation is a no-op branch, so
// the hot path carries no "is observability on?" logic of its own.
type pipelineMetrics struct {
	// Per-car worker accounting: pipeline_car_active is the live worker
	// gauge, the histogram is the per-car end-to-end processing time.
	car  *obs.SpanTimer
	cars *obs.Counter

	// Stage spans indexed by stageID, plus the mixed-model fit.
	stages [numStages]*obs.SpanTimer
	lmm    *obs.SpanTimer

	simTrips *obs.Counter

	gridPoints *obs.Counter
	gridCells  *obs.Gauge
	lmmObs     *obs.Gauge
}

// newPipelineMetrics resolves every handle against reg (which may be
// nil — all handles become no-ops).
func newPipelineMetrics(reg *obs.Registry) *pipelineMetrics {
	m := &pipelineMetrics{
		car:  reg.SpanTimer("pipeline_car"),
		cars: reg.Counter("pipeline_cars_processed"),
		lmm:  reg.SpanTimer("pipeline_lmm"),

		simTrips: reg.Counter("pipeline_simulate_trips"),

		gridPoints: reg.Counter("pipeline_grid_points"),
		gridCells:  reg.Gauge("pipeline_grid_cells_nonempty"),
		lmmObs:     reg.Gauge("pipeline_lmm_observations"),
	}
	for id, name := range StageNames {
		m.stages[id] = reg.SpanTimer("pipeline_" + name)
	}
	return m
}

// registerRouterGauges re-exports the router path-cache counters (which
// the roadnet package keeps itself) as snapshot-time gauges: hit/miss/
// eviction totals, hit rate and occupancy.
func registerRouterGauges(reg *obs.Registry, router *roadnet.Router) {
	if reg == nil || router == nil {
		return
	}
	reg.GaugeFunc("router_cache_hits", func() float64 {
		return float64(router.CacheStats().Hits)
	})
	reg.GaugeFunc("router_cache_misses", func() float64 {
		return float64(router.CacheStats().Misses)
	})
	reg.GaugeFunc("router_cache_evictions", func() float64 {
		return float64(router.CacheStats().Evictions)
	})
	reg.GaugeFunc("router_cache_entries", func() float64 {
		return float64(router.CacheStats().Entries)
	})
	reg.GaugeFunc("router_cache_hit_rate", func() float64 {
		return router.CacheStats().HitRate()
	})
}
