package core

import (
	"repro/internal/obs"
	"repro/internal/odselect"
	"repro/internal/roadnet"
	"repro/internal/segment"
)

// StageNames lists the instrumented pipeline stages in paper order.
// Every stage owns a span (<name>_duration_seconds histogram plus
// <name>_active gauge) and kept/dropped counters under the
// "pipeline_<stage>_" prefix; exporters and the taxiflow summary table
// iterate this list.
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
// touches. Handles are resolved once at construction; with a nil
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

	cleanTrips, cleanReordered, cleanChoseTime, cleanPointsDropped *obs.Counter

	segIn, segKept, segDroppedShort, segDroppedLong, segResplit, segStopPointsDropped *obs.Counter

	odSegments, odGateTouched, odTransitions, odWithinCentre, odAccepted, odRejected *obs.Counter

	matchMatched, matchDropped *obs.Counter

	attrRoutes *obs.Counter

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

		cleanTrips:         reg.Counter("pipeline_clean_trips"),
		cleanReordered:     reg.Counter("pipeline_clean_reordered"),
		cleanChoseTime:     reg.Counter("pipeline_clean_chose_time"),
		cleanPointsDropped: reg.Counter("pipeline_clean_points_dropped"),

		segIn:                reg.Counter("pipeline_segment_input_trips"),
		segKept:              reg.Counter("pipeline_segment_kept"),
		segDroppedShort:      reg.Counter("pipeline_segment_dropped_short"),
		segDroppedLong:       reg.Counter("pipeline_segment_dropped_long"),
		segResplit:           reg.Counter("pipeline_segment_resplit"),
		segStopPointsDropped: reg.Counter("pipeline_segment_stop_points_dropped"),

		odSegments:     reg.Counter("pipeline_odselect_segments"),
		odGateTouched:  reg.Counter("pipeline_odselect_gate_touched"),
		odTransitions:  reg.Counter("pipeline_odselect_transitions"),
		odWithinCentre: reg.Counter("pipeline_odselect_within_centre"),
		odAccepted:     reg.Counter("pipeline_odselect_accepted"),
		odRejected:     reg.Counter("pipeline_odselect_rejected"),

		matchMatched: reg.Counter("pipeline_mapmatch_matched"),
		matchDropped: reg.Counter("pipeline_mapmatch_dropped"),

		attrRoutes: reg.Counter("pipeline_mapattr_routes"),

		gridPoints: reg.Counter("pipeline_grid_points"),
		gridCells:  reg.Gauge("pipeline_grid_cells_nonempty"),
		lmmObs:     reg.Gauge("pipeline_lmm_observations"),
	}
	for id, name := range StageNames {
		m.stages[id] = reg.SpanTimer("pipeline_" + name)
	}
	return m
}

// recordCleanStats folds one car's cleaning summary into the counters.
func (m *pipelineMetrics) recordCleanStats(s CleanStats) {
	m.cleanTrips.Add(uint64(s.Trips))
	m.cleanReordered.Add(uint64(s.Reordered))
	m.cleanChoseTime.Add(uint64(s.ChoseTime))
	m.cleanPointsDropped.Add(uint64(s.DroppedPoints))
}

// recordSegStats folds one car's segmentation summary into the
// counters.
func (m *pipelineMetrics) recordSegStats(s segment.Stats) {
	m.segIn.Add(uint64(s.InputTrips))
	m.segKept.Add(uint64(s.KeptSegments))
	m.segDroppedShort.Add(uint64(s.TooFewPoints))
	m.segDroppedLong.Add(uint64(s.TooLong))
	m.segResplit.Add(uint64(s.Resplit))
	m.segStopPointsDropped.Add(uint64(s.DroppedStopPoints))
}

// recordFunnel folds one car's OD funnel into the counters.
func (m *pipelineMetrics) recordFunnel(f odselect.Funnel) {
	m.odSegments.Add(uint64(f.TripSegments))
	m.odGateTouched.Add(uint64(f.Filtered))
	m.odTransitions.Add(uint64(f.Transitions))
	m.odWithinCentre.Add(uint64(f.WithinCentre))
	m.odAccepted.Add(uint64(f.PostFiltered))
	m.odRejected.Add(uint64(f.TripSegments - f.PostFiltered))
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
