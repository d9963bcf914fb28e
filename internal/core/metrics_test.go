package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/tracegen"
)

// TestPipelineMetrics runs a small instrumented fleet and checks that
// the registry holds one count per stage fact: the lineage series and
// the stage counters the ledger commits beside them must equal the
// sums of the per-car results, no other pipeline counter may re-count
// them, and the router cache gauges must reconcile with
// Router.CacheStats.
func TestPipelineMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	p, err := NewPipeline(Config{
		CitySeed: 42,
		Fleet: tracegen.Config{
			Seed: 42, Cars: 2, TripsPerCar: 8, GateRunFraction: 0.35,
		},
		Metrics: reg,
		Lineage: obs.NewLineage(reg),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.GridAnalysis(res.Transitions()); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()

	want := map[string]uint64{"pipeline_cars_processed": uint64(len(res.Cars))}
	add := func(name string, n int) { want[name] += uint64(n) }
	for _, cr := range res.Cars {
		add("pipeline_simulate_trips", cr.RawTrips)
		add("pipeline_clean_trips", cr.CleanStats.Trips)
		add("pipeline_clean_reordered", cr.CleanStats.Reordered)
		add("pipeline_clean_chose_time", cr.CleanStats.ChoseTime)
		add("pipeline_segment_input_trips", cr.SegStats.InputTrips)
		add("pipeline_segment_resplit", cr.SegStats.Resplit)
		add("pipeline_segment_stop_points_dropped", cr.SegStats.DroppedStopPoints)
		add(`lineage_in_total{stage="clean"}`, cr.CleanStats.RawPoints)
		add(`lineage_out_total{stage="clean"}`, cr.CleanStats.KeptPoints)
		add(`lineage_out_total{stage="segment"}`, cr.SegStats.KeptSegments)
		add(`lineage_in_total{stage="odselect"}`, cr.Funnel.TripSegments)
		add(`lineage_out_total{stage="odselect"}`, cr.Funnel.PostFiltered)
		add(`lineage_in_total{stage="mapmatch"}`, cr.Funnel.PostFiltered)
		add(`lineage_out_total{stage="mapmatch"}`, len(cr.Transitions))
	}
	if want[`lineage_out_total{stage="mapmatch"}`] == 0 {
		t.Fatal("degenerate fixture: no transition was matched")
	}
	for name, w := range want {
		if got, ok := snap.Counters[name]; !ok || got != w {
			t.Errorf("%s = %d (exported %v), want %d", name, got, ok, w)
		}
	}
	for name := range snap.Counters {
		if _, ok := want[name]; strings.HasPrefix(name, "pipeline_") && !ok && name != "pipeline_grid_points" {
			t.Errorf("counter %s re-counts a stage fact the lineage or the ledger's counters hold", name)
		}
	}

	// Router cache gauges mirror CacheStats.
	cs := p.Router.CacheStats()
	if got := snap.Gauges["router_cache_hits"]; got != float64(cs.Hits) {
		t.Errorf("router_cache_hits gauge = %v, CacheStats.Hits = %d", got, cs.Hits)
	}
	if got := snap.Gauges["router_cache_entries"]; got != float64(cs.Entries) {
		t.Errorf("router_cache_entries gauge = %v, CacheStats.Entries = %d", got, cs.Entries)
	}

	// Every instrumented stage must appear in the Prometheus export.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, stage := range StageNames {
		if !strings.Contains(text, "pipeline_"+stage+"_duration_seconds_count") {
			t.Errorf("/metrics output misses stage %s", stage)
		}
	}
	if !strings.Contains(text, "router_cache_hit_rate") {
		t.Error("/metrics output misses router cache stats")
	}
}
