package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/obs"
)

// perLayer lists every per-layer metric with its unit. A traced run
// reports all of them.
var perLayer = []struct{ name, unit string }{
	// fleet_batch: the per-car stage chain under the fleet runner.
	{"trace.decode_us_per_car", "us"},
	{"clean.us_per_car", "us"},
	{"clean.drop_ratio", "ratio"},
	{"segment.us_per_car", "us"},
	{"segment.keep_ratio", "ratio"},
	{"core.materialize_us_per_car", "us"},
	{"odselect.us_per_car", "us"},
	{"odselect.accept_ratio", "ratio"},
	{"mapmatch.us_per_transition", "us"},
	{"mapmatch.fail_ratio", "ratio"},
	{"roadnet.path_cache_hit_ratio", "ratio"},
	{"mapattr.us_per_transition", "us"},
	{"sink.absorb_us_per_car", "us"},
	{"sink.seal_ms", "ms"},
	{"runner.busy_ratio", "ratio"},
	{"core.alloc_kb_per_car", "kB"},
	{"core.gc_cpu_ratio", "ratio"},
	// firehose: the event-time ingest engine.
	{"ingest.decode_ns_per_point", "ns"},
	{"ingest.admit_ns_per_point", "ns"},
	{"ingest.watermark_us_per_advance", "us"},
	{"ingest.flush_ms_per_round", "ms"},
	{"ingest.trips_per_flush", "count"},
	{"ingest.cars_seen", "count"},
	{"ingest.open_trips_peak", "count"},
	{"ingest.buffered_points_peak", "count"},
	{"ingest.drop_ratio", "ratio"},
	// serve_mixed: /v1 handlers, prediction and anomaly scoring.
	{"serve.predict_p50_us", "us"},
	{"serve.predict_p99_us", "us"},
	{"serve.cells_p50_us", "us"},
	{"serve.cells_p99_us", "us"},
	{"serve.grid_p50_us", "us"},
	{"serve.grid_p99_us", "us"},
	{"serve.od_p50_us", "us"},
	{"serve.od_p99_us", "us"},
	{"serve.odpair_p50_us", "us"},
	{"serve.odpair_p99_us", "us"},
	{"serve.anomalies_p50_us", "us"},
	{"serve.anomalies_p99_us", "us"},
	{"predict.route_us", "us"},
	{"predict.observed_edge_ratio", "ratio"},
	{"predict.anomaly_report_us", "us"},
	{"sink.publish_ms", "ms"},
	{"serve.writer_late_p99_ms", "ms"},
	// cluster_fanin: partial pull, decode and merge.
	{"cluster.pull_wait_ms", "ms"},
	{"cluster.pulls_per_round", "count"},
	{"cluster.useful_pull_ratio", "ratio"},
	{"cluster.partial_kb", "kB"},
	{"cluster.shard_skew", "ratio"},
	{"cluster.decode_us", "us"},
	{"cluster.merge_ms", "ms"},
	{"cluster.merges_per_round", "count"},
	// The tracing itself.
	{"bench.trace_overhead_ratio", "ratio"},
	{"bench.trace_unattributed_ratio", "ratio"},
	{"bench.trace_spans", "count"},
	{"bench.trace_dropped_spans", "count"},
}

// checkPerLayer fails the run when a traced run left a per-layer metric
// unmeasured.
func checkPerLayer(r *report) {
	for _, m := range perLayer {
		got, ok := r.Metrics[m.name]
		r.check(ok && got.Unit == m.unit, "per-layer metric %s (%s) was not measured", m.name, m.unit)
	}
}

// unattributedTolerance bounds the share of traced busy time that falls
// outside every layer span: layer self times must sum to the busy time
// within it.
const unattributedTolerance = 0.05

// traceCapacity sizes the span ring so a traced phase never wraps it.
const traceCapacity = 1 << 20

func newTracer() *obs.Tracer {
	return obs.NewTracer(obs.TracerConfig{Capacity: traceCapacity})
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	name   string
	count  int
	selfNs int64
	durs   []int64 // per-span durations
}

// traceSummary is the span table of one traced phase.
type traceSummary struct {
	layers  map[string]*layerStat
	records []*obs.SpanRecord
	busyNs  int64 // Σ root span durations
	glueNs  int64 // Σ self time of the benchmark's own root spans
	dropped uint64
}

// summarize computes every span's self time (its duration minus its
// children's) and aggregates by name. glue names the root spans that
// belong to the benchmark rather than to a layer: their self time is the
// busy time no layer span covers.
func summarize(t *obs.Tracer, glue ...string) *traceSummary {
	recs := t.Records()
	childNs := make(map[uint64]int64, len(recs))
	for _, rec := range recs {
		if rec.Parent != 0 {
			childNs[rec.Parent] += rec.DurNs
		}
	}
	isGlue := map[string]bool{}
	for _, g := range glue {
		isGlue[g] = true
	}
	s := &traceSummary{layers: map[string]*layerStat{}, records: recs, dropped: t.Dropped()}
	for _, rec := range recs {
		self := rec.DurNs - childNs[rec.ID]
		ls := s.layers[rec.Name]
		if ls == nil {
			ls = &layerStat{name: rec.Name}
			s.layers[rec.Name] = ls
		}
		ls.count++
		ls.selfNs += self
		ls.durs = append(ls.durs, rec.DurNs)
		if rec.Parent == 0 {
			s.busyNs += rec.DurNs
			if isGlue[rec.Name] {
				s.glueNs += self
			}
		}
	}
	return s
}

// self returns the summed self time of the named spans in microseconds
// and their count.
func (s *traceSummary) self(name string) (us float64, n int) {
	ls := s.layers[name]
	if ls == nil {
		return 0, 0
	}
	return float64(ls.selfNs) / 1e3, ls.count
}

// durQuantileUs returns the q-quantile of the named spans' durations in
// microseconds.
func (s *traceSummary) durQuantileUs(name string, q float64) (float64, int) {
	ls := s.layers[name]
	if ls == nil {
		return 0, 0
	}
	return quantile(durationsMs(ls.durs), q) * 1e3, ls.count
}

// finish reports the tracing metrics, checks the ring and the
// reconciliation, prints the layer table and writes the Perfetto file.
func (s *traceSummary) finish(r *report, t *obs.Tracer, o options, workload string, overhead float64) {
	r.set("bench.trace_spans", float64(len(s.records)), "count", len(s.records))
	r.set("bench.trace_dropped_spans", float64(s.dropped), "count", len(s.records))
	r.check(s.dropped == 0, "span ring wrapped: %d spans dropped", s.dropped)
	r.set("bench.trace_overhead_ratio", overhead, "ratio", 2)
	unattributed := 0.0
	if s.busyNs > 0 {
		unattributed = float64(s.glueNs) / float64(s.busyNs)
	}
	r.set("bench.trace_unattributed_ratio", unattributed, "ratio", len(s.records))
	r.check(s.busyNs > 0, "traced phase recorded no busy time")
	r.check(unattributed <= unattributedTolerance,
		"layer self times cover %.1f%% of traced busy time, want at least %.0f%%",
		100*(1-unattributed), 100*(1-unattributedTolerance))
	s.printTable()
	if err := writePerfetto(t, o, workload); err != nil {
		r.check(false, "write trace: %v", err)
	}
}

// printTable writes the per-layer table, ranked by share of self time,
// to stderr.
func (s *traceSummary) printTable() {
	stats := make([]*layerStat, 0, len(s.layers))
	var total int64
	for _, ls := range s.layers {
		stats = append(stats, ls)
		total += ls.selfNs
	}
	sort.Slice(stats, func(i, j int) bool { return stats[i].selfNs > stats[j].selfNs })
	var b strings.Builder
	fmt.Fprintf(&b, "%-26s %9s %12s %8s %12s %12s\n", "layer", "spans", "self_ms", "share", "self_us/op", "dur_p50_us")
	for _, ls := range stats {
		share := 0.0
		if total > 0 {
			share = float64(ls.selfNs) / float64(total)
		}
		fmt.Fprintf(&b, "%-26s %9d %12.3f %7.2f%% %12.3f %12.3f\n", ls.name, ls.count,
			float64(ls.selfNs)/1e6, 100*share, float64(ls.selfNs)/1e3/float64(ls.count),
			quantile(durationsMs(ls.durs), 0.5)*1e3)
	}
	fmt.Fprintf(&b, "busy %.3f ms, unattributed %.3f ms\n", float64(s.busyNs)/1e6, float64(s.glueNs)/1e6)
	fmt.Fprint(os.Stderr, b.String())
}

// writePerfetto writes the retained spans as Chrome trace_event JSON,
// loadable in Perfetto.
func writePerfetto(t *obs.Tracer, o options, workload string) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d.trace.json", workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := t.WriteTraceEvent(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %s\n", path)
	return nil
}

// overheadRatio is the tracing overhead: the share of untraced
// throughput lost under tracing.
func overheadRatio(untraced, traced float64) float64 {
	if untraced <= 0 {
		return 0
	}
	return 1 - traced/untraced
}
