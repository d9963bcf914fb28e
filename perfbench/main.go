// Command perfbench is the repository's end-to-end benchmark. It drives
// four in-process workloads through the public functions of the layer
// packages (trace, clean, segment, core, odselect, mapmatch, mapattr,
// roadnet, runner, sink, ingest, serve, predict, cluster) and prints one
// JSON result line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (setup_s,
// throughput_per_s, latency_p50_ms, latency_p99_ms, heap_retained_mb).
// With -trace 1 the run measures an untraced phase and a traced phase of
// equal length, records obs.Tracer spans around every call into a layer,
// writes a Perfetto trace under -out, prints the per-layer table ranked
// by self time to stderr and reports the per-layer metrics.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload fleet_batch --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload serve_mixed --seed 1 --seconds 10 --repeat 10
//
// -repeat N is the steadiness report: it runs the workload N times as
// separate processes with seeds seed..seed+N-1 and prints, per metric,
// the median, the quartiles, the spread (interquartile range over the
// median) and the sample count.
//
// Output checks run in the same command; any failed check prints
// "correct": false and exits with status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// options are one run's command-line settings.
type options struct {
	seed    int64
	seconds float64
	traced  bool
	outDir  string
}

// workload is one benchmark scenario.
type workload struct {
	name string
	run  func(o options, r *report) error
}

// otherTraceSeconds is the measured length of the short traced runs of
// the other workloads that a traced run adds for their layers.
const otherTraceSeconds = 2

var workloads = []workload{
	{"fleet_batch", runFleetBatch},
	{"firehose", runFirehose},
	{"serve_mixed", runServeMixed},
	{"cluster_fanin", runClusterFanin},
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the run's result line plus the failed checks behind it.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	problems []string
	samples  map[string]int
}

func newReport() *report {
	return &report{Correct: true, Metrics: map[string]metric{}, samples: map[string]int{}}
}

// check records a failed output check when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	if ok {
		return
	}
	r.Correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// set records a metric with the number of samples behind it.
func (r *report) set(name string, v float64, unit string, samples int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.check(false, "metric %s is not finite (%v)", name, v)
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = samples
}

func main() {
	name := flag.String("workload", "", "workload to run: fleet_batch, firehose, serve_mixed or cluster_fanin")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "length of the measured phase in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end run")
	repeat := flag.Int("repeat", 0, "steadiness report: run the workload this many times with consecutive seeds")
	outDir := flag.String("out", ".bench_out", "directory for Perfetto trace files")
	flag.Parse()

	runtime.GOMAXPROCS(runtime.NumCPU())
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	if *repeat > 0 {
		if err := steadiness(*name, *seed, *seconds, *traceFlag, *repeat); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	o := options{seed: *seed, seconds: *seconds, traced: *traceFlag == 1, outDir: *outDir}
	r := newReport()
	fmt.Fprintf(os.Stderr, "perfbench: workload=%s seed=%d seconds=%g trace=%d GOMAXPROCS=%d\n",
		wl.name, o.seed, o.seconds, *traceFlag, runtime.GOMAXPROCS(0))
	if err := wl.run(o, r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	if o.traced {
		// Every traced run reports every per-layer metric as measured: the
		// layers other workloads exercise come from short traced runs of
		// those workloads, whose checks count too.
		for _, other := range workloads {
			if other.name == wl.name {
				continue
			}
			fmt.Fprintf(os.Stderr, "perfbench: traced %s for its layers\n", other.name)
			sub := newReport()
			so := o
			so.seconds = otherTraceSeconds
			if err := other.run(so, sub); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", other.name, err)
				os.Exit(1)
			}
			r.Attempted += sub.Attempted
			r.Failed += sub.Failed
			for _, p := range sub.problems {
				r.check(false, "%s: %s", other.name, p)
			}
			for k, m := range sub.Metrics {
				if _, ok := r.Metrics[k]; !ok && !strings.HasPrefix(k, "bench.") {
					r.set(k, m.Value, m.Unit, sub.samples[k])
				}
			}
		}
		checkPerLayer(r)
	}
	if r.Attempted < 1 {
		r.check(false, "no operation was attempted")
	}
	printMetrics(r)
	for _, p := range r.problems {
		fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED: %s\n", p)
	}
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !r.Correct {
		os.Exit(1)
	}
}

// printMetrics writes every metric with its unit and sample count to
// stderr, in name order.
func printMetrics(r *report) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "%-34s %14s %-8s %s\n", "metric", "value", "unit", "samples")
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(&b, "%-34s %14.6g %-8s %d\n", n, m.Value, m.Unit, r.samples[n])
	}
	fmt.Fprintf(&b, "attempted=%d failed=%d correct=%v\n", r.Attempted, r.Failed, r.Correct)
	fmt.Fprint(os.Stderr, b.String())
}
