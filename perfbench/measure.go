package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"time"
)

// setupRepeats is how many times each run builds its system under test;
// setup_s is the median of those constructions.
const setupRepeats = 5

// timeSetup builds the system setupRepeats times, each from a freshly
// collected heap, and returns the median wall time in seconds. The
// caller keeps the last build.
func timeSetup(build func() error) (float64, error) {
	secs := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		start := time.Now()
		if err := build(); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return median(secs), nil
}

// median returns the middle value of xs (the mean of the middle two for
// an even count); xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// quartiles returns the first and third quartiles exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default exclusive
// method), so the steadiness report matches the acceptance arithmetic.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	m := n + 1
	at := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// liveHeapBytes forces collections and returns the heap the collector
// found live. The second collection empties sync.Pool victim caches, so
// transient scratch does not count as retained state.
func liveHeapBytes() float64 {
	runtime.GC()
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	return float64(sample[0].Value.Uint64())
}

// cpuCounters reads the runtime's cumulative GC and total CPU time and
// the bytes allocated so far.
type cpuCounters struct {
	gcCPU, totalCPU float64
	allocBytes      uint64
}

func readCPU() cpuCounters {
	sample := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(sample)
	return cpuCounters{
		gcCPU:      sample[0].Value.Float64(),
		totalCPU:   sample[1].Value.Float64(),
		allocBytes: sample[2].Value.Uint64(),
	}
}

// durationsMs converts nanosecond samples to milliseconds.
func durationsMs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	return out
}

// setLatency records latency_p50_ms and latency_p99_ms from pooled
// nanosecond samples. p99 needs at least 1,000 samples to have ten
// beyond it; fewer fail the run's checks.
func setLatency(r *report, ns []int64) {
	ms := durationsMs(ns)
	r.check(len(ms) >= 1000, "only %d latency samples; p99 needs at least 1000", len(ms))
	r.set("latency_p50_ms", quantile(ms, 0.50), "ms", len(ms))
	r.set("latency_p99_ms", quantile(ms, 0.99), "ms", len(ms))
}

// windowRates splits completion times (ns since phase start) into equal
// windows of the measured phase and returns the per-window rates in
// operations per second. Completions after the phase are not counted.
func windowRates(doneNs []int64, phase time.Duration, windows int) []float64 {
	w := phase / time.Duration(windows)
	if w <= 0 {
		return nil
	}
	counts := make([]int, windows)
	for _, t := range doneNs {
		i := int(time.Duration(t) / w)
		if i >= 0 && i < windows {
			counts[i]++
		}
	}
	out := make([]float64, windows)
	for i, c := range counts {
		out[i] = float64(c) / w.Seconds()
	}
	return out
}

// steadiness runs the workload n times as child processes with seeds
// seed..seed+n-1 and prints, per metric, the median, the quartiles, the
// spread (interquartile range over the median) and the sample count.
func steadiness(name string, seed int64, seconds float64, traced, n int) error {
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locate own binary: %w", err)
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(s, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(traced))
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		runErr := cmd.Run()
		var res report
		last := lastLine(stdout.Bytes())
		if err := json.Unmarshal(last, &res); err != nil {
			return fmt.Errorf("seed %d: no result line (%v, run error %v)", s, err, runErr)
		}
		if runErr != nil || !res.Correct {
			return fmt.Errorf("seed %d: run failed (correct=%v, %v)", s, res.Correct, runErr)
		}
		fmt.Fprintf(os.Stderr, "seed %d: %s\n", s, last)
		for k, m := range res.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
	}
	keys := make([]string, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("%-34s %-6s %3s %12s %12s %12s %8s\n", "metric", "unit", "n", "median", "q1", "q3", "spread")
	for _, k := range keys {
		v := values[k]
		q1, q3 := quartiles(v)
		med := median(v)
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Printf("%-34s %-6s %3d %12.6g %12.6g %12.6g %8.4f\n", k, units[k], len(v), med, q1, q3, spread)
	}
	return nil
}

// lastLine returns the last non-empty line of b.
func lastLine(b []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	return last
}
