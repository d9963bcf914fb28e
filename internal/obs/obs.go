// Package obs is the pipeline's zero-dependency observability layer: a
// concurrency-safe metrics registry holding atomic counters, gauges and
// streaming histograms, lightweight stage spans, and exporters
// (Prometheus text format, JSON snapshots, and an HTTP debug server
// with live pprof).
//
// The paper's pipeline is a chain of lossy stages — cleaning →
// segmentation → OD selection → map-matching → attribute fetching →
// grid aggregation — and its credibility rests on knowing exactly how
// much data each stage kept, dropped, and how long it took. This
// package gives every stage a uniform way to report that, without
// perturbing results or hot-path allocation behaviour:
//
//   - all handle methods are nil-receiver safe, so a nil *Registry
//     (instrumentation disabled) degrades every operation to a
//     predictable no-op branch;
//   - hot-path operations are single atomic instructions (Counter.Add,
//     Gauge.Add) or a handful of them (Histogram.Observe); no locks, no
//     allocations, no maps;
//   - handles are resolved once at construction (Registry.Counter etc.
//     take the registry lock), then used lock-free forever after.
//
// Typical use:
//
//	reg := obs.NewRegistry()
//	points := reg.Counter("pipeline_grid_points")
//	timer := reg.SpanTimer("pipeline_grid")
//	...
//	sp := timer.Start()          // increments pipeline_grid_active
//	agg.Add(pt.Pos, pt.SpeedKmh)
//	sp.End()                     // observes pipeline_grid_duration_seconds
//	points.Inc()
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is a concurrency-safe collection of named metrics. The zero
// of *Registry (nil) is valid: every method returns nil handles whose
// operations are no-ops, so instrumented code needs no "is observability
// on?" branches of its own.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	gaugeFns map[string]func() float64
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		gaugeFns: map[string]func() float64{},
		hists:    map[string]*Histogram{},
	}
}

// Counter returns (registering on first use) the named monotonic
// counter. Safe for concurrent callers; returns nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (registering on first use) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a gauge whose value is computed by fn at
// snapshot/export time — the bridge for subsystems that keep their own
// counters (e.g. the router path cache). Later registrations under the
// same name replace earlier ones.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.gaugeFns[name] = fn
	r.mu.Unlock()
}

// Histogram returns (registering on first use) the named streaming
// histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// --- Counter ---------------------------------------------------------------

// Counter is a monotonically increasing atomic counter. All methods are
// nil-receiver safe no-ops.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// --- Gauge -----------------------------------------------------------------

// Gauge is an atomic instantaneous value (e.g. active workers). All
// methods are nil-receiver safe no-ops.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds delta (which may be negative).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// --- Snapshot --------------------------------------------------------------

// Snapshot is a point-in-time copy of every metric in a registry, in
// the shape the JSON exporter writes.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures every metric. GaugeFunc callbacks are evaluated
// here (outside the registry lock, so a callback may itself read
// metrics). Returns an empty snapshot on a nil registry.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	fns := make(map[string]func() float64, len(r.gaugeFns))
	for n, fn := range r.gaugeFns {
		fns[n] = fn
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	r.mu.RUnlock()

	for n, c := range counters {
		s.Counters[n] = c.Value()
	}
	for n, g := range gauges {
		s.Gauges[n] = float64(g.Value())
	}
	for n, fn := range fns {
		v := fn()
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		s.Gauges[n] = v
	}
	for n, h := range hists {
		s.Histograms[n] = h.Snapshot()
	}
	return s
}

// sortedKeys returns the sorted key set of a map with string keys.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
