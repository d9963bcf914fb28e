package obs

import (
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestHistogramQuantileAccuracy checks the streaming estimate against a
// sorted reference over several distributions. The bucket layout's
// worst-case relative error is 2^(1/32)-1 ≈ 2.2 %; allow 5 % for rank
// interpolation differences at distribution edges.
func TestHistogramQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	distributions := map[string]func() float64{
		"uniform":     func() float64 { return rng.Float64() },
		"exponential": func() float64 { return rng.ExpFloat64() * 0.01 },
		"lognormal":   func() float64 { return math.Exp(rng.NormFloat64()*2 - 5) },
	}
	for name, draw := range distributions {
		h := &Histogram{}
		vals := make([]float64, 20000)
		for i := range vals {
			vals[i] = draw()
			h.Observe(vals[i])
		}
		sort.Float64s(vals)
		for _, q := range []float64{0.5, 0.9, 0.99} {
			rank := int(math.Ceil(q*float64(len(vals)))) - 1
			want := vals[rank]
			got := h.Quantile(q)
			if relErr := math.Abs(got-want) / want; relErr > 0.05 {
				t.Errorf("%s p%.0f: got %g, reference %g (rel err %.1f%%)",
					name, q*100, got, want, 100*relErr)
			}
		}
		if h.Count() != uint64(len(vals)) {
			t.Errorf("%s: count = %d, want %d", name, h.Count(), len(vals))
		}
		var sum float64
		for _, v := range vals {
			sum += v
		}
		if math.Abs(h.Sum()-sum)/sum > 1e-9 {
			t.Errorf("%s: sum = %g, want %g", name, h.Sum(), sum)
		}
		if got, want := h.Max(), vals[len(vals)-1]; got != want {
			t.Errorf("%s: max = %g, want %g", name, got, want)
		}
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	h := &Histogram{}
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("empty histogram quantile must be the NaN sentinel")
	}
	if h.Max() != 0 || h.Sum() != 0 {
		t.Fatal("empty histogram must report zero max/sum")
	}
	h.Observe(0)
	h.Observe(-5)          // clamps to 0
	h.Observe(math.NaN())  // clamps to 0
	h.Observe(math.Inf(1)) // clamps to last bucket
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	if q := h.Quantile(0.5); q > 1e-8 {
		t.Fatalf("median of zero-dominated histogram = %g", q)
	}
}

// TestHistogramMergeFreeze: a frozen copy must answer the same
// quantiles as its source while remaining immutable as the source
// moves on.
func TestHistogramMergeFreeze(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	whole := &Histogram{}
	for i := 0; i < 5000; i++ {
		whole.Observe(rng.ExpFloat64() * 120)
	}

	f := whole.Freeze()
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		if f.Quantile(q) != whole.Quantile(q) {
			t.Fatalf("frozen p%g = %g, live %g", q*100, f.Quantile(q), whole.Quantile(q))
		}
	}
	if f.Mean() != whole.Sum()/float64(whole.Count()) {
		t.Fatalf("frozen mean = %g", f.Mean())
	}
	// Immutability: the frozen copy must not see later observations.
	before := f.Count()
	whole.Observe(1e6)
	if f.Count() != before || f.Max() == 1e6 {
		t.Fatal("frozen histogram observed a post-freeze value")
	}
	if f.Equal(whole.Freeze()) {
		t.Fatal("Equal must detect the extra observation")
	}

	// Nil safety.
	var nilH *Histogram
	nf := nilH.Freeze()
	if nf.Count() != 0 || !math.IsNaN(nf.Quantile(0.5)) || nf.Mean() != 0 {
		t.Fatal("nil-histogram freeze must be empty")
	}
	if !nf.Equal((&Histogram{}).Freeze()) {
		t.Fatal("empty frozen histograms must be equal")
	}
}

// TestRegistryRaces hammers every metric kind from many goroutines;
// run under -race this is the registry's concurrency gate. Totals must
// still reconcile exactly (counters, histogram count/sum) afterwards.
func TestRegistryRaces(t *testing.T) {
	reg := NewRegistry()
	const goroutines = 8
	const perG = 2000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := reg.Counter("c")
			g := reg.Gauge("g")
			h := reg.Histogram("h")
			timer := reg.SpanTimer("stage")
			for j := 0; j < perG; j++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(0.001)
				sp := timer.Start()
				sp.End()
				if j%100 == 0 {
					_ = reg.Snapshot() // concurrent reads
				}
			}
		}()
	}
	wg.Wait()
	if got := reg.Counter("c").Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := reg.Gauge("g").Value(); got != 0 {
		t.Fatalf("gauge = %d, want 0", got)
	}
	if got := reg.Histogram("h").Count(); got != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*perG)
	}
	if got := math.Abs(reg.Histogram("h").Sum() - goroutines*perG*0.001); got > 1e-6 {
		t.Fatalf("histogram sum off by %g", got)
	}
	if got := reg.Gauge("stage_active").Value(); got != 0 {
		t.Fatalf("span active gauge = %d, want 0", got)
	}
	if got := reg.Histogram("stage_duration_seconds").Count(); got != goroutines*perG {
		t.Fatalf("span histogram count = %d, want %d", got, goroutines*perG)
	}
}

// TestNestedSpans opens an outer span around two sequential inner
// spans and checks the recorded timings nest: outer duration >= sum of
// inner durations, and all active gauges return to zero.
func TestNestedSpans(t *testing.T) {
	reg := NewRegistry()
	outer := reg.SpanTimer("outer")
	inner := reg.SpanTimer("inner")

	so := outer.Start()
	if got := reg.Gauge("outer_active").Value(); got != 1 {
		t.Fatalf("outer_active = %d during span, want 1", got)
	}
	var innerTotal time.Duration
	for i := 0; i < 2; i++ {
		si := inner.Start()
		time.Sleep(2 * time.Millisecond)
		innerTotal += si.End()
	}
	outerDur := so.End()

	if outerDur < innerTotal {
		t.Fatalf("outer span (%s) shorter than nested inner spans (%s)", outerDur, innerTotal)
	}
	oh := reg.Histogram("outer_duration_seconds")
	ih := reg.Histogram("inner_duration_seconds")
	if oh.Count() != 1 || ih.Count() != 2 {
		t.Fatalf("span counts: outer %d (want 1), inner %d (want 2)", oh.Count(), ih.Count())
	}
	// The histogram estimate is within ~2.2 % of the true sum.
	if oh.Sum() < ih.Sum()*0.9 {
		t.Fatalf("outer recorded %gs, inner total %gs", oh.Sum(), ih.Sum())
	}
	if reg.Gauge("outer_active").Value() != 0 || reg.Gauge("inner_active").Value() != 0 {
		t.Fatal("active gauges did not return to zero")
	}
}

// TestNilRegistryNoops checks that every operation on a nil registry,
// and on the handles it returns, is a safe no-op.
func TestNilRegistryNoops(t *testing.T) {
	var reg *Registry
	reg.Counter("c").Inc()
	reg.Counter("c").Add(5)
	reg.Gauge("g").Set(3)
	reg.Gauge("g").Add(-1)
	reg.Histogram("h").Observe(1)
	reg.GaugeFunc("f", func() float64 { return 1 })
	sp := reg.StartSpan("s")
	if d := sp.End(); d != 0 {
		t.Fatalf("no-op span returned duration %s", d)
	}
	if reg.Counter("c").Value() != 0 || reg.Gauge("g").Value() != 0 || reg.Histogram("h").Count() != 0 {
		t.Fatal("nil registry accumulated state")
	}
	s := reg.Snapshot()
	if len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 {
		t.Fatalf("nil registry exported %q", sb.String())
	}
}

// promLine validates one line of Prometheus text exposition format.
var promLine = regexp.MustCompile(`^(# (TYPE|HELP) [a-zA-Z_:][a-zA-Z0-9_:]* ?.*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+( [0-9]+)?)$`)

// TestDebugServer boots the debug server on an ephemeral port and
// checks /metrics serves valid Prometheus text format, /debug/vars
// serves JSON, and /debug/pprof/ answers.
func TestDebugServer(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("pipeline_clean_trips").Add(7)
	reg.Gauge("pipeline_car_active").Set(2)
	reg.GaugeFunc("router_cache_hit_rate", func() float64 { return 0.5 })
	reg.Histogram("pipeline_mapmatch_duration_seconds").Observe(0.004)

	srv, err := ServeDebug("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (string, string) {
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	body, ctype := get("/metrics")
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("/metrics content-type = %q", ctype)
	}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if !promLine.MatchString(line) {
			t.Errorf("invalid Prometheus line: %q", line)
		}
	}
	for _, want := range []string{
		"pipeline_clean_trips 7",
		"router_cache_hit_rate 0.5",
		`pipeline_mapmatch_duration_seconds{quantile="0.5"}`,
		"pipeline_mapmatch_duration_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics misses %q", want)
		}
	}

	body, ctype = get("/debug/vars")
	if !strings.HasPrefix(ctype, "application/json") {
		t.Errorf("/debug/vars content-type = %q", ctype)
	}
	if !strings.Contains(body, `"pipeline_clean_trips": 7`) {
		t.Errorf("/debug/vars misses counter: %s", body)
	}

	if body, _ = get("/debug/pprof/"); !strings.Contains(body, "profile") {
		t.Error("/debug/pprof/ index looks wrong")
	}
}

// TestFrozenMergeExact: FrozenHistogram.Merge over a partition of one
// observation stream must reproduce the unpartitioned freeze exactly,
// commute, treat nil as the identity, and preserve quantiles.
func TestFrozenMergeExact(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	whole, a, b := &Histogram{}, &Histogram{}, &Histogram{}
	for i := 0; i < 4000; i++ {
		v := rng.ExpFloat64() * 40
		whole.Observe(v)
		if i%3 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
	}
	fa, fb, fw := a.Freeze(), b.Freeze(), whole.Freeze()

	m, err := fa.Merge(fb)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Equal(fw) {
		t.Fatal("merge of a partition differs from the whole")
	}
	rm, err := fb.Merge(fa)
	if err != nil {
		t.Fatal(err)
	}
	if !rm.Equal(m) {
		t.Fatal("frozen merge does not commute")
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if m.Quantile(q) != fw.Quantile(q) {
			t.Fatalf("merged p%g = %g, whole %g", q*100, m.Quantile(q), fw.Quantile(q))
		}
	}

	// Nil and empty are identities.
	if id, err := fa.Merge(nil); err != nil || !id.Equal(fa) {
		t.Fatalf("merge with nil: %v", err)
	}
	var nilF *FrozenHistogram
	if id, err := nilF.Merge(fa); err != nil || !id.Equal(fa) {
		t.Fatalf("nil.Merge: %v", err)
	}
}

// TestFrozenMergeLayoutMismatch: counts frozen under a different bucket
// scheme must never be added index-by-index — Merge has to refuse with
// ErrLayoutMismatch in both directions.
func TestFrozenMergeLayoutMismatch(t *testing.T) {
	h := &Histogram{}
	h.Observe(1)
	cur := h.Freeze()
	foreign := &FrozenHistogram{
		count: 1, sum: 1, max: 1,
		idx: []int32{3}, bucketN: []uint64{1},
		layout: histLayout{SubBits: 2, MinExp: -10, MaxExp: 10},
	}
	if _, err := cur.Merge(foreign); !errors.Is(err, ErrLayoutMismatch) {
		t.Fatalf("cur.Merge(foreign) = %v, want ErrLayoutMismatch", err)
	}
	if _, err := foreign.Merge(cur); !errors.Is(err, ErrLayoutMismatch) {
		t.Fatalf("foreign.Merge(cur) = %v, want ErrLayoutMismatch", err)
	}
	// Same foreign layout on both sides is fine: layouts agree.
	other := &FrozenHistogram{
		count: 2, sum: 4, max: 3,
		idx: []int32{3, 5}, bucketN: []uint64{1, 1},
		layout: histLayout{SubBits: 2, MinExp: -10, MaxExp: 10},
	}
	m, err := foreign.Merge(other)
	if err != nil {
		t.Fatal(err)
	}
	if m.Count() != 3 || len(m.idx) != 2 || m.bucketN[0] != 2 {
		t.Fatalf("foreign-layout merge wrong: %+v", m)
	}
}
