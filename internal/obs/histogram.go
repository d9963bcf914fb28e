package obs

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
)

// Histogram layout: log-linear buckets covering 2^histMinExp ..
// 2^histMaxExp with histSub sub-buckets per power of two. With
// histSub = 16 the bucket width is a factor of 2^(1/16) ≈ 1.044, so a
// quantile estimate (the log-space midpoint of its bucket) is within
// ~2.2 % of the true value — far below the run-to-run noise of any
// timing this package records. The span covers sub-nanosecond to
// multi-year durations in seconds, and equally serves unit-less values.
const (
	histSubBits = 4
	histSub     = 1 << histSubBits // sub-buckets per power of two
	histMinExp  = -30              // 2^-30 ≈ 0.93e-9
	histMaxExp  = 30               // 2^30 ≈ 1.07e9
	histBuckets = (histMaxExp - histMinExp) * histSub
)

// Histogram is a fixed-footprint streaming histogram recording
// non-negative float64 observations (typically durations in seconds).
// Observe is lock-free: a handful of atomic operations, no allocation.
// All methods are nil-receiver safe. A Histogram must not be copied.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64 // float64 bits, CAS-accumulated
	max     atomic.Uint64 // float64 bits
	buckets [histBuckets]atomic.Uint64
}

// bucketIndex maps a value to its bucket. Values at or below zero (and
// below the representable minimum) clamp to bucket 0; values beyond the
// maximum clamp to the last bucket.
func bucketIndex(v float64) int {
	if !(v > 0) { // also catches NaN
		return 0
	}
	idx := int((math.Log2(v) - histMinExp) * histSub)
	if idx < 0 {
		return 0
	}
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// bucketValue is the representative (log-space midpoint) value of a
// bucket.
func bucketValue(i int) float64 {
	return math.Pow(2, histMinExp+(float64(i)+0.5)/histSub)
}

// Observe records one value. Negative and NaN values count as zero.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if !(v >= 0) {
		v = 0
	}
	h.count.Add(1)
	addFloat(&h.sum, v)
	maxFloat(&h.max, v)
	h.buckets[bucketIndex(v)].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the running total of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Max returns the largest observation seen (0 when empty).
func (h *Histogram) Max() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.max.Load())
}

// Quantile estimates the q-quantile (0 <= q <= 1) of a Freeze of the
// histogram; see FrozenHistogram.Quantile. Under concurrent writes the
// estimate remains well-defined (each bucket read is atomic) but may
// mix in observations arriving during the scan.
func (h *Histogram) Quantile(q float64) float64 { return h.Freeze().Quantile(q) }

// FrozenHistogram is an immutable point-in-time copy of a histogram:
// sparse bucket counts plus the running count/sum/max. Safe to share
// between any number of readers; arbitrary quantiles stay computable
// after the source histogram has moved on. The frozen copy records the
// bucket layout it was frozen under, so Merge can refuse to combine
// histograms whose bucket indexes mean different values.
type FrozenHistogram struct {
	count   uint64
	sum     float64
	max     float64
	idx     []int32  // non-empty bucket indexes, ascending
	bucketN []uint64 // counts parallel to idx
	// layout identifies the bucket scheme (sub-bucket bits, min/max
	// exponent) the indexes refer to. Zero-valued on hand-constructed
	// or legacy values, which layoutOf treats as the current layout.
	layout histLayout
}

// histLayout identifies one log-linear bucket scheme.
type histLayout struct {
	SubBits, MinExp, MaxExp int8
}

// curLayout is the layout this build's Histogram records under.
var curLayout = histLayout{SubBits: histSubBits, MinExp: histMinExp, MaxExp: histMaxExp}

// layoutOf resolves a frozen histogram's layout, treating the zero
// value (empty or hand-built) as current.
func (f *FrozenHistogram) layoutOf() histLayout {
	if f == nil || f.layout == (histLayout{}) {
		return curLayout
	}
	return f.layout
}

// Freeze copies the histogram's current state. Under concurrent writes
// the copy is a consistent-enough mixture (each bucket read is atomic);
// freeze quiescent histograms when exactness matters.
func (h *Histogram) Freeze() *FrozenHistogram {
	f := &FrozenHistogram{layout: curLayout}
	if h == nil {
		return f
	}
	f.count = h.count.Load()
	f.sum = math.Float64frombits(h.sum.Load())
	f.max = math.Float64frombits(h.max.Load())
	for i := 0; i < histBuckets; i++ {
		if n := h.buckets[i].Load(); n != 0 {
			f.idx = append(f.idx, int32(i))
			f.bucketN = append(f.bucketN, n)
		}
	}
	return f
}

// Count returns the number of observations frozen in.
func (f *FrozenHistogram) Count() uint64 {
	if f == nil {
		return 0
	}
	return f.count
}

// Sum returns the frozen total of all observations.
func (f *FrozenHistogram) Sum() float64 {
	if f == nil {
		return 0
	}
	return f.sum
}

// Max returns the largest frozen observation (0 when empty).
func (f *FrozenHistogram) Max() float64 {
	if f == nil {
		return 0
	}
	return f.max
}

// Mean returns the frozen mean (0 when empty).
func (f *FrozenHistogram) Mean() float64 {
	if f == nil || f.count == 0 {
		return 0
	}
	return f.sum / float64(f.count)
}

// Quantile estimates the q-quantile (0 <= q <= 1) from the frozen
// bucket counts: the representative value of the bucket holding the
// ceil(q*n) ranked observation. An empty (or nil) histogram has no
// quantiles: the result is NaN, a sentinel no bucket midpoint can ever
// produce, so "no data" cannot be mistaken for "the quantile is ~1e-9"
// (bucket 0's midpoint). A NaN q propagates as NaN. JSON-facing
// summaries (Snapshot, the serving layer) map the sentinel back to 0.
func (f *FrozenHistogram) Quantile(q float64) float64 {
	if f == nil || f.count == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(f.count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, n := range f.bucketN {
		cum += n
		if cum >= rank {
			return bucketValue(int(f.idx[i]))
		}
	}
	// A concurrent writer may have bumped the count ahead of its
	// bucket; fall back to the highest non-empty bucket.
	if len(f.idx) > 0 {
		return bucketValue(int(f.idx[len(f.idx)-1]))
	}
	return 0
}

// ErrLayoutMismatch marks an attempt to merge frozen histograms whose
// bucket layouts differ: their bucket indexes refer to different value
// ranges, so adding counts index-by-index would silently corrupt the
// distribution.
var ErrLayoutMismatch = errors.New("obs: histogram bucket layouts differ")

// Merge returns a new frozen histogram combining f and o (either may be
// nil = empty). It errors with ErrLayoutMismatch when the two were
// frozen under different bucket layouts — counts are never combined
// across layouts.
func (f *FrozenHistogram) Merge(o *FrozenHistogram) (*FrozenHistogram, error) {
	lf, lo := f.layoutOf(), o.layoutOf()
	if lf != lo {
		return nil, fmt.Errorf("%w: %+v vs %+v", ErrLayoutMismatch, lf, lo)
	}
	out := &FrozenHistogram{
		count:  f.Count() + o.Count(),
		sum:    f.Sum() + o.Sum(),
		max:    math.Max(f.Max(), o.Max()),
		layout: lf,
	}
	var fi, oi int
	fIdx, oIdx := frozenBuckets(f), frozenBuckets(o)
	for fi < len(fIdx) || oi < len(oIdx) {
		switch {
		case oi >= len(oIdx) || (fi < len(fIdx) && fIdx[fi] < oIdx[oi]):
			out.idx = append(out.idx, fIdx[fi])
			out.bucketN = append(out.bucketN, f.bucketN[fi])
			fi++
		case fi >= len(fIdx) || oIdx[oi] < fIdx[fi]:
			out.idx = append(out.idx, oIdx[oi])
			out.bucketN = append(out.bucketN, o.bucketN[oi])
			oi++
		default: // same bucket in both
			out.idx = append(out.idx, fIdx[fi])
			out.bucketN = append(out.bucketN, f.bucketN[fi]+o.bucketN[oi])
			fi++
			oi++
		}
	}
	return out, nil
}

// frozenBuckets returns a frozen histogram's bucket indexes (nil-safe).
func frozenBuckets(f *FrozenHistogram) []int32 {
	if f == nil {
		return nil
	}
	return f.idx
}

// Equal reports whether two frozen histograms carry identical bucket
// counts, observation counts and maxima — the exactness check behind
// the sink's final-snapshot-vs-batch verification. The running sum is
// compared to within float rounding (1e-9 relative), since its value
// depends on accumulation order.
func (f *FrozenHistogram) Equal(o *FrozenHistogram) bool {
	if f.Count() != o.Count() || f.Max() != o.Max() {
		return false
	}
	if d := math.Abs(f.Sum() - o.Sum()); d > 1e-9*math.Max(1, math.Abs(f.Sum())) {
		return false
	}
	if f == nil || o == nil {
		return f.Count() == o.Count()
	}
	if len(f.idx) != len(o.idx) {
		return false
	}
	for i := range f.idx {
		if f.idx[i] != o.idx[i] || f.bucketN[i] != o.bucketN[i] {
			return false
		}
	}
	return true
}

// HistogramSnapshot is a point-in-time summary of one histogram.
type HistogramSnapshot struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Snapshot summarises the histogram from one Freeze, so its count and
// quantiles describe the same observations. The NaN empty-quantile
// sentinel is mapped back to 0 here: snapshots are JSON-marshalled
// (JSON has no NaN) and an all-zero summary with Count 0 is
// unambiguous.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	f := h.Freeze()
	return HistogramSnapshot{
		Count: f.Count(),
		Sum:   f.Sum(),
		Max:   f.Max(),
		P50:   zeroNaN(f.Quantile(0.50)),
		P90:   zeroNaN(f.Quantile(0.90)),
		P99:   zeroNaN(f.Quantile(0.99)),
	}
}

// zeroNaN maps the NaN sentinel to 0 for JSON-facing summaries.
func zeroNaN(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// addFloat atomically adds delta to a float64 stored as uint64 bits.
func addFloat(a *atomic.Uint64, delta float64) {
	for {
		old := a.Load()
		if a.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// maxFloat atomically raises a float64 stored as uint64 bits to v if v
// is larger. Values are non-negative, so the bit patterns order like
// the floats themselves.
func maxFloat(a *atomic.Uint64, v float64) {
	bits := math.Float64bits(v)
	for {
		old := a.Load()
		if bits <= old {
			return
		}
		if a.CompareAndSwap(old, bits) {
			return
		}
	}
}
