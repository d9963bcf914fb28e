// Package clean implements the paper's data-cleaning stage (§IV-B):
// repairing route-point ordering corrupted in transit and filtering the
// most obvious measurement errors.
//
// A trip's points carry two candidate orderings — device sequence id
// and timestamp — and transmission latency or device glitches can make
// them disagree. The paper's rule: sort the points both ways, compute
// the total trip distance under each ordering, and judge the shorter
// one correct (a wrong ordering makes the trajectory zigzag, which can
// only add length). All point properties are then realigned to the
// chosen sequence so that ids, timestamps and cumulative measurements
// increase monotonically.
//
// The stage has one kernel, RepairColumns, which cleans an
// arena-backed trace.ColTrip view. Its row-oriented reference
// implementation, Repair, lives in the package's tests
// (oracle_test.go): every kernel test runs both and requires
// bit-identical results.
package clean

import (
	"math"

	"repro/internal/geo"
)

// Order identifies which candidate ordering the cleaner selected.
type Order int

// Ordering choices.
const (
	OrderByID Order = iota
	OrderByTime
)

// String returns the order name.
func (o Order) String() string {
	if o == OrderByTime {
		return "timestamp"
	}
	return "id"
}

// Config tunes the validity filters.
type Config struct {
	// MaxSpeedKmh drops points implying an impossible speed from their
	// predecessor (GPS spikes). Default 150.
	MaxSpeedKmh float64
	// Area drops points outside a plausible region when non-empty.
	Area geo.Rect
}

func (c Config) withDefaults() Config {
	// !(x > 0) rather than x <= 0: a NaN threshold must select the
	// default too, not silently disable the spike filter (every
	// "v > NaN" comparison is false). +Inf remains an explicit opt-out.
	if !(c.MaxSpeedKmh > 0) {
		c.MaxSpeedKmh = 150
	}
	return c
}

// DropStats breaks the dropped-point count down by removal reason —
// the cleaning stage's contribution to the pipeline's drop-reason
// lineage. A point failing several filters counts once, under the
// first in this precedence: finiteness, area, duplicate id, spike.
type DropStats struct {
	NonFinite   int `json:"non_finite"`   // NaN/Inf field or zero timestamp
	OutOfArea   int `json:"out_of_area"`  // outside the configured area
	DuplicateID int `json:"duplicate_id"` // repeated device sequence id
	Spike       int `json:"spike"`        // implied speed impossible
}

// Total sums the per-reason counts.
func (d DropStats) Total() int { return d.NonFinite + d.OutOfArea + d.DuplicateID + d.Spike }

// Merge adds o into d.
func (d *DropStats) Merge(o DropStats) {
	d.NonFinite += o.NonFinite
	d.OutOfArea += o.OutOfArea
	d.DuplicateID += o.DuplicateID
	d.Spike += o.Spike
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
