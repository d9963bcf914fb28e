// Package check is the pipeline's correctness harness: a per-stage
// invariant validator that verifies, at every stage boundary, the
// structural guarantees the paper's methodology rests on — cleaned
// trips are monotone and finite (§IV-B), segments respect the Table 2
// bounds, OD transitions reference registered gates (Table 3),
// map-matched routes are edge-connected in the road graph, grid cell
// ids round-trip through their external string form, and serving-layer
// snapshots advance monotonically.
//
// The validator has two modes:
//
//   - counting (default): every violation increments the obs counter
//     check_violations_total{stage="...",rule="..."} and the run
//     continues — production posture, zero behaviour change;
//   - strict: violations are additionally returned as a typed
//     *CheckError, which the pipeline surfaces through the fleet
//     runner's fault path (the offending car fails with a CarError
//     attributing the stage), so a single corrupt car cannot poison a
//     fleet aggregate silently.
//
// Checks never mutate what they inspect and never allocate on the
// no-violation fast path beyond the rule closures themselves, so
// enabling the checker leaves pipeline output byte-identical (see the
// core determinism test, which runs strict).
package check

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/trace"
)

// Config enables the checker. The zero value disables all checking.
type Config struct {
	// Enabled turns invariant checking on at every stage boundary.
	Enabled bool
	// Strict additionally turns violations into *CheckError returns,
	// failing the offending car through the runner's fault path.
	// Implies Enabled.
	Strict bool
}

// On reports whether any checking is requested.
func (c Config) On() bool { return c.Enabled || c.Strict }

// Violation is one invariant breach, attributed to a pipeline stage
// and a named rule.
type Violation struct {
	Stage  string // pipeline stage ("clean", "segment", ...)
	Rule   string // rule slug ("monotone_time", "gate_registered", ...)
	Car    int    // offending car (0 when not car-scoped)
	Detail string // human-readable specifics
}

// String renders the violation compactly.
func (v Violation) String() string {
	return fmt.Sprintf("%s/%s car %d: %s", v.Stage, v.Rule, v.Car, v.Detail)
}

// CheckError is the typed strict-mode failure: every violation one
// stage boundary produced for one car. It is permanent (never marked
// runner.Transient): re-running the same car over the same data breaks
// the same invariant.
type CheckError struct {
	Violations []Violation
}

// Error summarises the violations.
func (e *CheckError) Error() string {
	if len(e.Violations) == 0 {
		return "check: invariant violation"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "check: %d invariant violation(s): %s", len(e.Violations), e.Violations[0].String())
	if len(e.Violations) > 1 {
		fmt.Fprintf(&b, " (+%d more)", len(e.Violations)-1)
	}
	return b.String()
}

// Validator checks stage outputs against the pipeline's invariants.
// Construct with New; a nil *Validator is valid and all its methods are
// no-ops returning nil, so call sites need no "is checking on?" guards.
type Validator struct {
	cfg   Config
	gates map[string]bool
	graph *roadnet.Graph
	reg   *obs.Registry

	// counters caches the per-(stage,rule) violation counters; resolved
	// lazily under mu via the registry (which is itself locked), so the
	// fast no-violation path touches none of this.
	counters map[string]*obs.Counter
}

// New builds a validator for one pipeline. gates is the registered
// gate-name set OD transitions must reference; graph is the road graph
// matched routes must be connected in (either may be nil when the
// corresponding stages are not exercised). Returns nil when cfg
// disables checking, which every method tolerates.
func New(cfg Config, gates []string, graph *roadnet.Graph, reg *obs.Registry) *Validator {
	if !cfg.On() {
		return nil
	}
	gs := make(map[string]bool, len(gates))
	for _, g := range gates {
		gs[g] = true
	}
	return &Validator{cfg: cfg, gates: gs, graph: graph, reg: reg, counters: map[string]*obs.Counter{}}
}

// Strict reports whether violations should fail the car.
func (v *Validator) Strict() bool { return v != nil && v.cfg.Strict }

// record counts one violation and, in strict mode, accumulates it onto
// the returned list.
func (v *Validator) record(acc []Violation, viol Violation) []Violation {
	name := "check_violations_total{stage=\"" + viol.Stage + "\",rule=\"" + viol.Rule + "\"}"
	c := v.counters[name]
	if c == nil {
		c = v.reg.Counter(name)
		v.counters[name] = c
	}
	c.Inc()
	return append(acc, viol)
}

// finish converts the accumulated violations into the method's return:
// nil when clean or when not strict.
func (v *Validator) finish(acc []Violation) error {
	if len(acc) == 0 || !v.cfg.Strict {
		return nil
	}
	return &CheckError{Violations: acc}
}

// finite reports a usable float (not NaN, not ±Inf).
func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// RawTrips validates the pipeline's input boundary (the simulate
// stage, or CSV-loaded trips standing in for it): every raw trip is
// internally consistent (non-empty, points carry the owning trip id).
func (v *Validator) RawTrips(car int, trips []*trace.Trip) error {
	if v == nil {
		return nil
	}
	var acc []Violation
	for _, t := range trips {
		if err := t.Validate(); err != nil {
			acc = v.record(acc, Violation{
				Stage: "simulate", Rule: "trip_integrity", Car: car, Detail: err.Error(),
			})
		}
	}
	return v.finish(acc)
}

// CleanedTrips validates the cleaning boundary (§IV-B): every surviving
// trip has strictly increasing point ids, non-decreasing timestamps and
// cumulative measurements, and no non-finite coordinate or measurement —
// the monotonicity contract clean.RepairColumns's realignment promises.
func (v *Validator) CleanedTrips(car int, trips []*trace.Trip) error {
	if v == nil {
		return nil
	}
	var acc []Violation
	for _, t := range trips {
		acc = v.checkCleanTrip(acc, car, t)
	}
	return v.finish(acc)
}

func (v *Validator) checkCleanTrip(acc []Violation, car int, t *trace.Trip) []Violation {
	bad := func(rule, format string, args ...any) {
		acc = v.record(acc, Violation{
			Stage: "clean", Rule: rule, Car: car,
			Detail: fmt.Sprintf("trip %d: ", t.ID) + fmt.Sprintf(format, args...),
		})
	}
	for i := range t.Points {
		p := &t.Points[i]
		if !finite(p.Pos.X) || !finite(p.Pos.Y) || !finite(p.SpeedKmh) || !finite(p.FuelMl) || !finite(p.DistM) {
			bad("finite", "point %d carries a non-finite field", i)
			return acc // one report per trip; the rest is noise
		}
		if i == 0 {
			continue
		}
		prev := &t.Points[i-1]
		switch {
		case p.PointID <= prev.PointID:
			bad("monotone_id", "point ids %d,%d not increasing at %d", prev.PointID, p.PointID, i)
			return acc
		case p.Time.Before(prev.Time):
			bad("monotone_time", "timestamps reversed at point %d", i)
			return acc
		case p.FuelMl < prev.FuelMl || p.DistM < prev.DistM:
			bad("monotone_cumulative", "cumulative fuel/dist decreased at point %d", i)
			return acc
		}
	}
	return acc
}

// SegmentRules is the subset of segmentation thresholds the checker
// enforces at the segment boundary (Table 2 post-filters).
type SegmentRules struct {
	MinPoints  int
	MaxLengthM float64
}

// Segments validates the segmentation boundary: every kept segment has
// at least MinPoints route points, is no longer than MaxLengthM (the
// paper's <5-point and 30 km bounds), and preserves the cleaned
// ordering contract.
func (v *Validator) Segments(car int, segs []*trace.Trip, rules SegmentRules) error {
	if v == nil {
		return nil
	}
	var acc []Violation
	for _, s := range segs {
		if rules.MinPoints > 0 && len(s.Points) < rules.MinPoints {
			acc = v.record(acc, Violation{
				Stage: "segment", Rule: "min_points", Car: car,
				Detail: fmt.Sprintf("trip %d: kept segment has %d < %d points", s.ID, len(s.Points), rules.MinPoints),
			})
		}
		if rules.MaxLengthM > 0 {
			if l := trace.PathLength(s.Points); !(l <= rules.MaxLengthM) { // catches NaN too
				acc = v.record(acc, Violation{
					Stage: "segment", Rule: "max_length", Car: car,
					Detail: fmt.Sprintf("trip %d: kept segment is %.0f m > %.0f m", s.ID, l, rules.MaxLengthM),
				})
			}
		}
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].Time.Before(s.Points[i-1].Time) {
				acc = v.record(acc, Violation{
					Stage: "segment", Rule: "monotone_time", Car: car,
					Detail: fmt.Sprintf("trip %d: timestamps reversed at point %d", s.ID, i),
				})
				break
			}
		}
	}
	return v.finish(acc)
}

// ODTransition is the view of one accepted transition the checker
// needs, decoupled from the odselect types to avoid an import cycle.
type ODTransition struct {
	From, To   string
	NumPoints  int // points of the underlying segment
	EntryIndex int // origin crossing entry index
	ExitIndex  int // destination crossing exit index
}

// Transitions validates the OD-selection boundary: accepted transitions
// reference registered gates, origin and destination differ, and the
// crossing indexes address real points of the segment.
func (v *Validator) Transitions(car int, trs []ODTransition) error {
	if v == nil {
		return nil
	}
	var acc []Violation
	for _, tr := range trs {
		if !v.gates[tr.From] || !v.gates[tr.To] {
			acc = v.record(acc, Violation{
				Stage: "odselect", Rule: "gate_registered", Car: car,
				Detail: fmt.Sprintf("transition %s-%s references an unregistered gate", tr.From, tr.To),
			})
		}
		if tr.From == tr.To {
			acc = v.record(acc, Violation{
				Stage: "odselect", Rule: "distinct_gates", Car: car,
				Detail: fmt.Sprintf("transition %s-%s starts and ends at the same gate", tr.From, tr.To),
			})
		}
		if tr.EntryIndex < 0 || tr.ExitIndex < 0 || tr.EntryIndex >= tr.NumPoints || tr.ExitIndex >= tr.NumPoints {
			acc = v.record(acc, Violation{
				Stage: "odselect", Rule: "crossing_bounds", Car: car,
				Detail: fmt.Sprintf("crossing indexes [%d,%d] outside segment of %d points",
					tr.EntryIndex, tr.ExitIndex, tr.NumPoints),
			})
		}
	}
	return v.finish(acc)
}

// MatchedRoute validates the map-matching boundary for one transition:
// the matched route's consecutive edges share a graph node (the
// edge-connected invariant; shortest-path gap fills included), every
// edge id is in range, and the matched fraction is a valid share.
func (v *Validator) MatchedRoute(car int, route []roadnet.EdgeID, matchedFraction float64) error {
	if v == nil {
		return nil
	}
	var acc []Violation
	if !(matchedFraction >= 0 && matchedFraction <= 1) {
		acc = v.record(acc, Violation{
			Stage: "mapmatch", Rule: "matched_fraction", Car: car,
			Detail: fmt.Sprintf("matched fraction %v outside [0,1]", matchedFraction),
		})
	}
	if v.graph != nil {
		for i, id := range route {
			if int(id) < 0 || int(id) >= len(v.graph.Edges) {
				acc = v.record(acc, Violation{
					Stage: "mapmatch", Rule: "edge_in_range", Car: car,
					Detail: fmt.Sprintf("route edge %d out of graph range", id),
				})
				return v.finish(acc)
			}
			if i == 0 {
				continue
			}
			a, b := &v.graph.Edges[route[i-1]], &v.graph.Edges[id]
			if a.From != b.From && a.From != b.To && a.To != b.From && a.To != b.To {
				acc = v.record(acc, Violation{
					Stage: "mapmatch", Rule: "edge_connected", Car: car,
					Detail: fmt.Sprintf("route edges %d→%d share no node", route[i-1], id),
				})
				break
			}
		}
	}
	return v.finish(acc)
}

// RouteAttrs validates the attribute-fetching boundary: per-route
// feature counts are non-negative.
func (v *Validator) RouteAttrs(car int, lights, busStops, pedestrian, junctions int) error {
	if v == nil {
		return nil
	}
	var acc []Violation
	if lights < 0 || busStops < 0 || pedestrian < 0 || junctions < 0 {
		acc = v.record(acc, Violation{
			Stage: "mapattr", Rule: "non_negative", Car: car,
			Detail: fmt.Sprintf("negative attribute count (%d,%d,%d,%d)", lights, busStops, pedestrian, junctions),
		})
	}
	return v.finish(acc)
}

// GridCells validates the grid boundary: every non-empty cell id
// round-trips through its external string form (ParseCellID∘String =
// identity) and holds at least one observation.
func (v *Validator) GridCells(agg *grid.Aggregator) error {
	if v == nil || agg == nil {
		return nil
	}
	var acc []Violation
	for _, c := range agg.Cells() {
		id, err := grid.ParseCellID(c.ID.String())
		if err != nil || id != c.ID {
			acc = v.record(acc, Violation{
				Stage: "grid", Rule: "cell_roundtrip",
				Detail: fmt.Sprintf("cell %v renders as %q which parses to %v (err=%v)", c.ID, c.ID.String(), id, err),
			})
		}
		if c.Speed.N() <= 0 {
			acc = v.record(acc, Violation{
				Stage: "grid", Rule: "non_empty",
				Detail: fmt.Sprintf("cell %v kept with no observations", c.ID),
			})
		}
	}
	return v.finish(acc)
}

// SnapshotMeta is the serving-layer view the checker validates: the
// epoch/count header of one published sink snapshot.
type SnapshotMeta struct {
	Epoch        uint64
	CarsIngested int
	CarsFailed   int
	Points       int
}

// SnapshotTransition validates one sink publish against its
// predecessor: the epoch advances strictly, and cars/points counters
// are non-negative and never move backwards (the aggregation only
// grows).
func (v *Validator) SnapshotTransition(prev, next SnapshotMeta) error {
	if v == nil {
		return nil
	}
	var acc []Violation
	bad := func(rule, format string, args ...any) {
		acc = v.record(acc, Violation{Stage: "sink", Rule: rule, Detail: fmt.Sprintf(format, args...)})
	}
	if next.Epoch <= prev.Epoch {
		bad("epoch_monotone", "epoch %d did not advance past %d", next.Epoch, prev.Epoch)
	}
	if next.CarsIngested < 0 || next.CarsFailed < 0 || next.Points < 0 {
		bad("non_negative", "negative counts in epoch %d (%d cars, %d failed, %d points)",
			next.Epoch, next.CarsIngested, next.CarsFailed, next.Points)
	}
	if next.CarsIngested < prev.CarsIngested || next.CarsFailed < prev.CarsFailed || next.Points < prev.Points {
		bad("monotone_counts", "epoch %d counts shrank from epoch %d", next.Epoch, prev.Epoch)
	}
	return v.finish(acc)
}
