package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Lineage is the pipeline's data-provenance ledger: for every lossy
// stage it tracks how many records went in, how many came out, and —
// per typed DropReason — where the difference went, with per-car drop
// totals on the side. The paper's credibility argument is exactly this
// accounting ("from raw data to reliable information"), so the ledger
// is conservation-checked: for every stage, in = out + Σ dropped. A
// violated ledger means a stage is discarding data it never accounted
// for, and Check/Snapshot surface that as an error rather than a
// slightly-wrong table.
//
// Hot-path cost: AddIn/AddOut/DropCounter.Add are single atomic adds on
// pre-resolved handles; RecordCar additionally takes one short mutex to
// fold the car's drop total into the per-car map. A nil *Lineage (and
// every handle resolved from one) degrades to no-ops, mirroring the
// Registry's nil contract.
//
// When constructed over a non-nil Registry, every stage mirrors its
// totals into labelled counters — lineage_in_total{stage="clean"},
// lineage_out_total{stage="clean"},
// lineage_dropped_total{stage="clean",reason="spike"} — which the
// Prometheus exporter renders as proper labelled series.
type Lineage struct {
	reg *Registry

	mu      sync.Mutex
	order   []*StageLineage
	byName  map[string]*StageLineage
	carDrop map[int]*carLineage
}

// carLineage accumulates one car's drop totals across stages.
type carLineage struct {
	total   uint64
	byStage map[string]uint64
}

// DropReason is a typed cause for discarding a unit of data at a
// pipeline stage. The values double as metric label values, so they
// are short snake_case slugs.
type DropReason string

// The drop-reason taxonomy, by stage (see DESIGN.md for the table).
const (
	// Cleaning (units: route points).
	DropNonFinite   DropReason = "non_finite"   // NaN/Inf field, zero timestamp, or a value not representable
	DropOutOfArea   DropReason = "out_of_area"  // position outside the plausible region
	DropDuplicateID DropReason = "duplicate_id" // repeated device sequence id
	DropSpike       DropReason = "spike"        // implied speed impossible (GPS spike)

	// Segmentation (units: candidate segments).
	DropTooFewPoints DropReason = "too_few_points"
	DropTooLong      DropReason = "too_long"

	// OD selection (units: trip segments).
	DropNoGate        DropReason = "no_gate"        // touched no gate road
	DropSingleGate    DropReason = "single_gate"    // touched gates but formed no transition
	DropOutsideCentre DropReason = "outside_centre" // transition avoided the central area
	DropPostFilter    DropReason = "post_filter"    // failed the crossing-angle/post filters

	// Map-matching (units: accepted transitions).
	DropDegenerateSpan DropReason = "degenerate_span" // O-D span shorter than two points
	DropUnroutable     DropReason = "unroutable"      // the matcher found no route

	// Streaming ingest (units: route points).
	DropLate DropReason = "late" // event time below the low watermark, or its trip already closed
	// DropIdleResumed marks a rejected point NEWER than everything its
	// own car ever sent: the car was silent long enough for the
	// watermark to pass it (its open trips were idle-flushed) and is now
	// resuming. Genuine out-of-order arrivals stay "late"; resurrection
	// after an idle close is a distinct operational signal.
	DropIdleResumed DropReason = "idle_resumed"

	// Fleet level (units: cars).
	DropCancelled DropReason = "cancelled" // abandoned by abort or cancellation
)

// NewLineage builds a ledger. reg may be nil: the ledger still counts
// (and snapshots) everything, it just mirrors nothing into metrics.
func NewLineage(reg *Registry) *Lineage {
	return &Lineage{
		reg:     reg,
		byName:  map[string]*StageLineage{},
		carDrop: map[int]*carLineage{},
	}
}

// StageLineage is the per-stage ledger row: in/out totals plus one
// DropCounter per registered reason. Resolve once, use lock-free.
type StageLineage struct {
	lin  *Lineage
	name string
	unit string

	in, out atomic.Uint64
	inC     *Counter // registry mirrors (nil without a registry)
	outC    *Counter

	mu      sync.Mutex
	reasons []*DropCounter
	byCause map[DropReason]*DropCounter
}

// Stage returns (registering on first use) the ledger row for the
// named stage; unit names what is being counted ("points", "segments",
// "transitions", "cars"). Nil-safe.
func (l *Lineage) Stage(name, unit string) *StageLineage {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if st := l.byName[name]; st != nil {
		return st
	}
	st := &StageLineage{
		lin:     l,
		name:    name,
		unit:    unit,
		inC:     l.reg.Counter(fmt.Sprintf("lineage_in_total{stage=%q}", name)),
		outC:    l.reg.Counter(fmt.Sprintf("lineage_out_total{stage=%q}", name)),
		byCause: map[DropReason]*DropCounter{},
	}
	l.byName[name] = st
	l.order = append(l.order, st)
	return st
}

// DropCounter counts drops for one (stage, reason) pair.
type DropCounter struct {
	st     *StageLineage
	reason DropReason
	n      atomic.Uint64
	mirror *Counter
}

// Reason returns (registering on first use) the drop counter for r.
// Nil-safe; idempotent.
func (s *StageLineage) Reason(r DropReason) *DropCounter {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if d := s.byCause[r]; d != nil {
		return d
	}
	d := &DropCounter{
		st:     s,
		reason: r,
		mirror: s.lin.reg.Counter(fmt.Sprintf("lineage_dropped_total{stage=%q,reason=%q}", s.name, r)),
	}
	s.byCause[r] = d
	s.reasons = append(s.reasons, d)
	return d
}

// Add counts n drops for this reason.
func (d *DropCounter) Add(n uint64) {
	if d == nil || n == 0 {
		return
	}
	d.n.Add(n)
	d.mirror.Add(n)
}

// Value returns the reason's drop total.
func (d *DropCounter) Value() uint64 {
	if d == nil {
		return 0
	}
	return d.n.Load()
}

// Add records in units entering and out units leaving the stage
// without per-car attribution (used by fleet-level accounting).
func (s *StageLineage) Add(in, out uint64) {
	if s == nil {
		return
	}
	s.in.Add(in)
	s.out.Add(out)
	s.inC.Add(in)
	s.outC.Add(out)
}

// RecordCar records one car's passage through the stage: in units
// entered, out survived, and the difference is attributed to the car
// in the per-car drop table. Call exactly once per car per stage (on
// the car's final successful attempt).
func (s *StageLineage) RecordCar(car int, in, out uint64) {
	if s == nil {
		return
	}
	s.Add(in, out)
	if in <= out {
		return
	}
	dropped := in - out
	l := s.lin
	l.mu.Lock()
	cl := l.carDrop[car]
	if cl == nil {
		cl = &carLineage{byStage: map[string]uint64{}}
		l.carDrop[car] = cl
	}
	cl.total += dropped
	cl.byStage[s.name] += dropped
	l.mu.Unlock()
}

// --- Snapshot & conservation ------------------------------------------------

// ReasonCount is one (reason, count) pair of a stage snapshot.
type ReasonCount struct {
	Reason string `json:"reason"`
	N      uint64 `json:"n"`
}

// StageSnapshot is one row of the lineage table.
type StageSnapshot struct {
	Stage   string        `json:"stage"`
	Unit    string        `json:"unit"`
	In      uint64        `json:"in"`
	Out     uint64        `json:"out"`
	Dropped uint64        `json:"dropped"` // in - out
	Reasons []ReasonCount `json:"reasons,omitempty"`
	// Conserved reports the stage's conservation invariant:
	// in == out + Σ reasons.
	Conserved bool `json:"conserved"`
}

// CarDropSnapshot is one car's drop account.
type CarDropSnapshot struct {
	Car     int               `json:"car"`
	Dropped uint64            `json:"dropped"`
	ByStage map[string]uint64 `json:"by_stage,omitempty"`
}

// LineageSnapshot is the queryable per-run lineage table.
type LineageSnapshot struct {
	Stages []StageSnapshot `json:"stages"`
	// TopDroppedCars lists the cars that lost the most data, most
	// lossy first (capped by the topCars argument of Snapshot).
	TopDroppedCars []CarDropSnapshot `json:"top_dropped_cars,omitempty"`
	// Conserved is the conjunction of the per-stage flags.
	Conserved bool `json:"conserved"`
}

// Snapshot captures the ledger: stage rows in registration order and
// the topCars most lossy cars (0 omits the car table). Nil-safe (an
// empty table).
func (l *Lineage) Snapshot(topCars int) LineageSnapshot {
	snap := LineageSnapshot{Stages: []StageSnapshot{}, Conserved: true}
	if l == nil {
		return snap
	}
	l.mu.Lock()
	stages := append([]*StageLineage(nil), l.order...)
	cars := make([]CarDropSnapshot, 0, len(l.carDrop))
	if topCars > 0 {
		for car, cl := range l.carDrop {
			by := make(map[string]uint64, len(cl.byStage))
			for st, n := range cl.byStage {
				by[st] = n
			}
			cars = append(cars, CarDropSnapshot{Car: car, Dropped: cl.total, ByStage: by})
		}
	}
	l.mu.Unlock()

	for _, st := range stages {
		row := StageSnapshot{Stage: st.name, Unit: st.unit, In: st.in.Load(), Out: st.out.Load()}
		if row.In >= row.Out {
			row.Dropped = row.In - row.Out
		}
		var byReason uint64
		st.mu.Lock()
		for _, d := range st.reasons {
			n := d.n.Load()
			byReason += n
			if n > 0 {
				row.Reasons = append(row.Reasons, ReasonCount{Reason: string(d.reason), N: n})
			}
		}
		st.mu.Unlock()
		row.Conserved = row.In == row.Out+byReason
		snap.Conserved = snap.Conserved && row.Conserved
		snap.Stages = append(snap.Stages, row)
	}

	sort.Slice(cars, func(i, j int) bool {
		if cars[i].Dropped != cars[j].Dropped {
			return cars[i].Dropped > cars[j].Dropped
		}
		return cars[i].Car < cars[j].Car
	})
	if topCars > 0 && len(cars) > topCars {
		cars = cars[:topCars]
	}
	snap.TopDroppedCars = cars
	return snap
}

// Check verifies the conservation invariant over the current ledger
// state: every stage must satisfy in == out + Σ dropped-by-reason.
// Nil-safe (a nil ledger trivially conserves).
func (l *Lineage) Check() error {
	return l.Snapshot(0).Check()
}

// Check verifies a snapshot's conservation invariant.
func (s LineageSnapshot) Check() error {
	for _, st := range s.Stages {
		var byReason uint64
		for _, r := range st.Reasons {
			byReason += r.N
		}
		if st.In != st.Out+byReason {
			return fmt.Errorf("obs: lineage conservation violated at stage %s: in=%d out=%d dropped-by-reason=%d (unaccounted %d)",
				st.Stage, st.In, st.Out, byReason, int64(st.In)-int64(st.Out+byReason))
		}
	}
	return nil
}
