// Package odselect implements the paper's Origin-Destination segment
// selection (§IV-D, Table 3): trip segments are matched against "thick"
// buffered versions of the named gate roads (T, S, L at the key
// enter/exit points of downtown Oulu), filtered by crossing angle,
// required to pass through the central area, classified into
// transitions (T-L, L-T, T-S, S-T, ...), and post-filtered so that the
// segment's start and end route points lie close to the origin and
// destination roads.
package odselect

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/geo"
	"repro/internal/trace"
)

// Gate is one named origin/destination road with its thick geometry.
type Gate struct {
	Name  string
	Thick *geo.ThickLine
}

// NewGate buffers the road centre line by width metres.
func NewGate(name string, center geo.Polyline, width float64) Gate {
	return Gate{Name: name, Thick: geo.NewThickLine(center, width)}
}

// Config tunes the selector.
type Config struct {
	// MaxCrossingAngleDeg accepts a gate crossing only when the
	// trajectory runs within this angle of the gate road (driving along
	// the entry road, not crossing it sideways). Default 45.
	MaxCrossingAngleDeg float64
	// CentralArea is the rectangle a transition must pass through.
	CentralArea geo.Rect
	// EndpointProximityM is the post-filter: the segment's first and
	// last route points must be within this distance of the origin and
	// destination roads respectively. Default 400.
	EndpointProximityM float64
	// StudiedPairs restricts the final stage to the analysed
	// directions; nil means the paper's {T-L, L-T, T-S, S-T}.
	StudiedPairs []string
}

func (c Config) withDefaults() Config {
	if c.MaxCrossingAngleDeg <= 0 {
		c.MaxCrossingAngleDeg = 45
	}
	if c.EndpointProximityM <= 0 {
		c.EndpointProximityM = 400
	}
	if c.StudiedPairs == nil {
		c.StudiedPairs = []string{"T-L", "L-T", "T-S", "S-T"}
	}
	return c
}

// Stage records how far a segment advanced through the Table 3 funnel.
type Stage int

// Funnel stages, in order.
const (
	// StageNoGate: the segment never crosses a gate acceptably.
	StageNoGate Stage = iota
	// StageGateTouched: crosses at least one gate within the angle
	// range (Table 3 column "filtered and cleaned").
	StageGateTouched
	// StageTransition: crosses two distinct gates in time order
	// (column "transitions total").
	StageTransition
	// StageWithinCentre: the transition passes through the central
	// area (column "transitions within city centre").
	StageWithinCentre
	// StageAccepted: survives the post-filter: studied direction with
	// endpoints close to the OD roads (column "post-filtered").
	StageAccepted
)

// String names the stage.
func (s Stage) String() string {
	switch s {
	case StageNoGate:
		return "no-gate"
	case StageGateTouched:
		return "gate-touched"
	case StageTransition:
		return "transition"
	case StageWithinCentre:
		return "within-centre"
	case StageAccepted:
		return "accepted"
	default:
		return fmt.Sprintf("Stage(%d)", int(s))
	}
}

// Transition is an accepted (or partially accepted) OD run.
type Transition struct {
	Seg       *trace.Trip
	From, To  string // gate names
	Direction string // "From-To"
	// FromCross and ToCross are the accepted gate crossings.
	FromCross geo.Crossing
	ToCross   geo.Crossing
}

// Key identifies the transition by trip id + start time, the paper's
// unique transition identifier.
func (t *Transition) Key() trace.Key { return t.Seg.Key() }

// Span returns the segment's points from the origin crossing's entry
// to the destination crossing's exit (in index order), the trajectory
// the analysis measures.
func (t *Transition) Span() []trace.RoutePoint {
	lo, hi := t.FromCross.EntryIndex, t.ToCross.ExitIndex
	if lo > hi {
		lo, hi = hi, lo
	}
	return t.Seg.Points[lo : hi+1]
}

// Classification is the outcome for one trip segment.
type Classification struct {
	Stage      Stage
	Transition *Transition // set from StageTransition upward
}

// Selector evaluates trip segments against a set of gates.
type Selector struct {
	gates []Gate
	cfg   Config
}

// Typed constructor errors, all permanent: a selector that cannot be
// built from its gates will never build from the same gates.
var (
	// ErrBadGate marks a gate missing its name or thick geometry.
	ErrBadGate = errors.New("odselect: gate missing name or geometry")
	// ErrDuplicateGate marks two gates sharing a name.
	ErrDuplicateGate = errors.New("odselect: duplicate gate")
	// ErrTooFewGates marks a gate set with fewer than two gates — no
	// transition can exist between fewer than two.
	ErrTooFewGates = errors.New("odselect: need at least two gates")
)

// NewSelector builds a selector; gates must have distinct names.
func NewSelector(gates []Gate, cfg Config) (*Selector, error) {
	seen := map[string]bool{}
	for _, g := range gates {
		if g.Name == "" || g.Thick == nil {
			return nil, ErrBadGate
		}
		if seen[g.Name] {
			return nil, fmt.Errorf("%w: %q", ErrDuplicateGate, g.Name)
		}
		seen[g.Name] = true
	}
	if len(gates) < 2 {
		return nil, ErrTooFewGates
	}
	return &Selector{gates: gates, cfg: cfg.withDefaults()}, nil
}

// GateNames returns the selector's registered gate names in gate
// order — the authoritative name set for OD key validation downstream
// (invariant checker, serving layer).
func (s *Selector) GateNames() []string {
	names := make([]string, len(s.gates))
	for i, g := range s.gates {
		names[i] = g.Name
	}
	return names
}

// gateEvent is one acceptable crossing of a named gate.
type gateEvent struct {
	gate  string
	cross geo.Crossing
}

// Classify runs one cleaned trip segment through the funnel.
func (s *Selector) Classify(seg *trace.Trip) Classification {
	v := s.classify(seg.Geometry(), &classifyScratch{})
	c := Classification{Stage: v.stage}
	if v.stage >= StageTransition {
		c.Transition = v.transition(seg)
	}
	return c
}

// classifyScratch holds the per-segment buffers classify reuses; Run
// and RunViews keep one across a whole car so steady-state
// classification does not allocate per segment.
type classifyScratch struct {
	traj   geo.Polyline
	events []gateEvent
}

// verdict is the funnel outcome of one segment: the stage it reached
// and, from StageTransition upward, its origin and destination
// crossings.
type verdict struct {
	stage        Stage
	origin, dest gateEvent
}

// transition returns the verdict's transition over seg, the segment
// whose positions were classified.
func (v verdict) transition(seg *trace.Trip) *Transition {
	return &Transition{
		Seg:       seg,
		From:      v.origin.gate,
		To:        v.dest.gate,
		Direction: v.origin.gate + "-" + v.dest.gate,
		FromCross: v.origin.cross,
		ToCross:   v.dest.cross,
	}
}

// classify is the one classifier: it runs a segment's trajectory, its
// point positions in order, through the funnel. Row and view entries
// differ only in where they read the positions from.
func (s *Selector) classify(traj geo.Polyline, sc *classifyScratch) verdict {
	// Crossings and the filters below only read the trajectory and keep
	// value-typed results, so the buffers are safe to reuse.
	if len(traj) < 2 {
		return verdict{stage: StageNoGate}
	}

	events := sc.events[:0]
	for _, g := range s.gates {
		for _, cr := range g.Thick.Crossings(traj) {
			if cr.Angle <= s.cfg.MaxCrossingAngleDeg {
				events = append(events, gateEvent{gate: g.Name, cross: cr})
			}
		}
	}
	sc.events = events
	if len(events) == 0 {
		return verdict{stage: StageNoGate}
	}
	sort.SliceStable(events, func(i, j int) bool {
		return events[i].cross.EntryIndex < events[j].cross.EntryIndex
	})

	// Origin: first gate crossed. Destination: the last crossing of a
	// different gate after it.
	origin := events[0]
	var dest *gateEvent
	for i := len(events) - 1; i > 0; i-- {
		if events[i].gate != origin.gate && events[i].cross.EntryIndex > origin.cross.ExitIndex {
			dest = &events[i]
			break
		}
	}
	if dest == nil {
		return verdict{stage: StageGateTouched}
	}
	v := verdict{stage: StageTransition, origin: origin, dest: *dest}

	// Central-area filter: some interior trajectory point between the
	// two crossings must lie inside the central area.
	if !s.passesCentre(traj, origin.cross.ExitIndex, dest.cross.EntryIndex) {
		return v
	}

	// Post-filter: studied direction, and endpoints close to the OD
	// roads.
	v.stage = StageWithinCentre
	if !s.studied(origin.gate + "-" + dest.gate) {
		return v
	}
	startOK := s.gate(origin.gate).Thick.Center.Within(traj[0], s.cfg.EndpointProximityM)
	endOK := s.gate(dest.gate).Thick.Center.Within(traj[len(traj)-1], s.cfg.EndpointProximityM)
	if startOK && endOK {
		v.stage = StageAccepted
	}
	return v
}

func (s *Selector) passesCentre(traj geo.Polyline, from, to int) bool {
	if s.cfg.CentralArea.Area() <= 0 {
		return true
	}
	if from > to {
		from, to = to, from
	}
	for i := from; i <= to && i < len(traj); i++ {
		if s.cfg.CentralArea.Contains(traj[i]) {
			return true
		}
	}
	return false
}

func (s *Selector) studied(direction string) bool {
	for _, d := range s.cfg.StudiedPairs {
		if d == direction {
			return true
		}
	}
	return false
}

func (s *Selector) gate(name string) Gate {
	for _, g := range s.gates {
		if g.Name == name {
			return g
		}
	}
	return Gate{}
}

// Funnel tallies Table 3 for one car.
type Funnel struct {
	Car          int
	TripSegments int // column 2
	Filtered     int // column 3: >= StageGateTouched
	Transitions  int // column 4: >= StageTransition
	WithinCentre int // column 5: >= StageWithinCentre
	PostFiltered int // column 6: StageAccepted
}

// add tallies one segment that reached stage st and reports whether
// it was accepted.
func (f *Funnel) add(st Stage) bool {
	if st >= StageGateTouched {
		f.Filtered++
	}
	if st >= StageTransition {
		f.Transitions++
	}
	if st >= StageWithinCentre {
		f.WithinCentre++
	}
	if st >= StageAccepted {
		f.PostFiltered++
	}
	return st >= StageAccepted
}

// Run classifies a car's segments and tallies the funnel, returning
// the accepted transitions.
func (s *Selector) Run(car int, segs []*trace.Trip) (Funnel, []*Transition) {
	f := Funnel{Car: car, TripSegments: len(segs)}
	var accepted []*Transition
	var sc classifyScratch
	for _, seg := range segs {
		sc.traj = seg.AppendGeometry(sc.traj[:0])
		if v := s.classify(sc.traj, &sc); f.add(v.stage) {
			accepted = append(accepted, v.transition(seg))
		}
	}
	return f, accepted
}

// RunViews is Run over segment views: the same classifier reads each
// view's positions in place, and only an accepted segment is copied
// out into the row trip its Transition.Seg holds, marked time-sorted
// as segments of cleaned trips are. Every funnel count and accepted
// transition equals Run's over the views' rows.
func (s *Selector) RunViews(car int, segs []trace.ColTrip) (Funnel, []*Transition) {
	f := Funnel{Car: car, TripSegments: len(segs)}
	var accepted []*Transition
	var sc classifyScratch
	for _, seg := range segs {
		sc.traj = seg.AppendGeometry(sc.traj[:0])
		if v := s.classify(sc.traj, &sc); f.add(v.stage) {
			accepted = append(accepted, v.transition(seg.Materialize(true)))
		}
	}
	return f, accepted
}

// Pair is an ordered origin-destination gate pair. It keys the Matrix
// by the two names themselves rather than by their rendered "From-To"
// string, so gate names containing the separator (e.g. "T-north")
// cannot collide: Pair{"A-B","C"} and Pair{"A","B-C"} are distinct
// keys even though both render as "A-B-C".
type Pair struct {
	From, To string
}

// String renders the pair in the paper's direction notation ("T-S").
func (p Pair) String() string { return p.From + "-" + p.To }

// Matrix tallies transitions by ordered gate pair across a batch of
// classifications — the full origin-destination picture, of which the
// paper studies the four T/S/L pairs involving T.
type Matrix struct {
	gates  []string
	counts map[Pair]int
}

// NewMatrix prepares a matrix over the selector's gates.
func (s *Selector) NewMatrix() *Matrix {
	return &Matrix{gates: s.GateNames(), counts: map[Pair]int{}}
}

// Add records a classification; only stages carrying a transition
// count.
func (m *Matrix) Add(c Classification) {
	if c.Transition == nil {
		return
	}
	m.counts[Pair{From: c.Transition.From, To: c.Transition.To}]++
}

// Count returns the tally for an ordered pair.
func (m *Matrix) Count(from, to string) int { return m.counts[Pair{From: from, To: to}] }

// Total returns all recorded transitions.
func (m *Matrix) Total() int {
	t := 0
	for _, v := range m.counts {
		t += v
	}
	return t
}

// String renders the matrix with origins as rows.
func (m *Matrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s", "from\\to")
	for _, to := range m.gates {
		fmt.Fprintf(&b, "%6s", to)
	}
	b.WriteByte('\n')
	for _, from := range m.gates {
		fmt.Fprintf(&b, "%-6s", from)
		for _, to := range m.gates {
			if from == to {
				fmt.Fprintf(&b, "%6s", "-")
				continue
			}
			fmt.Fprintf(&b, "%6d", m.Count(from, to))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
