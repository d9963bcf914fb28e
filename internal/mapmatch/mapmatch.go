// Package mapmatch aligns GPS route points onto the road-network graph.
//
// The primary algorithm is the incremental (greedy) matcher of
// Brakatsoulas et al. [25], the paper's choice for its unevenly sampled,
// event-triggered points: each point is matched to the candidate edge
// maximising a combined position/orientation/continuity score, enhanced
// with digital-map information (driving directions) as in the paper.
// When consecutive matched points land on disconnected edges, the gap
// is filled with a network shortest path (the paper uses pgRouting's
// Dijkstra for this).
//
// An HMM (Viterbi) matcher in hmm.go serves as the comparison baseline
// used by the ablation benchmarks.
package mapmatch

import (
	"errors"
	"math"
	"sync"

	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/trace"
)

// Config tunes the incremental matcher.
type Config struct {
	// MaxCandidateDist bounds the point-to-edge distance for candidate
	// edges (default 60 m).
	MaxCandidateDist float64
	// MaxCandidates bounds the candidate set per point (default 6).
	MaxCandidates int
	// UseDirectionHints enables the map-direction enhancement: heading
	// agreement scoring and one-way legality (default set by
	// DefaultConfig; zero value disables, for the ablation).
	UseDirectionHints bool
	// PositionWeight, HeadingWeight and ContinuityWeight combine the
	// score terms (defaults 1.0, 0.6, 0.8).
	PositionWeight   float64
	HeadingWeight    float64
	ContinuityWeight float64
	// LookaheadDepth makes the greedy choice consider the best
	// continuation over the next LookaheadDepth points (the look-ahead
	// variant of Brakatsoulas et al.). 0 disables; 1-2 are useful.
	LookaheadDepth int
}

// DefaultConfig returns the paper-configured matcher settings.
func DefaultConfig() Config {
	return Config{
		MaxCandidateDist:  60,
		MaxCandidates:     6,
		UseDirectionHints: true,
		PositionWeight:    1.0,
		HeadingWeight:     0.6,
		ContinuityWeight:  0.8,
	}
}

func (c Config) withDefaults() Config {
	if c.MaxCandidateDist <= 0 {
		c.MaxCandidateDist = 60
	}
	if c.MaxCandidates <= 0 {
		c.MaxCandidates = 6
	}
	if c.PositionWeight <= 0 {
		c.PositionWeight = 1.0
	}
	if c.HeadingWeight <= 0 {
		c.HeadingWeight = 0.6
	}
	if c.ContinuityWeight <= 0 {
		c.ContinuityWeight = 0.8
	}
	return c
}

// MatchedPoint is one input point's assignment.
type MatchedPoint struct {
	Index   int  // index into the input slice
	Skipped bool // true when no candidate was within range
	Edge    roadnet.EdgeID
	Proj    geo.ProjectResult // position on the edge geometry
}

// Result is a completed match.
type Result struct {
	Points []MatchedPoint
	// Route is the connected directed edge sequence, including
	// gap-filling shortest paths.
	Route []roadnet.EdgeID
	// Geometry is the matched travel geometry from the first to the
	// last matched position.
	Geometry geo.Polyline
	// Elements lists the traversed traffic-element IDs in route order
	// (duplicates removed), ready for attribute fetching.
	Elements []int
	// MatchedFraction is the share of input points that found a
	// candidate.
	MatchedFraction float64
	// GapsFilled counts point transitions that needed a shortest-path
	// fill rather than edge adjacency.
	GapsFilled int
}

// Matcher is a reusable incremental map-matcher over one graph. It is
// safe for concurrent use: per-match state is checked out of a pool and
// the shared Router is itself concurrency-safe.
type Matcher struct {
	g       *roadnet.Graph
	rt      *roadnet.Router
	cfg     Config
	scratch sync.Pool // of *matchScratch
}

// matchScratch is the reusable per-match state: one candidate-query
// buffer per lookahead level (the level-0 buffer must survive while
// deeper levels query), the matched-position sequence, the
// element-dedup set, and the geometry/edge assembly buffers.
type matchScratch struct {
	near  []roadnet.NearScratch
	seq   []matchPos
	seen  map[int]bool
	piece geo.Polyline
	edges []roadnet.EdgeID
}

type matchPos struct {
	edge  roadnet.EdgeID
	along float64
	pt    geo.XY
}

func (m *Matcher) getScratch() *matchScratch {
	if s, ok := m.scratch.Get().(*matchScratch); ok {
		return s
	}
	return &matchScratch{
		near: make([]roadnet.NearScratch, m.cfg.LookaheadDepth+1),
		seen: make(map[int]bool),
	}
}

func (m *Matcher) putScratch(s *matchScratch) {
	s.seq = s.seq[:0]
	s.piece = s.piece[:0]
	s.edges = s.edges[:0]
	clear(s.seen)
	m.scratch.Put(s)
}

// NewIncremental builds a matcher over the graph's routing engine, so
// its gap-filling searches share the scratch pools and path cache of
// every other stage and worker routing over the graph.
func NewIncremental(g *roadnet.Graph, cfg Config) *Matcher {
	return &Matcher{g: g, rt: g.Router(), cfg: cfg.withDefaults()}
}

// ErrNoCandidate is returned when no input point has any candidate
// edge within range — the trace is nowhere near the network. It is a
// permanent (non-retryable) condition: the same trace re-matched
// against the same map fails the same way.
var ErrNoCandidate = errors.New("mapmatch: no point matched the network")

// ErrEmptyInput is returned for a zero-point input. Permanent.
var ErrEmptyInput = errors.New("mapmatch: empty input")

// Match aligns the points (in true order) onto the network.
func (m *Matcher) Match(points []trace.RoutePoint) (*Result, error) {
	if len(points) == 0 {
		return nil, ErrEmptyInput
	}
	s := m.getScratch()
	defer m.putScratch(s)
	res := &Result{Points: make([]MatchedPoint, 0, len(points))}
	matched := 0

	var prev MatchedPoint
	hasPrev := false
	var prevPointPos geo.XY
	for i := range points {
		mp := m.matchOne(points, i, prev, hasPrev, prevPointPos, s)
		res.Points = append(res.Points, mp)
		if !mp.Skipped {
			matched++
			prev = mp
			hasPrev = true
			prevPointPos = points[i].Pos
		}
	}
	res.MatchedFraction = float64(matched) / float64(len(points))
	if matched == 0 {
		return nil, ErrNoCandidate
	}
	m.assembleRoute(res, s)
	return res, nil
}

// matchOne scores the candidate edges for point i and picks the best,
// optionally looking ahead at the next points' best continuations.
func (m *Matcher) matchOne(points []trace.RoutePoint, i int, prev MatchedPoint, hasPrev bool, prevPos geo.XY, s *matchScratch) MatchedPoint {
	cands := m.candidates(points[i].Pos, &s.near[0])
	if len(cands) == 0 {
		return MatchedPoint{Index: i, Skipped: true}
	}
	var prevEdge roadnet.EdgeID
	if hasPrev {
		prevEdge = prev.Edge
	}
	best := math.Inf(-1)
	found := false
	var bestCand roadnet.EdgeCandidate
	for _, c := range cands {
		score := m.scoreCandidate(points, i, c, prevEdge, hasPrev)
		if math.IsInf(score, -1) {
			continue
		}
		if m.cfg.LookaheadDepth > 0 && i+1 < len(points) {
			score += 0.6 * m.continuation(points, i+1, c.Edge.ID, m.cfg.LookaheadDepth, s)
		}
		if score > best {
			best = score
			bestCand = c
			found = true
		}
	}
	if !found {
		return MatchedPoint{Index: i, Skipped: true}
	}
	return MatchedPoint{Index: i, Edge: bestCand.Edge.ID, Proj: bestCand.Proj}
}

// candidates returns the bounded candidate set for a position. The
// result aliases ns and is valid until its next reuse.
func (m *Matcher) candidates(p geo.XY, ns *roadnet.NearScratch) []roadnet.EdgeCandidate {
	cands := m.g.EdgesNearInto(p, m.cfg.MaxCandidateDist, ns)
	if len(cands) > m.cfg.MaxCandidates {
		cands = cands[:m.cfg.MaxCandidates]
	}
	return cands
}

// scoreCandidate evaluates one candidate for point i: position,
// optional map-direction agreement, and continuity with the previous
// edge. Returns -Inf for candidates the map rules out.
func (m *Matcher) scoreCandidate(points []trace.RoutePoint, i int, c roadnet.EdgeCandidate, prevEdge roadnet.EdgeID, hasPrev bool) float64 {
	score := m.cfg.PositionWeight * (1 - c.Distance/m.cfg.MaxCandidateDist)

	if m.cfg.UseDirectionHints {
		if heading, hasHeading := movementHeading(points, i); hasHeading {
			edgeBearing := c.Edge.Geom.BearingAt(c.Proj.Along)
			diff := geo.AngleDiff(heading, edgeBearing)
			legalForward := c.Edge.CanTraverse(true)
			legalBackward := c.Edge.CanTraverse(false)
			// Orientation agreement in the legal travel direction(s).
			agree := math.Inf(1)
			if legalForward {
				agree = diff
			}
			if legalBackward {
				if d := 180 - diff; d < agree {
					agree = d
				}
			}
			if agree > 100 {
				// The map says no legal travel direction of this edge
				// comes close to the observed movement (e.g. driving
				// against a one-way): reject the candidate outright.
				return math.Inf(-1)
			}
			score += m.cfg.HeadingWeight * (1 - agree/90)
		}
	}
	if hasPrev {
		switch {
		case c.Edge.ID == prevEdge:
			score += m.cfg.ContinuityWeight
		case m.adjacent(prevEdge, c.Edge.ID):
			score += m.cfg.ContinuityWeight / 2
		}
	}
	return score
}

// continuation returns the best achievable score for point i given the
// previous edge, recursing up to depth points ahead with a decaying
// weight. Each recursion level queries through its own scratch buffer
// (s.near[level]) so the caller's candidate slice stays intact.
func (m *Matcher) continuation(points []trace.RoutePoint, i int, prevEdge roadnet.EdgeID, depth int, s *matchScratch) float64 {
	level := m.cfg.LookaheadDepth - depth + 1
	cands := m.candidates(points[i].Pos, &s.near[level])
	if len(cands) == 0 {
		return 0
	}
	best := math.Inf(-1)
	for _, c := range cands {
		score := m.scoreCandidate(points, i, c, prevEdge, true)
		if math.IsInf(score, -1) {
			continue
		}
		if depth > 1 && i+1 < len(points) {
			score += 0.6 * m.continuation(points, i+1, c.Edge.ID, depth-1, s)
		}
		if score > best {
			best = score
		}
	}
	if math.IsInf(best, -1) {
		return 0
	}
	return best
}

// movementHeading estimates the travel bearing at point i from its
// neighbours; ok is false when the trace is locally stationary.
func movementHeading(points []trace.RoutePoint, i int) (float64, bool) {
	lo, hi := i, i
	if lo > 0 {
		lo--
	}
	if hi < len(points)-1 {
		hi++
	}
	if points[lo].Pos.Dist(points[hi].Pos) < 5 {
		return 0, false
	}
	return geo.Bearing(points[lo].Pos, points[hi].Pos), true
}

// adjacent reports whether two edges share a node.
func (m *Matcher) adjacent(a, b roadnet.EdgeID) bool {
	ea, eb := &m.g.Edges[a], &m.g.Edges[b]
	return ea.From == eb.From || ea.From == eb.To || ea.To == eb.From || ea.To == eb.To
}

// assembleRoute connects consecutive matched positions into one
// continuous network route, filling disconnected gaps with shortest
// paths.
func (m *Matcher) assembleRoute(res *Result, s *matchScratch) {
	seq := s.seq[:0]
	for _, mp := range res.Points {
		if mp.Skipped {
			continue
		}
		seq = append(seq, matchPos{edge: mp.Edge, along: mp.Proj.Along, pt: mp.Proj.Point})
	}
	s.seq = seq
	if len(seq) == 0 {
		return
	}
	res.Route = make([]roadnet.EdgeID, 0, len(seq))
	res.Geometry = append(make(geo.Polyline, 0, 2*len(seq)), seq[0].pt)
	appendEdge := func(id roadnet.EdgeID) {
		if n := len(res.Route); n == 0 || res.Route[n-1] != id {
			res.Route = append(res.Route, id)
		}
	}
	appendEdge(seq[0].edge)

	for k := 1; k < len(seq); k++ {
		a, b := seq[k-1], seq[k]
		if a.edge == b.edge {
			// Same edge: walk along its geometry between the two
			// projections, staged through the reusable piece buffer.
			g := m.g.Edges[a.edge].Geom
			lo, hi := a.along, b.along
			if lo <= hi {
				s.piece = g.AppendSlice(s.piece[:0], lo, hi)
			} else {
				s.piece = g.AppendSliceReversed(s.piece[:0], hi, lo)
			}
			res.Geometry = appendChain(res.Geometry, s.piece)
			continue
		}
		edges, piece, filled := m.connect(a.edge, a.along, b.edge, b.along, s)
		if filled {
			res.GapsFilled++
		}
		for _, id := range edges {
			appendEdge(id)
		}
		res.Geometry = appendChain(res.Geometry, piece)
	}

	// Traversed traffic elements, deduplicated in route order.
	seen := s.seen
	for _, id := range res.Route {
		for _, el := range m.g.Edges[id].Elements {
			if !seen[el] {
				seen[el] = true
				res.Elements = append(res.Elements, el)
			}
		}
	}
}

// connect routes from a position on edge A to a position on edge B,
// trying all exit/entry node combinations and charging the partial
// edge distances. filled is true when the edges are not adjacent
// (a genuine gap that required Dijkstra). The returned slices are
// views into s's reusable buffers, valid until the next connect call.
func (m *Matcher) connect(ea roadnet.EdgeID, alongA float64, eb roadnet.EdgeID, alongB float64, s *matchScratch) ([]roadnet.EdgeID, geo.Polyline, bool) {
	A, B := &m.g.Edges[ea], &m.g.Edges[eb]
	filled := !m.adjacent(ea, eb)

	// First pass: pick the cheapest exit/entry combination on cost
	// alone (the partial-edge charges need no geometry), then build the
	// edge list and geometry once for the winner.
	bestCost := math.Inf(1)
	var bestExitTo, bestEnterFrom bool
	var bestPath *roadnet.Path

	for _, exitTo := range [2]bool{false, true} { // exit via A.From or A.To
		var exitNode roadnet.NodeID
		var costA float64
		if exitTo {
			if !A.CanTraverse(true) {
				continue
			}
			exitNode = A.To
			costA = A.Length - alongA
		} else {
			if !A.CanTraverse(false) {
				continue
			}
			exitNode = A.From
			costA = alongA
		}
		for _, enterFrom := range [2]bool{true, false} { // enter via B.From or B.To
			var enterNode roadnet.NodeID
			var costB float64
			if enterFrom {
				if !B.CanTraverse(true) {
					continue
				}
				enterNode = B.From
				costB = alongB
			} else {
				if !B.CanTraverse(false) {
					continue
				}
				enterNode = B.To
				costB = B.Length - alongB
			}
			path, err := m.rt.ShortestPath(exitNode, enterNode, roadnet.DistanceWeight)
			if err != nil {
				continue
			}
			total := costA + path.Cost + costB
			if total < bestCost {
				bestCost = total
				bestExitTo, bestEnterFrom, bestPath = exitTo, enterFrom, path
			}
		}
	}
	if math.IsInf(bestCost, 1) {
		// Unreachable (disconnected component): jump straight across.
		s.edges = append(s.edges[:0], ea, eb)
		s.piece = append(s.piece[:0], B.Geom.PointAt(alongB))
		return s.edges, s.piece, filled
	}

	// Assemble gA + path geometry + gB in the reusable piece buffer,
	// applying appendChain's joint rule at each boundary.
	piece := s.piece[:0]
	if bestExitTo {
		piece = A.Geom.AppendSlice(piece, alongA, A.Length)
	} else {
		piece = A.Geom.AppendSliceReversed(piece, 0, alongA)
	}
	mark := len(piece)
	piece = dropJoint(bestPath.AppendGeometry(piece), mark)
	mark = len(piece)
	if bestEnterFrom {
		piece = B.Geom.AppendSlice(piece, 0, alongB)
	} else {
		piece = B.Geom.AppendSliceReversed(piece, alongB, B.Length)
	}
	piece = dropJoint(piece, mark)
	s.piece = piece

	s.edges = append(s.edges[:0], ea)
	s.edges = bestPath.AppendEdges(s.edges)
	s.edges = append(s.edges, eb)
	return s.edges, s.piece, filled
}

// appendChain appends piece to chain, dropping a duplicated joint
// vertex.
func appendChain(chain, piece geo.Polyline) geo.Polyline {
	for len(piece) > 0 && len(chain) > 0 && chain[len(chain)-1].Dist(piece[0]) < 1e-6 {
		piece = piece[1:]
	}
	return append(chain, piece...)
}

// dropJoint applies appendChain's joint rule in place: it removes the
// leading vertices of piece[mark:] that duplicate (within 1e-6) the
// chain tail piece[mark-1], as if piece[mark:] had been appended with
// appendChain.
func dropJoint(piece geo.Polyline, mark int) geo.Polyline {
	if mark == 0 {
		return piece
	}
	tail := piece[mark-1]
	k := 0
	for mark+k < len(piece) && tail.Dist(piece[mark+k]) < 1e-6 {
		k++
	}
	if k > 0 {
		piece = append(piece[:mark], piece[mark+k:]...)
	}
	return piece
}
