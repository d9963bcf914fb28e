package mapmatch

import (
	"math"

	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/trace"
)

// HMMConfig tunes the Viterbi baseline matcher (Newson-Krumm style):
// emission probability falls with point-to-edge distance (GPS noise
// sigma), transition probability falls with the difference between the
// network route distance and the straight-line distance.
type HMMConfig struct {
	// SigmaM is the GPS noise standard deviation (default 6 m).
	SigmaM float64
	// BetaM is the transition tolerance scale (default 50 m).
	BetaM float64
	// MaxCandidateDist and MaxCandidates bound the state space
	// (defaults 60 m, 4).
	MaxCandidateDist float64
	MaxCandidates    int
}

func (c HMMConfig) withDefaults() HMMConfig {
	if c.SigmaM <= 0 {
		c.SigmaM = 6
	}
	if c.BetaM <= 0 {
		c.BetaM = 50
	}
	if c.MaxCandidateDist <= 0 {
		c.MaxCandidateDist = 60
	}
	if c.MaxCandidates <= 0 {
		c.MaxCandidates = 4
	}
	return c
}

// HMMMatcher is the baseline map-matcher used for comparisons with the
// paper's incremental algorithm.
type HMMMatcher struct {
	g   *roadnet.Graph
	rt  *roadnet.Router
	cfg HMMConfig
	inc *Matcher // reused for route assembly
}

// NewHMM builds the baseline matcher over the graph's routing engine.
func NewHMM(g *roadnet.Graph, cfg HMMConfig) *HMMMatcher {
	return &HMMMatcher{
		g:   g,
		rt:  g.Router(),
		cfg: cfg.withDefaults(),
		inc: NewIncremental(g, DefaultConfig()),
	}
}

// Match aligns the points with Viterbi decoding over edge candidates.
func (m *HMMMatcher) Match(points []trace.RoutePoint) (*Result, error) {
	if len(points) == 0 {
		return nil, ErrEmptyInput
	}
	type state struct {
		cand roadnet.EdgeCandidate
		logp float64
		prev int // back-pointer into the previous layer
	}
	var layers [][]state
	var layerIdx []int // input index per layer

	for i := range points {
		cands := m.g.EdgesNear(points[i].Pos, m.cfg.MaxCandidateDist)
		if len(cands) > m.cfg.MaxCandidates {
			cands = cands[:m.cfg.MaxCandidates]
		}
		if len(cands) == 0 {
			continue // skipped point, like the incremental matcher
		}
		layer := make([]state, len(cands))
		for c, cand := range cands {
			layer[c] = state{cand: cand, logp: math.Inf(-1), prev: -1}
		}
		layers = append(layers, layer)
		layerIdx = append(layerIdx, i)
	}
	if len(layers) == 0 {
		return nil, ErrNoCandidate
	}

	// Initial layer: emission only.
	for c := range layers[0] {
		layers[0][c].logp = m.emission(layers[0][c].cand.Distance)
	}
	// Forward pass. Route distances are batched: one bounded Dijkstra
	// per distinct endpoint node of the previous layer's candidates,
	// instead of a point query per candidate pair. The batch runs
	// through the router's pooled search scratch and compact sorted
	// entries, so no per-layer maps are allocated.
	for l := 1; l < len(layers); l++ {
		straight := points[layerIdx[l-1]].Pos.Dist(points[layerIdx[l]].Pos)
		// Routes longer than this contribute a negligible transition
		// probability, so the trees can safely stop there.
		bound := straight + 12*m.cfg.BetaM + 600
		batch := m.rt.NewDistanceBatch(roadnet.DistanceWeight, bound)
		for p := range layers[l-1] {
			e := layers[l-1][p].cand.Edge
			batch.AddSource(e.From)
			batch.AddSource(e.To)
		}
		for c := range layers[l] {
			cur := &layers[l][c]
			em := m.emission(cur.cand.Distance)
			for p := range layers[l-1] {
				prev := &layers[l-1][p]
				if math.IsInf(prev.logp, -1) {
					continue
				}
				tr := m.transition(batch, prev.cand, cur.cand, straight)
				if lp := prev.logp + tr + em; lp > cur.logp {
					cur.logp = lp
					cur.prev = p
				}
			}
			if math.IsInf(cur.logp, -1) {
				// Disconnected from every predecessor: restart here so
				// one bad point cannot sink the whole trace.
				cur.logp = em - 1e3
			}
		}
		batch.Release()
	}
	// Backtrack.
	bestC := 0
	last := len(layers) - 1
	for c := range layers[last] {
		if layers[last][c].logp > layers[last][bestC].logp {
			bestC = c
		}
	}
	choice := make([]int, len(layers))
	choice[last] = bestC
	for l := last; l > 0; l-- {
		p := layers[l][choice[l]].prev
		if p < 0 {
			p = 0
		}
		choice[l-1] = p
	}

	// Build the result in the incremental matcher's shape and reuse its
	// route assembly (shared gap filling).
	res := &Result{Points: make([]MatchedPoint, len(points))}
	for i := range res.Points {
		res.Points[i] = MatchedPoint{Index: i, Skipped: true}
	}
	for l, li := range layerIdx {
		st := layers[l][choice[l]]
		res.Points[li] = MatchedPoint{Index: li, Edge: st.cand.Edge.ID, Proj: st.cand.Proj}
	}
	res.MatchedFraction = float64(len(layers)) / float64(len(points))
	s := m.inc.getScratch()
	m.inc.assembleRoute(res, s)
	m.inc.putScratch(s)
	return res, nil
}

func (m *HMMMatcher) emission(dist float64) float64 {
	z := dist / m.cfg.SigmaM
	return -0.5 * z * z
}

// transition scores moving between two candidates given the straight
// line distance between the observations, reading network distances
// from the precomputed per-layer distance batch.
func (m *HMMMatcher) transition(batch *roadnet.DistanceBatch, a, b roadnet.EdgeCandidate, straight float64) float64 {
	route := m.routeDistance(batch, a, b)
	if math.IsInf(route, 1) {
		return math.Inf(-1)
	}
	return -math.Abs(route-straight) / m.cfg.BetaM
}

// routeDistance approximates the network distance between two candidate
// positions using the batched source-node distance trees.
func (m *HMMMatcher) routeDistance(batch *roadnet.DistanceBatch, a, b roadnet.EdgeCandidate) float64 {
	if a.Edge.ID == b.Edge.ID {
		return math.Abs(a.Proj.Along - b.Proj.Along)
	}
	best := math.Inf(1)
	for _, exitTo := range [2]bool{false, true} {
		exitNode, costA := a.Edge.From, a.Proj.Along
		if exitTo {
			exitNode, costA = a.Edge.To, a.Edge.Length-a.Proj.Along
		}
		for _, enterFrom := range [2]bool{true, false} {
			enterNode, costB := b.Edge.From, b.Proj.Along
			if !enterFrom {
				enterNode, costB = b.Edge.To, b.Edge.Length-b.Proj.Along
			}
			mid, ok := batch.Dist(exitNode, enterNode)
			if !ok {
				continue // beyond the tree bound: negligible probability
			}
			if total := costA + mid + costB; total < best {
				best = total
			}
		}
	}
	return best
}

// matchedPositions is a shared helper for tests: the matched positions
// as a polyline.
func matchedPositions(res *Result) geo.Polyline {
	var out geo.Polyline
	for _, mp := range res.Points {
		if !mp.Skipped {
			out = append(out, mp.Proj.Point)
		}
	}
	return out
}
