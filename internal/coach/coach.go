// Package coach implements the paper's Driving Coach prototype
// (conclusions, ref [31]): post-driving analysis of trips built on the
// pipeline's preprocessing, map preparation, map-matching and feature
// extraction. It scores individual transitions for fuel-efficient
// driving and compares the route variants drivers actually chose
// between an origin and destination — the eco-routing question of
// Minett et al. [24].
package coach

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/roadnet"
	"repro/internal/routes"
	"repro/internal/trace"
)

// TripReport is the post-driving analysis of one transition.
type TripReport struct {
	Key       trace.Key
	Direction string

	DistanceKm  float64
	DurationMin float64
	FuelMl      float64
	FuelPerKm   float64

	LowSpeedPct float64
	IdlePct     float64 // share of trip time standing (< 1 km/h)
	// DetourFactor is driven distance over the shortest network
	// distance between the matched endpoints (>= ~1).
	DetourFactor float64

	// EcoScore is 0-100, higher is more fuel-efficient driving.
	EcoScore    float64
	Suggestions []string
}

// Coach analyses transitions over one road network.
type Coach struct {
	graph *roadnet.Graph
	rt    *roadnet.Router
}

// New builds a coach over the graph's routing engine, so its
// reference-route queries share the path cache of every other stage
// routing over the graph.
func New(graph *roadnet.Graph) *Coach {
	return &Coach{graph: graph, rt: graph.Router()}
}

// Analyze scores one transition.
func (c *Coach) Analyze(rec *core.TransitionRecord) TripReport {
	r := TripReport{
		Key:         rec.Transition.Key(),
		Direction:   rec.Direction(),
		DistanceKm:  rec.RouteDistKm,
		DurationMin: rec.RouteTimeH * 60,
		FuelMl:      rec.FuelMl,
		LowSpeedPct: rec.LowSpeedPct,
	}
	if r.DistanceKm > 0 {
		r.FuelPerKm = r.FuelMl / r.DistanceKm
	}
	r.IdlePct = idleShare(rec)
	r.DetourFactor = c.detourFactor(rec)
	r.EcoScore = ecoScore(r)
	r.Suggestions = suggestions(r)
	return r
}

// idleShare is the time-weighted share of the transition spent
// standing.
func idleShare(rec *core.TransitionRecord) float64 {
	span := rec.Transition.Span()
	var idle, total float64
	for i := 0; i < len(span)-1; i++ {
		dt := span[i+1].Time.Sub(span[i].Time).Seconds()
		if dt <= 0 {
			continue
		}
		total += dt
		if span[i].SpeedKmh < 1 {
			idle += dt
		}
	}
	if total == 0 {
		return 0
	}
	return 100 * idle / total
}

// detourFactor compares the driven route length against the shortest
// network route between the matched endpoints.
func (c *Coach) detourFactor(rec *core.TransitionRecord) float64 {
	geom := rec.Match.Geometry
	if len(geom) < 2 {
		return 1
	}
	from := c.graph.NearestNode(geom[0])
	to := c.graph.NearestNode(geom[len(geom)-1])
	if from == nil || to == nil {
		return 1
	}
	path, err := c.rt.ShortestPath(from.ID, to.ID, roadnet.DistanceWeight)
	if err != nil || path.Length < 100 {
		return 1
	}
	f := geom.Length() / path.Length
	if f < 1 {
		return 1
	}
	return f
}

// ecoScore combines the penalties into a 0-100 score.
func ecoScore(r TripReport) float64 {
	score := 100.0
	// Idling burns fuel for no distance.
	score -= 1.2 * r.IdlePct
	// Low-speed creep is the paper's headline fuel factor.
	score -= 0.5 * math.Max(0, r.LowSpeedPct-10)
	// Detours burn fuel proportionally.
	score -= 60 * (r.DetourFactor - 1)
	if score < 0 {
		score = 0
	}
	return score
}

// suggestions turns the penalties into actionable advice.
func suggestions(r TripReport) []string {
	var out []string
	if r.IdlePct > 12 {
		out = append(out, fmt.Sprintf(
			"%.0f%% of the trip was spent standing; route around signalled corridors or avoid peak hours", r.IdlePct))
	}
	if r.LowSpeedPct > 35 {
		out = append(out, fmt.Sprintf(
			"%.0f%% of trip time below 10 km/h; the crowded centre corridor dominates this route", r.LowSpeedPct))
	}
	if r.DetourFactor > 1.15 {
		out = append(out, fmt.Sprintf(
			"route was %.0f%% longer than the shortest alternative", 100*(r.DetourFactor-1)))
	}
	if len(out) == 0 {
		out = append(out, "efficient trip; no changes suggested")
	}
	return out
}

// RouteOption is one route variant between an OD pair, with the mean
// outcomes of the drivers who took it.
type RouteOption struct {
	Direction   string
	Variant     int // 0 = most driven
	Trips       int
	MeanFuelMl  float64
	MeanTimeMin float64
	MeanLowPct  float64
	MeanDistKm  float64
	// EcoBest marks the variant with the lowest mean fuel for its
	// direction (among variants with >= 2 trips when possible).
	EcoBest bool
}

// CompareRoutes clusters the transitions of each direction into route
// variants and reports their mean fuel, time and low-speed outcomes —
// "comparing the fuel consumption of different routes between an origin
// and destination" [24] on real (free) route choices.
func CompareRoutes(recs []*core.TransitionRecord, cfg routes.Config) ([]RouteOption, error) {
	byDir := map[string][]*core.TransitionRecord{}
	for _, rec := range recs {
		byDir[rec.Direction()] = append(byDir[rec.Direction()], rec)
	}
	dirs := make([]string, 0, len(byDir))
	for d := range byDir {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)

	var out []RouteOption
	for _, dir := range dirs {
		group := byDir[dir]
		items := make([]routes.Item, len(group))
		for i, rec := range group {
			items[i] = routes.Item{ID: i, Geom: rec.Match.Geometry}
		}
		clusters, err := routes.ClusterRoutes(items, cfg)
		if err != nil {
			return nil, fmt.Errorf("coach: clustering %s: %w", dir, err)
		}
		options := make([]RouteOption, len(clusters))
		for v, cl := range clusters {
			opt := RouteOption{Direction: dir, Variant: v, Trips: cl.Size()}
			for _, id := range cl.IDs {
				rec := group[id]
				opt.MeanFuelMl += rec.FuelMl
				opt.MeanTimeMin += rec.RouteTimeH * 60
				opt.MeanLowPct += rec.LowSpeedPct
				opt.MeanDistKm += rec.RouteDistKm
			}
			n := float64(cl.Size())
			opt.MeanFuelMl /= n
			opt.MeanTimeMin /= n
			opt.MeanLowPct /= n
			opt.MeanDistKm /= n
			options[v] = opt
		}
		markEcoBest(options)
		out = append(out, options...)
	}
	return out, nil
}

// markEcoBest flags the lowest-fuel variant, preferring variants with
// at least two trips so a single lucky run does not win.
func markEcoBest(options []RouteOption) {
	best := -1
	for i, o := range options {
		if o.Trips < 2 {
			continue
		}
		if best < 0 || o.MeanFuelMl < options[best].MeanFuelMl {
			best = i
		}
	}
	if best < 0 { // all singletons
		for i, o := range options {
			if best < 0 || o.MeanFuelMl < options[best].MeanFuelMl {
				best = i
			}
		}
	}
	if best >= 0 {
		options[best].EcoBest = true
	}
}
