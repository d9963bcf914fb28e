// Package tracegen simulates a taxi fleet driving over the synthetic
// city, producing raw trips in the exact shape of the paper's Driveco
// data: engine-on trips spanning many customer runs, event-triggered
// route points, GPS noise, OBD-style cumulative fuel and distance, and
// transmission-latency ordering corruption for the cleaning stage to
// repair.
package tracegen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/digiroad"
	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/trace"
	"repro/internal/weather"
)

// Config parameterises the simulation. Zero values select defaults
// matching the paper's setting (7 taxis, one year starting 1 Oct 2012).
type Config struct {
	Seed        int64
	Cars        int // default 7
	TripsPerCar int // engine-on trips per car, default 60
	// RunsPerTrip is the mean number of customer runs per engine-on
	// trip (default 6).
	RunsPerTrip float64
	// GateRunFraction is the probability a run connects two of the
	// named gates T, S, L (default 0.10).
	GateRunFraction float64
	// Start is the first simulated day (default 1 Oct 2012, the
	// paper's collection start).
	Start time.Time
	// Days is the simulated collection span (default 365).
	Days int
	// GPSNoiseM is the 1-sigma horizontal GPS error (default 4 m).
	GPSNoiseM float64
	// CorruptionRate is the fraction of trips whose point ordering
	// metadata is corrupted in transit (default 0.15).
	CorruptionRate float64
	// SpikeRate is the fraction of trips containing GPS spike points
	// thrown kilometres off (default 0.05).
	SpikeRate float64
	// Weather supplies temperatures; defaults to weather.DefaultModel.
	Weather *weather.Model
}

func (c Config) withDefaults() Config {
	if c.Cars <= 0 {
		c.Cars = 7
	}
	if c.TripsPerCar <= 0 {
		c.TripsPerCar = 60
	}
	if c.RunsPerTrip <= 0 {
		c.RunsPerTrip = 6
	}
	if c.GateRunFraction <= 0 {
		c.GateRunFraction = 0.10
	}
	if c.Start.IsZero() {
		c.Start = time.Date(2012, 10, 1, 0, 0, 0, 0, time.UTC)
	}
	if c.Days <= 0 {
		c.Days = 365
	}
	if c.GPSNoiseM <= 0 {
		c.GPSNoiseM = 4
	}
	if c.CorruptionRate <= 0 {
		c.CorruptionRate = 0.15
	}
	if c.SpikeRate <= 0 {
		c.SpikeRate = 0.05
	}
	if c.Weather == nil {
		c.Weather = weather.DefaultModel(c.Seed)
	}
	return c
}

// Generator produces simulated trips over one city.
type Generator struct {
	cfg   Config
	city  *digiroad.City
	graph *roadnet.Graph
	rt    *roadnet.Router

	gateNodes map[string]roadnet.NodeID // outer end node of each gate arterial
}

// New prepares a generator over the graph's routing engine. The graph
// must have been built from city.DB.
func New(city *digiroad.City, graph *roadnet.Graph, cfg Config) (*Generator, error) {
	g := &Generator{cfg: cfg.withDefaults(), city: city, graph: graph, rt: graph.Router()}
	g.gateNodes = map[string]roadnet.NodeID{}
	for _, name := range []string{"T", "S", "L"} {
		gate := city.Gate(name)
		if len(gate) < 2 {
			return nil, fmt.Errorf("tracegen: city has no gate %s", name)
		}
		// The run endpoint for a gate is the network node nearest the
		// outer end of the gate road (away from the centre).
		outer := gate[0]
		if gate[len(gate)-1].Dist(geo.XY{}) > outer.Dist(geo.XY{}) {
			outer = gate[len(gate)-1]
		}
		n := graph.NearestNode(outer)
		if n == nil {
			return nil, fmt.Errorf("tracegen: no node near gate %s", name)
		}
		g.gateNodes[name] = n.ID
	}
	return g, nil
}

// Fleet simulates every car and returns all raw trips.
func (g *Generator) Fleet() []*trace.Trip {
	var out []*trace.Trip
	for car := 1; car <= g.cfg.Cars; car++ {
		out = append(out, g.CarTrips(car)...)
	}
	return out
}

// CarTrips simulates one car's engine-on trips. Deterministic per
// (Seed, car). Cars differ in activity: some drivers work far more
// shifts than others, reproducing the per-car heterogeneity of the
// paper's Table 3 (1790 to 4080 segments per car).
func (g *Generator) CarTrips(carID int) []*trace.Trip {
	rng := rand.New(rand.NewSource(g.cfg.Seed*1_000_003 + int64(carID)))
	// Activity factor in [0.6, 1.4].
	nTrips := int(float64(g.cfg.TripsPerCar) * (0.6 + 0.8*rng.Float64()))
	if nTrips < 1 {
		nTrips = 1
	}
	// Driver style: a persistent per-car target-speed factor (calm to
	// brisk), like real taxi drivers.
	style := 0.94 + 0.12*rng.Float64()
	trips := make([]*trace.Trip, 0, nTrips)
	for i := 0; i < nTrips; i++ {
		day := rng.Intn(g.cfg.Days)
		startHour := 6 + rng.Float64()*14 // 06:00 .. 20:00
		start := g.cfg.Start.AddDate(0, 0, day).
			Add(time.Duration(startHour * float64(time.Hour)))
		tripID := int64(carID)*1_000_000 + int64(i) + 1
		t := g.engineOnTrip(rng, tripID, carID, style, start)
		if t != nil {
			trips = append(trips, t)
		}
	}
	return trips
}

// engineOnTrip simulates one engine-on period: several customer runs
// separated by idle waits, sharing one trip id and one point id
// sequence.
func (g *Generator) engineOnTrip(rng *rand.Rand, tripID int64, carID int, style float64, start time.Time) *trace.Trip {
	nRuns := 1 + rng.Intn(int(2*g.cfg.RunsPerTrip-1)) // mean ~RunsPerTrip
	tr := &trace.Trip{ID: tripID, CarID: carID, RecordedStart: start}

	now := start
	var cumDist, cumFuel float64
	pointID := 1
	var lastDropoff roadnet.NodeID = -1

	for run := 0; run < nRuns; run++ {
		from, to, ok := g.pickOD(rng, lastDropoff)
		if !ok {
			continue
		}
		// Deadhead: the taxi drives (logged, engine on) from the last
		// dropoff to the new pickup before the customer run.
		if lastDropoff >= 0 && lastDropoff != from {
			if dead := g.route(rng, lastDropoff, from); dead != nil {
				plan := g.planRun(rng, dead, style, now)
				res := simulateRun(rng, plan)
				for _, ep := range res.points {
					tr.Points = append(tr.Points, trace.RoutePoint{
						PointID:  pointID,
						TripID:   tripID,
						Pos:      g.jitter(rng, ep.pos),
						Time:     ep.t,
						SpeedKmh: math.Max(0, ep.speedKmh+rng.NormFloat64()*0.5),
						FuelMl:   cumFuel + ep.fuelMl,
						DistM:    cumDist + ep.distM,
					})
					pointID++
				}
				cumDist += res.distM
				cumFuel += res.fuelMl
				now = now.Add(res.duration)
				// Brief pickup wait; long enough for rule 1 to split
				// the deadhead from the customer run.
				pickupWait := time.Duration(4+rng.Intn(4)) * time.Minute
				endPos := dead.Geometry().PointAt(dead.Geometry().Length())
				for waited := 75 * time.Second; waited < pickupWait; waited += 75 * time.Second {
					cumFuel += 0.28 * 75
					tr.Points = append(tr.Points, trace.RoutePoint{
						PointID: pointID, TripID: tripID,
						Pos:    g.jitter(rng, endPos),
						Time:   now.Add(waited),
						FuelMl: cumFuel, DistM: cumDist,
					})
					pointID++
				}
				now = now.Add(pickupWait)
			}
		}
		path := g.route(rng, from, to)
		if path == nil {
			continue
		}
		plan := g.planRun(rng, path, style, now)
		res := simulateRun(rng, plan)
		for _, ep := range res.points {
			tr.Points = append(tr.Points, trace.RoutePoint{
				PointID:  pointID,
				TripID:   tripID,
				Pos:      g.jitter(rng, ep.pos),
				Time:     ep.t,
				SpeedKmh: math.Max(0, ep.speedKmh+rng.NormFloat64()*0.5),
				FuelMl:   cumFuel + ep.fuelMl,
				DistM:    cumDist + ep.distM,
			})
			pointID++
		}
		cumDist += res.distM
		cumFuel += res.fuelMl
		now = now.Add(res.duration)
		lastDropoff = to

		// Idle wait at the dropoff before the next run: heartbeat
		// points with no movement.
		if run < nRuns-1 {
			idle := time.Duration(4+rng.Intn(18)) * time.Minute
			endPos := plan.geom.PointAt(plan.geom.Length())
			for waited := 75 * time.Second; waited < idle; waited += 75 * time.Second {
				cumFuel += 0.28 * 75 // idling burn
				tr.Points = append(tr.Points, trace.RoutePoint{
					PointID:  pointID,
					TripID:   tripID,
					Pos:      g.jitter(rng, endPos),
					Time:     now.Add(waited),
					SpeedKmh: 0,
					FuelMl:   cumFuel,
					DistM:    cumDist,
				})
				pointID++
			}
			now = now.Add(idle)
		}
	}
	if len(tr.Points) == 0 {
		return nil
	}
	tr.RecordedEnd = now
	tr.RecordedDuration = now.Sub(start)
	tr.RecordedDistM = cumDist
	tr.RecordedFuelMl = cumFuel

	g.corrupt(rng, tr)
	return tr
}

// pickOD selects the origin and destination nodes for one customer run.
func (g *Generator) pickOD(rng *rand.Rand, lastDropoff roadnet.NodeID) (from, to roadnet.NodeID, ok bool) {
	if rng.Float64() < g.cfg.GateRunFraction {
		names := []string{"T", "S", "L"}
		i := rng.Intn(3)
		j := rng.Intn(2)
		if j >= i {
			j++
		}
		return g.gateNodes[names[i]], g.gateNodes[names[j]], true
	}
	// Ordinary customer run: random nodes with a plausible path length.
	from = lastDropoff
	if from < 0 || rng.Float64() < 0.5 {
		from = roadnet.NodeID(rng.Intn(len(g.graph.Nodes)))
	}
	for tries := 0; tries < 12; tries++ {
		to = roadnet.NodeID(rng.Intn(len(g.graph.Nodes)))
		d := g.graph.Nodes[from].Pos.Dist(g.graph.Nodes[to].Pos)
		if d > 500 && d < 6000 {
			return from, to, true
		}
	}
	return 0, 0, false
}

// route picks the driver's route: travel-time shortest path under
// per-edge preference noise (the paper's drivers choose routes freely
// on silent knowledge, so routes vary between runs).
func (g *Generator) route(rng *rand.Rand, from, to roadnet.NodeID) *roadnet.Path {
	pref := map[roadnet.EdgeID]float64{}
	weight := func(e *roadnet.Edge, forward bool) float64 {
		f, okPref := pref[e.ID]
		if !okPref {
			f = math.Exp(rng.NormFloat64() * 0.20)
			pref[e.ID] = f
		}
		return roadnet.TravelTimeWeight(e, forward) * f
	}
	// Per-call preference noise makes the weight a custom closure, so
	// the router runs it uncached on pooled scratch — deterministic and
	// allocation-light, but never memoised across drivers.
	path, err := g.rt.ShortestPath(from, to, weight)
	if err != nil || len(path.Steps) == 0 {
		return nil
	}
	return path
}

// jitter applies GPS noise.
func (g *Generator) jitter(rng *rand.Rand, p geo.XY) geo.XY {
	return geo.XY{
		X: p.X + rng.NormFloat64()*g.cfg.GPSNoiseM,
		Y: p.Y + rng.NormFloat64()*g.cfg.GPSNoiseM,
	}
}

// planRun assembles the kinematic inputs for one run. style is the
// driver's persistent target-speed factor.
func (g *Generator) planRun(rng *rand.Rand, path *roadnet.Path, style float64, start time.Time) runPlan {
	geom := path.Geometry()
	plan := runPlan{
		geom:  geom,
		start: start,
		noise: g.cfg.GPSNoiseM,
		style: style,
	}
	// Per-position speed limits from the path steps.
	var along float64
	for _, s := range path.Steps {
		plan.limits = append(plan.limits, limitSpan{
			from:  along,
			to:    along + s.Edge.Length,
			limit: s.Edge.SpeedLimitKmh / 3.6,
		})
		along += s.Edge.Length
	}
	// Feature marks along the route.
	for _, o := range g.city.DB.ObjectsNearLine(geom, 15, 0) {
		proj := geom.Project(o.Pos)
		switch o.Kind {
		case digiroad.TrafficLight:
			// Red-light probability per signal.
			red := 0.35
			waitScale := 40.0
			if g.city.InHotspot(o.Pos) {
				// Queues in crowded areas: more and longer reds.
				red = 0.5
				waitScale = 55
			}
			if rng.Float64() < red {
				wait := 5 + rng.Float64()*waitScale
				if rng.Float64() < 0.01 {
					wait = 200 // failed signal; the Table 2 rationale
				}
				plan.stops = append(plan.stops, stopMark{along: proj.Along, wait: wait})
			} else {
				plan.slows = append(plan.slows, slowMark{along: proj.Along, radius: 50, factor: 0.6})
			}
		case digiroad.PedestrianCrossing:
			if g.city.InHotspot(o.Pos) {
				// Crowded area: pedestrians actually on the crossing
				// force brief stops most of the time.
				if rng.Float64() < 0.7 {
					plan.stops = append(plan.stops, stopMark{along: proj.Along, wait: 5 + rng.Float64()*15})
				} else {
					plan.slows = append(plan.slows, slowMark{along: proj.Along, radius: 30, factor: 0.4})
				}
			} else if rng.Float64() < 0.05 {
				plan.stops = append(plan.stops, stopMark{along: proj.Along, wait: 3 + rng.Float64()*5})
			} else if rng.Float64() < 0.3 {
				plan.slows = append(plan.slows, slowMark{along: proj.Along, radius: 25, factor: 0.55})
			}
		case digiroad.BusStop:
			// Stopped buses block the lane surprisingly often.
			if rng.Float64() < 0.25 {
				plan.stops = append(plan.stops, stopMark{along: proj.Along, wait: 3 + rng.Float64()*9})
			} else {
				plan.slows = append(plan.slows, slowMark{along: proj.Along, radius: 35, factor: 0.65})
			}
		}
	}
	// Hotspot congestion: sampled route positions inside a crowded
	// area get a pervasive slowdown.
	step := 60.0
	for along := 0.0; along < geom.Length(); along += step {
		if g.city.InHotspot(geom.PointAt(along)) {
			plan.slows = append(plan.slows, slowMark{along: along, radius: step / 2, factor: 0.55})
		}
	}

	// Junction turns: slow where the route heading changes sharply.
	for i := 1; i < len(geom)-1; i++ {
		h1 := geo.Bearing(geom[i-1], geom[i])
		h2 := geo.Bearing(geom[i], geom[i+1])
		if geo.AngleDiff(h1, h2) > 40 {
			proj := geom.Project(geom[i])
			plan.slows = append(plan.slows, slowMark{along: proj.Along, radius: 20, factor: 0.45})
		}
	}
	sort.Slice(plan.stops, func(i, j int) bool { return plan.stops[i].along < plan.stops[j].along })

	// Rush hours slow the whole network: a multiplicative drag on the
	// limits in the morning and evening peaks.
	plan.congestion = rushHourFactor(start)

	// Seasonal target-speed offset (km/h -> m/s): the paper measures
	// winter -0.07, spring +0.46, summer +0.70, autumn +1.38 vs annual.
	switch weather.SeasonOf(start) {
	case weather.Winter:
		plan.speedOffset = -0.6 / 3.6
	case weather.Spring:
		plan.speedOffset = 0.2 / 3.6
	case weather.Summer:
		plan.speedOffset = 0.6 / 3.6
	case weather.Autumn:
		plan.speedOffset = 1.6 / 3.6
	}
	// Cold days add friction: lower targets slightly below -10 C.
	if g.cfg.Weather.TemperatureAt(start) < -10 {
		plan.speedOffset -= 0.4 / 3.6
	}
	return plan
}

// Cars returns the configured fleet size.
func (g *Generator) Cars() int { return g.cfg.Cars }

// rushHourFactor returns the congestion multiplier on target speeds for
// a departure time: 1.0 off-peak, lower during the morning (07:30 to
// 09:00) and evening (15:30 to 17:30) peaks.
func rushHourFactor(t time.Time) float64 {
	h := float64(t.Hour()) + float64(t.Minute())/60
	switch {
	case h >= 7.5 && h < 9:
		return 0.8
	case h >= 15.5 && h < 17.5:
		return 0.75
	default:
		return 1.0
	}
}
