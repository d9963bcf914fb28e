package sink

import (
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/stats"
)

// Snapshot is one immutable epoch of the aggregation. Readers obtain it
// with Sink.Snapshot and may hold it indefinitely; nothing in it is
// ever mutated after publish. Epoch 0 is the empty pre-run snapshot.
type Snapshot struct {
	// Epoch numbers publishes monotonically; it keys the HTTP layer's
	// ETags, so equal epochs imply byte-equal query answers.
	Epoch uint64
	// CarsIngested / CarsFailed count the cars folded in (successful)
	// and seen failing so far; Complete marks the sealed final epoch —
	// until then the statistics cover a partial fleet.
	CarsIngested int
	CarsFailed   int
	Complete     bool
	// Points is the number of in-area measured point speeds aggregated.
	Points      int
	PublishedAt time.Time

	// Grid is the shared analysis frame (immutable).
	Grid *grid.Grid
	// Cells holds per-cell speed statistics for every non-empty cell.
	Cells map[grid.CellID]CellStats
	// OD holds per-direction transition statistics, keyed by the
	// ordered gate pair itself — not its rendered "From-To" string, so
	// gate names containing '-' cannot collide.
	OD map[ODKey]ODStats
	// Gates lists the registered gate names (from Config.Gates, in
	// registration order) — the authoritative name set the query layer
	// validates OD lookups against. Empty when the sink was built
	// without gate registration; lookups then skip name validation.
	Gates []string
	// EdgeProfiles holds the learned per-edge travel-time profiles:
	// pace moments (seconds per kilometre) per (edge, hour-of-day)
	// bucket, the sufficient statistics the predictor routes over. Nil
	// when no matched route has yielded a pace observation yet.
	EdgeProfiles map[EdgeProfileKey]EdgeProfileStats
}

// ODKey is an ordered origin-destination gate pair — the snapshot's OD
// map key. Keying by the two names (not their concatenation) keeps
// directions distinct even when gate names contain the '-' separator.
type ODKey struct {
	From, To string
}

// String renders the key in the paper's direction notation ("T-S").
func (k ODKey) String() string { return k.From + "-" + k.To }

// CellStats is one grid cell's speed aggregate.
type CellStats struct {
	N       int     `json:"n"`
	MeanKmh float64 `json:"mean_kmh"`
	VarKmh  float64 `json:"var_kmh"`
	MinKmh  float64 `json:"min_kmh"`
	MaxKmh  float64 `json:"max_kmh"`
}

// MetricStats summarises one per-transition metric (distance, fuel,
// speed shares) over a direction's trips.
type MetricStats struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// AttrTotals sums route attributes over a direction's matched routes
// (the Table 4 feature columns).
type AttrTotals struct {
	TrafficLights       int `json:"traffic_lights"`
	BusStops            int `json:"bus_stops"`
	PedestrianCrossings int `json:"pedestrian_crossings"`
	Junctions           int `json:"junctions"`
}

// ODStats is one direction's transition aggregate.
type ODStats struct {
	From  string
	To    string
	Trips int
	// TravelTimeS is the travel-time distribution in seconds; quantiles
	// stay queryable per epoch.
	TravelTimeS    *obs.FrozenHistogram
	DistKm         MetricStats
	FuelMl         MetricStats
	LowSpeedPct    MetricStats
	NormalSpeedPct MetricStats
	Attrs          AttrTotals
}

// EdgeProfileKey buckets pace observations by edge and UTC hour of
// day — the time-of-day profile granularity of the travel-time model.
type EdgeProfileKey struct {
	Edge roadnet.EdgeID
	Hour int
}

// EdgeProfileStats is one profile bucket's pace aggregate, carrying the
// full Welford sufficient statistics so buckets merge exactly across
// cluster partials (like CellStats, var only when N >= 2).
type EdgeProfileStats struct {
	N          int     `json:"n"`
	MeanSPerKm float64 `json:"mean_s_per_km"`
	VarSPerKm  float64 `json:"var_s_per_km"`
	MinSPerKm  float64 `json:"min_s_per_km"`
	MaxSPerKm  float64 `json:"max_s_per_km"`
}

// EdgeProfileKeys returns the snapshot's profile buckets sorted (by
// edge, then hour) for deterministic iteration — encoding and the
// predictor's global-mean pass both depend on a stable order.
func (s *Snapshot) EdgeProfileKeys() []EdgeProfileKey {
	out := make([]EdgeProfileKey, 0, len(s.EdgeProfiles))
	for k := range s.EdgeProfiles {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Edge != out[j].Edge {
			return out[i].Edge < out[j].Edge
		}
		return out[i].Hour < out[j].Hour
	})
	return out
}

// newEdgeProfileStats freezes one profile bucket's accumulator.
func newEdgeProfileStats(w *stats.Welford) EdgeProfileStats {
	ps := EdgeProfileStats{N: w.N(), MeanSPerKm: w.Mean()}
	if ps.N >= 2 {
		ps.VarSPerKm = w.Variance()
	}
	if ps.N > 0 {
		ps.MinSPerKm, ps.MaxSPerKm = w.Min(), w.Max()
	}
	return ps
}

// Directions returns the snapshot's OD keys sorted (by origin, then
// destination), for stable iteration in API responses and tables.
func (s *Snapshot) Directions() []ODKey {
	out := make([]ODKey, 0, len(s.OD))
	for dir := range s.OD {
		out = append(out, dir)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// HasGate reports whether name is a registered gate. With no gate
// registration (empty Gates) every name passes — the caller then falls
// back to plain map-lookup semantics.
func (s *Snapshot) HasGate(name string) bool {
	if len(s.Gates) == 0 {
		return true
	}
	for _, g := range s.Gates {
		if g == name {
			return true
		}
	}
	return false
}

// CellIDs returns the snapshot's non-empty cells in ID order.
func (s *Snapshot) CellIDs() []grid.CellID {
	out := make([]grid.CellID, 0, len(s.Cells))
	for id := range s.Cells {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].I != out[j].I {
			return out[i].I < out[j].I
		}
		return out[i].J < out[j].J
	})
	return out
}

// newCellStats freezes one aggregated cell.
func newCellStats(c *grid.Cell) CellStats {
	cs := CellStats{N: c.Speed.N(), MeanKmh: c.Speed.Mean()}
	if cs.N >= 2 {
		cs.VarKmh = c.Speed.Variance()
	}
	cs.MinKmh, cs.MaxKmh = c.Speed.Min(), c.Speed.Max()
	return cs
}

// summarize freezes a Welford accumulator into plain values (zeros when
// empty, so JSON responses never carry NaN).
func summarize(w stats.Welford) MetricStats {
	m := MetricStats{N: w.N()}
	if m.N == 0 {
		return m
	}
	m.Mean, m.Min, m.Max = w.Mean(), w.Min(), w.Max()
	if math.IsNaN(m.Mean) {
		m.Mean = 0
	}
	return m
}

// GridForPipeline builds the analysis grid frame matching p's batch
// GridAnalysis (study area + configured cell size), so a sink fed from
// p's stream aggregates on exactly the frame the batch path uses.
func GridForPipeline(p *core.Pipeline) (*grid.Grid, error) {
	return grid.New(p.City.StudyArea, p.Config.GridCellM)
}
