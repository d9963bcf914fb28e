// Package grid implements the paper's 200 m × 200 m analysis grid
// (§V): point speeds are aggregated per cell, map features are counted
// per cell, and the cells feed the Table 5 statistics and the mixed
// model of Figs 7-9.
package grid

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/digiroad"
	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/stats"
)

// DefaultCellMeters is the paper's grid dimension.
const DefaultCellMeters = 200

// Grid is a fixed, even-celled partition of a study area.
type Grid struct {
	Area  geo.Rect
	CellM float64
	nx    int
	ny    int
}

// New builds a grid over area. cellM <= 0 selects the paper's 200 m.
func New(area geo.Rect, cellM float64) (*Grid, error) {
	if cellM <= 0 {
		cellM = DefaultCellMeters
	}
	if area.Area() <= 0 {
		return nil, fmt.Errorf("grid: study area must have positive extent, got %+v", area)
	}
	g := &Grid{Area: area, CellM: cellM}
	g.nx = int(area.Width()/cellM) + 1
	g.ny = int(area.Height()/cellM) + 1
	return g, nil
}

// CellID addresses one cell by column (I, west to east) and row (J,
// south to north).
type CellID struct {
	I, J int
}

// String renders the cell as "cI.J", the group label used by the mixed
// model.
func (c CellID) String() string { return fmt.Sprintf("c%03d.%03d", c.I, c.J) }

// ParseCellID parses the String form back into a CellID, so the label
// doubles as a stable external key (mixed-model group names, serving
// API paths). It accepts any non-negative digit runs, zero-padded or
// not: ParseCellID("c7.12") == ParseCellID("c007.012").
func ParseCellID(s string) (CellID, error) {
	bad := func() (CellID, error) {
		return CellID{}, fmt.Errorf("grid: bad cell id %q (want cI.J)", s)
	}
	if len(s) < 4 || s[0] != 'c' {
		return bad()
	}
	dot := strings.IndexByte(s, '.')
	if dot < 2 || dot == len(s)-1 {
		return bad()
	}
	i, ok := parseCellIndex(s[1:dot])
	if !ok {
		return bad()
	}
	j, ok := parseCellIndex(s[dot+1:])
	if !ok {
		return bad()
	}
	return CellID{I: i, J: j}, nil
}

// parseCellIndex parses a non-negative decimal cell index from digits
// only. Unlike strconv.Atoi it rejects sign prefixes ("+7"), so every
// accepted id is one CellID.String could have produced (up to leading
// zeros) — the round-trip property the invariant checker and fuzzers
// verify.
func parseCellIndex(s string) (int, bool) {
	if s == "" || len(s) > 9 { // 9 digits cannot overflow int32
		return 0, false
	}
	n := 0
	for i := 0; i < len(s); i++ {
		d := s[i] - '0'
		if d > 9 {
			return 0, false
		}
		n = n*10 + int(d)
	}
	return n, true
}

// NumCells returns the total cell count of the grid frame.
func (g *Grid) NumCells() int { return g.nx * g.ny }

// CellOf locates the cell containing p; ok is false outside the area.
func (g *Grid) CellOf(p geo.XY) (CellID, bool) {
	if !g.Area.Contains(p) {
		return CellID{}, false
	}
	i := int((p.X - g.Area.MinX) / g.CellM)
	j := int((p.Y - g.Area.MinY) / g.CellM)
	if i >= g.nx {
		i = g.nx - 1
	}
	if j >= g.ny {
		j = g.ny - 1
	}
	return CellID{I: i, J: j}, true
}

// CellRect returns the cell's rectangle.
func (g *Grid) CellRect(id CellID) geo.Rect {
	minX := g.Area.MinX + float64(id.I)*g.CellM
	minY := g.Area.MinY + float64(id.J)*g.CellM
	return geo.R(minX, minY, minX+g.CellM, minY+g.CellM)
}

// CellCenter returns the cell's midpoint.
func (g *Grid) CellCenter(id CellID) geo.XY { return g.CellRect(id).Center() }

// CellFeatures is the paper's per-cell feature vector: traffic lights,
// bus stops, pedestrian crossings, and (non-pedestrian) crossings,
// i.e. junctions.
type CellFeatures struct {
	TrafficLights       int
	BusStops            int
	PedestrianCrossings int
	Junctions           int
}

// Cell aggregates one cell's observations and features.
type Cell struct {
	ID       CellID
	Speed    stats.Welford
	Features CellFeatures
}

// Aggregator accumulates point speeds into cells.
type Aggregator struct {
	Grid  *Grid
	cells map[CellID]*Cell
}

// NewAggregator prepares an empty aggregation.
func NewAggregator(g *Grid) *Aggregator {
	return &Aggregator{Grid: g, cells: map[CellID]*Cell{}}
}

// Add folds one point speed into its cell; points outside the study
// area are ignored and reported false.
func (a *Aggregator) Add(p geo.XY, speedKmh float64) bool {
	id, ok := a.Grid.CellOf(p)
	if !ok {
		return false
	}
	c := a.cells[id]
	if c == nil {
		c = &Cell{ID: id}
		a.cells[id] = c
	}
	c.Speed.Add(speedKmh)
	return true
}

// Cell returns the aggregated cell, or nil when it has no data.
func (a *Aggregator) Cell(id CellID) *Cell { return a.cells[id] }

// Cells returns the non-empty cells ordered by ID. The paper's
// regression excludes cells having no measurement points, which this
// ordering gives directly.
func (a *Aggregator) Cells() []*Cell {
	out := make([]*Cell, 0, len(a.cells))
	for _, c := range a.cells {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ID.I != out[j].ID.I {
			return out[i].ID.I < out[j].ID.I
		}
		return out[i].ID.J < out[j].ID.J
	})
	return out
}

// NumNonEmpty returns the number of cells holding at least one point.
func (a *Aggregator) NumNonEmpty() int { return len(a.cells) }

// AttachFeatures counts the map features inside every non-empty cell.
func (a *Aggregator) AttachFeatures(db *digiroad.Database, graph *roadnet.Graph) {
	for _, c := range a.cells {
		r := a.Grid.CellRect(c.ID)
		fc := db.CountFeatures(r)
		c.Features = CellFeatures{
			TrafficLights:       fc.TrafficLights,
			BusStops:            fc.BusStops,
			PedestrianCrossings: fc.PedestrianCrossings,
			Junctions:           len(graph.JunctionsIn(r)),
		}
	}
}

// LMMGroups exports the cells as mixed-model groups (one group per
// cell, observations are the point speeds).
func (a *Aggregator) LMMGroups() []*stats.Group {
	var out []*stats.Group
	for _, c := range a.Cells() {
		g := &stats.Group{Name: c.ID.String()}
		// Welford tracks streaming moments; rebuild the sufficient
		// statistics the LMM needs.
		n := c.Speed.N()
		mean := c.Speed.Mean()
		variance := c.Speed.Variance()
		g.N = n
		g.Sum = mean * float64(n)
		if n >= 2 {
			g.SumSq = variance*float64(n-1) + g.Sum*g.Sum/float64(n)
		} else {
			g.SumSq = mean * mean
		}
		out = append(out, g)
	}
	return out
}

// ConditionalStats computes Table 5: mean-speed statistics over cells
// grouped by a feature predicate.
func ConditionalStats(cells []*Cell, pred func(CellFeatures) bool) stats.Summary {
	var means []float64
	for _, c := range cells {
		if pred(c.Features) {
			means = append(means, c.Speed.Mean())
		}
	}
	return stats.Summarize(means)
}

// VarianceOfMeans returns the unbiased variance of per-cell mean
// speeds for cells matching the predicate (the Table 5 "var" row).
func VarianceOfMeans(cells []*Cell, pred func(CellFeatures) bool) float64 {
	var means []float64
	for _, c := range cells {
		if pred(c.Features) {
			means = append(means, c.Speed.Mean())
		}
	}
	return stats.Variance(means)
}

// LMMGroupsWithFeatures exports the cells as mixed-model groups with
// their feature counts as group-level covariates, in the order
// {traffic lights, bus stops, pedestrian crossings, junctions} — the
// paper's model 2 design. AttachFeatures must have run first.
func (a *Aggregator) LMMGroupsWithFeatures() []*stats.GroupX {
	var out []*stats.GroupX
	for _, c := range a.Cells() {
		base := &stats.Group{Name: c.ID.String()}
		n := c.Speed.N()
		mean := c.Speed.Mean()
		variance := c.Speed.Variance()
		base.N = n
		base.Sum = mean * float64(n)
		if n >= 2 {
			base.SumSq = variance*float64(n-1) + base.Sum*base.Sum/float64(n)
		} else {
			base.SumSq = mean * mean
		}
		out = append(out, &stats.GroupX{
			Group: *base,
			Covariates: []float64{
				float64(c.Features.TrafficLights),
				float64(c.Features.BusStops),
				float64(c.Features.PedestrianCrossings),
				float64(c.Features.Junctions),
			},
		})
	}
	return out
}
