package taxitrace

import (
	"bytes"
	"context"
	"encoding/json"
	"sort"
	"testing"

	"repro/internal/grid"
	"repro/internal/sink"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

func diffConfig() Config {
	return Config{
		CitySeed: 42,
		Fleet:    tracegen.Config{Seed: 42, Cars: 3, TripsPerCar: 8, GateRunFraction: 0.35},
	}
}

// runTraces pushes externally-serialised trips through the processing
// stages, the incremental aggregation sink, and the grid/mixed-model
// analysis, returning one JSON blob of everything observable: per-car
// results, the sealed snapshot, and the fitted model. proc runs one
// car, however the arm under test ingests it.
func runTraces(t *testing.T, cfg Config, cars []int, proc func(p *Pipeline, car int) (CarResult, error)) []byte {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	g, err := sink.GridForPipeline(p)
	if err != nil {
		t.Fatal(err)
	}
	snk, err := sink.New(sink.Config{Grid: g, Gates: p.Selector.GateNames()})
	if err != nil {
		t.Fatal(err)
	}
	res := &Result{}
	for _, car := range cars {
		cr, err := proc(p, car)
		if err != nil {
			t.Fatalf("car %d: %v", car, err)
		}
		res.Cars = append(res.Cars, cr)
	}
	snk.AbsorbResult(res)
	snap := snk.Seal()

	recs := res.Transitions()
	if len(recs) == 0 {
		t.Fatal("degenerate differential: no transitions")
	}
	_, lmm, err := p.GridAnalysis(recs)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(struct {
		Result   *Result
		Snapshot any
		Model    any
	}{res, flattenSnapshot(snap), lmm})
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// flattenSnapshot rewrites the snapshot's struct-keyed maps as ordered
// slices so the whole epoch serialises deterministically (PublishedAt,
// a wall-clock stamp, is deliberately dropped).
func flattenSnapshot(s *sink.Snapshot) any {
	type cell struct {
		ID    grid.CellID
		Stats sink.CellStats
	}
	type od struct {
		Key   string
		Stats sink.ODStats
	}
	out := struct {
		CarsIngested, CarsFailed, Points int
		Complete                         bool
		Gates                            []string
		Cells                            []cell
		OD                               []od
	}{
		CarsIngested: s.CarsIngested, CarsFailed: s.CarsFailed,
		Points: s.Points, Complete: s.Complete, Gates: s.Gates,
	}
	for _, id := range s.CellIDs() {
		out.Cells = append(out.Cells, cell{id, s.Cells[id]})
	}
	for _, dir := range s.Directions() {
		out.OD = append(out.OD, od{dir.String(), s.OD[dir]})
	}
	return out
}

// TestFormatAndLayoutDifferential is the end-to-end format proof: one
// fleet serialised to CSV and to the binary trace format, pushed
// through the pipeline over both binary ingest paths (row
// materialisation vs the direct columnar stream), must produce
// byte-identical results — per-car outputs, the sealed serving
// snapshot, and the grid/OD mixed-model fit.
func TestFormatAndLayoutDifferential(t *testing.T) {
	gen, err := New(diffConfig())
	if err != nil {
		t.Fatal(err)
	}
	fleet := gen.Gen.Fleet()
	proj := gen.City.DB.Proj
	var csvBuf, binBuf bytes.Buffer
	if err := trace.WriteCSV(&csvBuf, fleet, proj); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteBinary(&binBuf, fleet, proj); err != nil {
		t.Fatal(err)
	}

	// Group the fleet per car and encode each car's standalone binary
	// stream for the ProcessBinaryContext arm.
	byCar := map[int][]*trace.Trip{}
	for _, tr := range fleet {
		byCar[tr.CarID] = append(byCar[tr.CarID], tr)
	}
	cars := make([]int, 0, len(byCar))
	carBin := map[int][]byte{}
	for car := range byCar {
		cars = append(cars, car)
		var buf bytes.Buffer
		if err := trace.WriteBinary(&buf, byCar[car], proj); err != nil {
			t.Fatal(err)
		}
		carBin[car] = buf.Bytes()
	}
	sort.Ints(cars)

	groupRead := func(read func() ([]*trace.Trip, error)) func(p *Pipeline, car int) (CarResult, error) {
		return func(p *Pipeline, car int) (CarResult, error) {
			trips, err := read()
			if err != nil {
				return CarResult{}, err
			}
			var mine []*trace.Trip
			for _, tr := range trips {
				if tr.CarID == car {
					mine = append(mine, tr)
				}
			}
			return p.ProcessContext(context.Background(), car, mine)
		}
	}
	procCSV := groupRead(func() ([]*trace.Trip, error) {
		return trace.ReadCSV(bytes.NewReader(csvBuf.Bytes()), proj)
	})
	procBin := groupRead(func() ([]*trace.Trip, error) {
		return trace.ReadBinary(bytes.NewReader(binBuf.Bytes()), proj)
	})
	procBinDirect := func(p *Pipeline, car int) (CarResult, error) {
		return p.ProcessBinaryContext(context.Background(), car, bytes.NewReader(carBin[car]))
	}

	fromCSV := runTraces(t, diffConfig(), cars, procCSV)
	fromBin := runTraces(t, diffConfig(), cars, procBin)
	if !bytes.Equal(fromCSV, fromBin) {
		t.Fatalf("binary input diverged from CSV input:\ncsv %d bytes, binary %d bytes",
			len(fromCSV), len(fromBin))
	}
	fromBinDirect := runTraces(t, diffConfig(), cars, procBinDirect)
	if !bytes.Equal(fromCSV, fromBinDirect) {
		t.Fatal("direct columnar binary ingest diverged from CSV input")
	}
}
