package core

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/clean"
	"repro/internal/obs"
	"repro/internal/segment"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// determinismConfig is a small but non-trivial fleet: enough cars to
// exercise the parallel workers and enough gate traffic that the
// matchers and the shared Router's path cache are hit from several
// goroutines at once.
func determinismConfig() Config {
	return Config{
		CitySeed: 42,
		Fleet: tracegen.Config{
			Seed:            42,
			Cars:            3,
			TripsPerCar:     8,
			GateRunFraction: 0.35,
		},
	}
}

// TestRunParallelMatchesSerial asserts that the concurrent Pipeline.Run
// produces byte-identical results to a serial per-car loop. This is the
// guarantee that the shared Router — its sync.Pool scratch, pooled
// heaps and sharded path cache — leaks no state between cars: cache
// warmth and scratch reuse may change timings, never results.
func TestRunParallelMatchesSerial(t *testing.T) {
	parallel, err := NewPipeline(determinismConfig())
	if err != nil {
		t.Fatal(err)
	}
	parRes, err := parallel.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	serial, err := NewPipeline(determinismConfig())
	if err != nil {
		t.Fatal(err)
	}
	serRes := &Result{Cars: make([]CarResult, serial.Gen.Cars())}
	for car := 1; car <= serial.Gen.Cars(); car++ {
		cr, err := serial.RunCarContext(context.Background(), car)
		if err != nil {
			t.Fatalf("car %d: %v", car, err)
		}
		serRes.Cars[car-1] = cr
	}

	parJSON, err := json.Marshal(parRes)
	if err != nil {
		t.Fatal(err)
	}
	serJSON, err := json.Marshal(serRes)
	if err != nil {
		t.Fatal(err)
	}
	if len(parRes.Transitions()) == 0 {
		t.Fatal("degenerate test: no transitions produced")
	}
	if !bytes.Equal(parJSON, serJSON) {
		t.Fatalf("parallel Run() diverged from the serial per-car loop:\nparallel %d bytes, serial %d bytes",
			len(parJSON), len(serJSON))
	}

	// Re-running a warmed pipeline must also be stable: every cached
	// path the second pass reads was produced by the deterministic
	// bidirectional search the first pass ran.
	again, err := parallel.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	againJSON, err := json.Marshal(again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(parJSON, againJSON) {
		t.Fatal("re-running a warmed pipeline changed the results")
	}
	if s := parallel.Router.CacheStats(); s.Hits == 0 {
		t.Fatalf("expected path-cache hits on the warmed re-run, got %+v", s)
	}

	// Instrumentation must not perturb determinism: a pipeline with a
	// live metrics registry produces byte-identical output.
	cfg := determinismConfig()
	cfg.Metrics = obs.NewRegistry()
	instrumented, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	insRes, err := instrumented.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	insJSON, err := json.Marshal(insRes)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(parJSON, insJSON) {
		t.Fatal("enabling metrics changed the pipeline output")
	}
	if _, _, err := instrumented.GridAnalysis(insRes.Transitions()); err != nil {
		t.Fatal(err)
	}
	snap := cfg.Metrics.Snapshot()
	if got := snap.Counters["pipeline_cars_processed"]; got != 3 {
		t.Fatalf("pipeline_cars_processed = %d, want 3", got)
	}
	for _, stage := range StageNames {
		if h := snap.Histograms["pipeline_"+stage+"_duration_seconds"]; h.Count == 0 {
			t.Errorf("stage %s recorded no spans", stage)
		}
		if g := snap.Gauges["pipeline_"+stage+"_active"]; g != 0 {
			t.Errorf("stage %s active gauge did not return to 0: %v", stage, g)
		}
	}

	// The strict invariant checker must not perturb determinism either:
	// checks observe stage outputs, never mutate them, so a strict run
	// over invariant-respecting data is byte-identical — and records
	// zero violations.
	ccfg := determinismConfig()
	ccfg.Metrics = obs.NewRegistry()
	ccfg.Check = check.Config{Strict: true}
	checked, err := NewPipeline(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	chkRes, err := checked.RunContext(context.Background())
	if err != nil {
		t.Fatalf("strict checker failed a clean fleet: %v", err)
	}
	chkJSON, err := json.Marshal(chkRes)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(parJSON, chkJSON) {
		t.Fatal("enabling the strict checker changed the pipeline output")
	}
	if _, _, err := checked.GridAnalysis(chkRes.Transitions()); err != nil {
		t.Fatal(err)
	}
	for name, n := range ccfg.Metrics.Snapshot().Counters {
		if strings.HasPrefix(name, "check_violations_total") && n != 0 {
			t.Errorf("clean fleet recorded violations: %s = %d", name, n)
		}
	}
}

// TestColumnarKernelsMatchRowKernels is the fleet-scale proof that the
// columnar kernels the stage driver runs mirror the row kernels, which
// remain as the test oracle: over every raw trip of the determinism
// fleet, RepairColumns + SplitColumns + MaterializeAll must equal
// Repair + Split bit for bit — every point field (floats compared
// through math.Float64bits), the cleaning decision and lengths, and
// every drop count of both stages.
func TestColumnarKernelsMatchRowKernels(t *testing.T) {
	p, err := NewPipeline(determinismConfig())
	if err != nil {
		t.Fatal(err)
	}
	arena := trace.NewArena(0)
	var sc clean.Scratch
	var trips, reordered, segs int
	for car := 1; car <= p.Config.Fleet.Cars; car++ {
		for _, raw := range p.Gen.CarTrips(car) {
			trips++
			arena.Reset()
			v, err := arena.AppendTrip(raw)
			if err != nil {
				t.Fatalf("car %d trip %d: %v", car, raw.ID, err)
			}
			row := clean.Repair(raw, p.Config.Clean)
			col := clean.RepairColumns(v, p.Config.Clean, arena, &sc)
			if row.ChosenOrder != col.ChosenOrder || row.Reordered != col.Reordered ||
				row.Dropped != col.Dropped || row.Drops != col.Drops ||
				math.Float64bits(row.LengthByID) != math.Float64bits(col.LengthByID) ||
				math.Float64bits(row.LengthByTime) != math.Float64bits(col.LengthByTime) {
				t.Fatalf("trip %d: clean row %+v, columnar %+v", raw.ID, row, col)
			}
			if row.Reordered {
				reordered++
			}
			if row.Trip == nil {
				if col.Trip.N != 0 {
					t.Fatalf("trip %d: row cleaning kept nothing, columnar kept %d points", raw.ID, col.Trip.N)
				}
				continue
			}
			assertTripsBitIdentical(t, "clean", []*trace.Trip{row.Trip}, trace.MaterializeAll([]trace.ColTrip{col.Trip}, true))

			var rowStats, colStats segment.Stats
			rowSegs := segment.Split(row.Trip, p.Rules, &rowStats)
			colSegs := trace.MaterializeAll(segment.SplitColumns(col.Trip, p.Rules, &colStats, nil), true)
			if math.Float64bits(rowStats.TotalKeptLength) != math.Float64bits(colStats.TotalKeptLength) {
				t.Fatalf("trip %d: kept length %v vs %v", raw.ID, rowStats.TotalKeptLength, colStats.TotalKeptLength)
			}
			rowStats.TotalKeptLength, colStats.TotalKeptLength = 0, 0
			if rowStats != colStats {
				t.Fatalf("trip %d: segment stats row %+v, columnar %+v", raw.ID, rowStats, colStats)
			}
			assertTripsBitIdentical(t, "segment", rowSegs, colSegs)
			segs += len(rowSegs)
		}
	}
	if reordered == 0 || segs == 0 {
		t.Fatalf("degenerate fleet: %d trips, %d reordered, %d segments", trips, reordered, segs)
	}
}

// assertTripsBitIdentical requires two trip lists to agree in identity
// and in every point field, floats bit for bit.
func assertTripsBitIdentical(t *testing.T, stage string, want, got []*trace.Trip) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d row trips, %d columnar", stage, len(want), len(got))
	}
	for i, w := range want {
		g := got[i]
		if w.ID != g.ID || w.CarID != g.CarID || len(w.Points) != len(g.Points) {
			t.Fatalf("%s: trip %d/%d (%d points) vs %d/%d (%d points)",
				stage, w.CarID, w.ID, len(w.Points), g.CarID, g.ID, len(g.Points))
		}
		for j := range w.Points {
			a, b := &w.Points[j], &g.Points[j]
			if a.PointID != b.PointID || a.TripID != b.TripID || !a.Time.Equal(b.Time) ||
				a.Time.Location() != b.Time.Location() ||
				math.Float64bits(a.Pos.X) != math.Float64bits(b.Pos.X) ||
				math.Float64bits(a.Pos.Y) != math.Float64bits(b.Pos.Y) ||
				math.Float64bits(a.SpeedKmh) != math.Float64bits(b.SpeedKmh) ||
				math.Float64bits(a.FuelMl) != math.Float64bits(b.FuelMl) ||
				math.Float64bits(a.DistM) != math.Float64bits(b.DistM) {
				t.Fatalf("%s: trip %d point %d: row %+v, columnar %+v", stage, w.ID, j, *a, *b)
			}
		}
	}
}
