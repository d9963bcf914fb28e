package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/obs"
	"repro/internal/runner"
)

// TestFleetLineageConservation is the acceptance test for the lineage
// ledger: on a default fleet run every stage row must satisfy
// in = out + Σ dropped-by-reason, and the rows must reconcile exactly
// with the per-car results.
func TestFleetLineageConservation(t *testing.T) {
	lin := obs.NewLineage(obs.NewRegistry())
	cfg := determinismConfig()
	cfg.Lineage = lin
	// Enough injected GPS spikes that the cleaner provably drops points.
	cfg.Fleet.SpikeRate = 0.5
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if err := lin.Check(); err != nil {
		t.Fatalf("lineage conservation violated: %v", err)
	}
	snap := lin.Snapshot(10)
	if !snap.Conserved {
		t.Fatal("snapshot not conserved")
	}

	// Reconcile every stage row against the per-car sums.
	var rawPts, keptPts, rawSegs, keptSegs, segsIn, accepted, matched uint64
	for _, cr := range res.Cars {
		rawPts += uint64(cr.CleanStats.RawPoints)
		keptPts += uint64(cr.CleanStats.KeptPoints)
		rawSegs += uint64(cr.SegStats.RawSegments)
		keptSegs += uint64(cr.SegStats.KeptSegments)
		segsIn += uint64(cr.Funnel.TripSegments)
		accepted += uint64(cr.Funnel.PostFiltered)
		matched += uint64(cr.MatchStats.Matched)
	}
	rows := map[string]obs.StageSnapshot{}
	for _, row := range snap.Stages {
		rows[row.Stage] = row
	}
	for _, tc := range []struct {
		stage   string
		in, out uint64
	}{
		{"clean", rawPts, keptPts},
		{"segment", rawSegs, keptSegs},
		{"odselect", segsIn, accepted},
		{"mapmatch", accepted, matched},
		{"fleet", uint64(len(res.Cars)), uint64(len(res.Cars))},
	} {
		row, ok := rows[tc.stage]
		if !ok {
			t.Fatalf("stage %s missing from lineage table", tc.stage)
		}
		if row.In != tc.in || row.Out != tc.out {
			t.Errorf("%s: in/out = %d/%d, want %d/%d", tc.stage, row.In, row.Out, tc.in, tc.out)
		}
	}
	if rawPts == keptPts {
		t.Fatal("degenerate test: the cleaner dropped nothing")
	}
	if len(snap.TopDroppedCars) == 0 {
		t.Fatal("no per-car drop attribution recorded")
	}
}

// TestRetryCommitsLineageOnce is the regression test for the retry
// double-count: a car that fails transiently and then succeeds must
// contribute its stage counters and lineage exactly once — the run's
// counters must equal those of a fault-free run.
func TestRetryCommitsLineageOnce(t *testing.T) {
	run := func(faulty bool) (*Result, *obs.Registry, *obs.Lineage) {
		reg := obs.NewRegistry()
		lin := obs.NewLineage(reg)
		cfg := determinismConfig()
		cfg.Metrics = reg
		cfg.Lineage = lin
		if faulty {
			cfg.MaxAttempts = 3
			cfg.Workers = 1 // serialise so the injector needs no locking
			remaining := 2
			cfg.Faults = runner.FaultFunc(func(car int, stage string) error {
				if car == 2 && stage == "odselect" && remaining > 0 {
					remaining--
					return runner.Transient(errors.New("injected: flaky selector"))
				}
				return nil
			})
		}
		p, err := NewPipeline(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res, reg, lin
	}

	cleanRes, cleanReg, cleanLin := run(false)
	faultRes, faultReg, faultLin := run(true)

	wj, _ := json.Marshal(cleanRes)
	gj, _ := json.Marshal(faultRes)
	if !bytes.Equal(wj, gj) {
		t.Fatal("retried run diverged from the clean run")
	}

	// Every stage counter must match the fault-free run: partial
	// attempts commit nothing. pipeline_cars_processed and the duration
	// histograms are per-attempt by design and excluded; the lineage
	// rows are compared below.
	cleanSnap, faultSnap := cleanReg.Snapshot(), faultReg.Snapshot()
	for _, name := range []string{
		"pipeline_simulate_trips",
		"pipeline_clean_trips", "pipeline_clean_reordered", "pipeline_clean_chose_time",
		"pipeline_segment_input_trips", "pipeline_segment_resplit",
		"pipeline_segment_stop_points_dropped",
	} {
		if _, ok := cleanSnap.Counters[name]; !ok {
			t.Errorf("%s not exported", name)
		}
		if got, want := faultSnap.Counters[name], cleanSnap.Counters[name]; got != want {
			t.Errorf("%s = %d after retries, want %d", name, got, want)
		}
	}
	if got := faultSnap.Counters["runner_cars_retried"]; got != 2 {
		t.Fatalf("runner_cars_retried = %d, want 2", got)
	}

	if err := faultLin.Check(); err != nil {
		t.Fatalf("lineage conservation violated after retries: %v", err)
	}
	cj, _ := json.Marshal(cleanLin.Snapshot(0))
	fj, _ := json.Marshal(faultLin.Snapshot(0))
	if !bytes.Equal(cj, fj) {
		t.Fatalf("lineage diverged after retries:\nclean %s\nfault %s", cj, fj)
	}
}

// TestFleetLineageRecordsFailures: a permanently failing car lands in
// the fleet row as failed:<stage>, keeping the row conserved.
func TestFleetLineageRecordsFailures(t *testing.T) {
	lin := obs.NewLineage(nil)
	cfg := determinismConfig()
	cfg.Lineage = lin
	cfg.Faults = runner.FaultFunc(func(car int, stage string) error {
		if car == 2 && stage == "mapmatch" {
			return errors.New("injected: poisoned car")
		}
		return nil
	})
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.RunContext(context.Background())
	if err == nil {
		t.Fatal("want a car failure")
	}
	if len(res.Cars) != 2 {
		t.Fatalf("want 2 surviving cars, got %d", len(res.Cars))
	}
	if err := lin.Check(); err != nil {
		t.Fatalf("lineage not conserved with failures: %v", err)
	}
	for _, row := range lin.Snapshot(0).Stages {
		if row.Stage != "fleet" {
			continue
		}
		if row.In != 3 || row.Out != 2 {
			t.Fatalf("fleet row = %+v", row)
		}
		if len(row.Reasons) != 1 || row.Reasons[0].Reason != "failed:mapmatch" || row.Reasons[0].N != 1 {
			t.Fatalf("fleet reasons = %+v", row.Reasons)
		}
		return
	}
	t.Fatal("fleet row missing")
}

// TestTracedFleetProducesSpanTrees runs a traced fleet and checks the
// recorded spans form per-car trees with the expected stages, and that
// both exporters emit parseable output.
func TestTracedFleetProducesSpanTrees(t *testing.T) {
	tr := obs.NewTracer(obs.TracerConfig{Capacity: 1 << 12})
	cfg := determinismConfig()
	cfg.Tracer = tr
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}

	recs := tr.Records()
	roots := map[int]uint64{} // car -> root span id
	stages := map[int]map[string]bool{}
	byID := map[uint64]*obs.SpanRecord{}
	for _, r := range recs {
		byID[r.ID] = r
	}
	for _, r := range recs {
		if r.Name == "car" && r.Parent == 0 {
			roots[r.Car] = r.ID
		}
	}
	for _, r := range recs {
		if r.Parent == 0 {
			continue
		}
		p, ok := byID[r.Parent]
		if !ok {
			t.Fatalf("span %d has unknown parent %d", r.ID, r.Parent)
		}
		if p.Car != r.Car {
			t.Fatalf("span %q crosses cars", r.Name)
		}
		if m := stages[r.Car]; m == nil {
			stages[r.Car] = map[string]bool{}
		}
		stages[r.Car][r.Name] = true
	}
	for car := 1; car <= 3; car++ {
		if roots[car] == 0 {
			t.Fatalf("car %d has no root span", car)
		}
		for _, stage := range []string{"simulate", "clean", "segment", "odselect", "mapmatch"} {
			if !stages[car][stage] {
				t.Errorf("car %d missing %s stage span", car, stage)
			}
		}
	}

	var buf bytes.Buffer
	if err := tr.WriteTraceEvent(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) < len(recs) {
		t.Fatalf("export has %d events for %d records", len(parsed.TraceEvents), len(recs))
	}
}

// TestTracingAndLineageDoNotChangeResults: the observed run must be
// byte-identical to the bare run — observability never influences
// results.
func TestTracingAndLineageDoNotChangeResults(t *testing.T) {
	bare, err := NewPipeline(determinismConfig())
	if err != nil {
		t.Fatal(err)
	}
	bareRes, err := bare.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	cfg := determinismConfig()
	cfg.Tracer = obs.NewTracer(obs.TracerConfig{Capacity: 1 << 12, SampleFraction: 0.5})
	cfg.Lineage = obs.NewLineage(obs.NewRegistry())
	cfg.Metrics = obs.NewRegistry()
	obsP, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	obsRes, err := obsP.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	wj, _ := json.Marshal(bareRes)
	gj, _ := json.Marshal(obsRes)
	if !bytes.Equal(wj, gj) {
		t.Fatal("observability changed pipeline results")
	}
}
