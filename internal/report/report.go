// Package report assembles the end-of-run report: one JSON document
// that answers "what happened to the data" — the fleet outcome, the
// per-stage timing account, and the conservation-checked lineage table
// (in = out + Σ dropped-by-reason, per stage, plus the most lossy
// cars). The taxiflow binary writes it with -report; cmd/lineagecheck
// re-validates it in CI, so the schema is versioned and Validate is
// the single contract both sides share.
package report

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Schema identifies the report layout; bump on incompatible change.
const Schema = "taxiflow-run-report/v1"

// Report is the run report document.
type Report struct {
	Schema      string    `json:"schema"`
	GeneratedAt time.Time `json:"generated_at"`
	// DurationSeconds is the wall-clock length of the run.
	DurationSeconds float64 `json:"duration_seconds"`
	// Params echoes the run's configuration knobs (flag name → value)
	// so a report is interpretable without the invoking command line.
	Params map[string]string `json:"params,omitempty"`
	Fleet  FleetSummary      `json:"fleet"`
	// StageTimings is the per-stage span account, in pipeline order.
	StageTimings []StageTiming `json:"stage_timings"`
	// Lineage is the drop-reason ledger; Lineage.Conserved is the
	// report's headline integrity bit.
	Lineage obs.LineageSnapshot `json:"lineage"`
}

// FleetSummary is the runner's outcome account, plus the matched
// transitions: the out count of the lineage's mapmatch row.
type FleetSummary struct {
	CarsOK      uint64 `json:"cars_ok"`
	CarsFailed  uint64 `json:"cars_failed"`
	CarsRetried uint64 `json:"cars_retried"`
	CarsSkipped uint64 `json:"cars_skipped"`
	Transitions uint64 `json:"transitions"`
}

// StageTiming is one stage's span summary.
type StageTiming struct {
	Stage          string  `json:"stage"`
	Calls          uint64  `json:"calls"`
	TotalSeconds   float64 `json:"total_seconds"`
	P50Seconds     float64 `json:"p50_seconds"`
	P99Seconds     float64 `json:"p99_seconds"`
	MaxSeconds     float64 `json:"max_seconds"`
	AverageSeconds float64 `json:"avg_seconds"`
}

// Options configures Build.
type Options struct {
	// Params are echoed into Report.Params.
	Params map[string]string
	// Duration is the run's wall-clock length.
	Duration time.Duration
	// TopCars caps the lineage table's per-car drop list (default 10).
	TopCars int
	// Now is the report timestamp source (test hook); nil selects
	// time.Now.
	Now func() time.Time
}

// Build assembles a report from the run's metrics registry and lineage
// ledger. Either may be nil; the corresponding sections come out empty
// (and an empty lineage table is trivially conserved).
func Build(reg *obs.Registry, lin *obs.Lineage, opts Options) Report {
	if opts.TopCars == 0 {
		opts.TopCars = 10
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	snap := reg.Snapshot()
	r := Report{
		Schema:          Schema,
		GeneratedAt:     now().UTC(),
		DurationSeconds: opts.Duration.Seconds(),
		Params:          opts.Params,
		Fleet: FleetSummary{
			CarsOK:      snap.Counters["runner_cars_ok"],
			CarsFailed:  snap.Counters["runner_cars_failed"],
			CarsRetried: snap.Counters["runner_cars_retried"],
			CarsSkipped: snap.Counters["runner_cars_skipped"],
		},
		StageTimings: []StageTiming{},
		Lineage:      lin.Snapshot(opts.TopCars),
	}
	for _, st := range r.Lineage.Stages {
		if st.Stage == "mapmatch" {
			r.Fleet.Transitions = st.Out
		}
	}
	for _, stage := range core.StageNames {
		h, ok := snap.Histograms["pipeline_"+stage+"_duration_seconds"]
		if !ok || h.Count == 0 {
			continue
		}
		st := StageTiming{
			Stage:        stage,
			Calls:        h.Count,
			TotalSeconds: h.Sum,
			P50Seconds:   h.P50,
			P99Seconds:   h.P99,
			MaxSeconds:   h.Max,
		}
		st.AverageSeconds = h.Sum / float64(h.Count)
		r.StageTimings = append(r.StageTimings, st)
	}
	return r
}

// Validate checks a report's internal consistency — the contract
// cmd/lineagecheck enforces in CI: schema match, a conserved lineage
// table whose Conserved flag tells the truth, and sane stage timings.
func Validate(r *Report) error {
	if r.Schema != Schema {
		return fmt.Errorf("report: schema %q, want %q", r.Schema, Schema)
	}
	if err := r.Lineage.Check(); err != nil {
		return err
	}
	if !r.Lineage.Conserved {
		return fmt.Errorf("report: lineage rows conserve but Conserved flag is false")
	}
	for _, st := range r.StageTimings {
		if st.Calls == 0 {
			return fmt.Errorf("report: stage %s has zero calls", st.Stage)
		}
		// Quantiles are bucket-boundary estimates and may legitimately
		// exceed the exact Max, so only sign sanity is enforced here.
		if st.TotalSeconds < 0 || st.P50Seconds < 0 || st.P99Seconds < 0 {
			return fmt.Errorf("report: stage %s has negative timings", st.Stage)
		}
	}
	for _, car := range r.Lineage.TopDroppedCars {
		if car.Dropped == 0 {
			return fmt.Errorf("report: car %d listed as lossy with zero drops", car.Car)
		}
	}
	return nil
}

// WriteFile marshals the report (indented, stable field order) to path.
func WriteFile(path string, r *Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile loads and validates a report from path.
func ReadFile(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("report: %s: %v", path, err)
	}
	if err := Validate(&r); err != nil {
		return nil, fmt.Errorf("report: %s: %w", path, err)
	}
	return &r, nil
}
