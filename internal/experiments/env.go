// Package experiments regenerates every table and figure of the
// paper's evaluation (Tables 1-5, Figures 3-10, and the seasonal
// mean-speed deltas quoted in §VI). Each experiment returns a Report
// holding the printable rows/series and any SVG artifacts.
package experiments

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/tracegen"
)

// EnvConfig sizes the shared experiment environment.
type EnvConfig struct {
	Seed        int64
	Cars        int
	TripsPerCar int
	// GateRunFraction biases the simulated demand toward gate-to-gate
	// runs; the paper's observed share of transitions is ~4 % of all
	// segments, which the default 0.10 run share roughly yields after
	// filtering.
	GateRunFraction float64
	// Metrics, when non-nil, instruments the pipeline run (stage spans,
	// the stage counts no lineage row carries, router cache stats).
	Metrics *obs.Registry
	// Workers bounds the fleet runner's worker pool (0 = GOMAXPROCS);
	// MaxFailures is its error budget (0 = unlimited, negative =
	// abort on first failure). Experiments need the complete fleet, so
	// any car failure fails NewEnv — but with the budget the caller
	// controls how fast a doomed paper-scale regeneration gives up.
	Workers     int
	MaxFailures int
	// Lineage, when non-nil, receives the run's drop-reason ledger
	// (conservation-checked data lineage); Log receives structured
	// per-car and fleet log lines.
	Lineage *obs.Lineage
	Log     *slog.Logger
}

// SmallScale is a quick configuration for tests and benchmarks.
func SmallScale() EnvConfig {
	return EnvConfig{Seed: 42, Cars: 3, TripsPerCar: 10, GateRunFraction: 0.35}
}

// PaperScale approximates the paper's data volume: 7 taxis over one
// year, a few thousand trip segments per car.
func PaperScale() EnvConfig {
	return EnvConfig{Seed: 42, Cars: 7, TripsPerCar: 320, GateRunFraction: 0.12}
}

// Env is the shared state all experiments read: one pipeline run plus
// the grid analysis.
type Env struct {
	Cfg EnvConfig
	P   *core.Pipeline
	Res *core.Result
	Agg *grid.Aggregator
	LMM *stats.LMMResult
}

// NewEnv builds the city, simulates the fleet, and runs the full
// pipeline once.
func NewEnv(cfg EnvConfig) (*Env, error) {
	p, err := core.NewPipeline(core.Config{
		CitySeed: cfg.Seed,
		Fleet: tracegen.Config{
			Seed:            cfg.Seed,
			Cars:            cfg.Cars,
			TripsPerCar:     cfg.TripsPerCar,
			GateRunFraction: cfg.GateRunFraction,
		},
		Workers:     cfg.Workers,
		MaxFailures: cfg.MaxFailures,
		Metrics:     cfg.Metrics,
		Lineage:     cfg.Lineage,
		Log:         cfg.Log,
	})
	if err != nil {
		return nil, err
	}
	res, err := p.RunContext(context.Background())
	if err != nil {
		// The tables and figures quote fleet-wide numbers; a partial
		// fleet would silently skew them, so any car failure fails the
		// environment build.
		return nil, fmt.Errorf("experiments: fleet run: %w", err)
	}
	env := &Env{Cfg: cfg, P: p, Res: res}
	agg, lmm, err := p.GridAnalysis(res.Transitions())
	if err != nil {
		return nil, fmt.Errorf("experiments: grid analysis: %w", err)
	}
	env.Agg = agg
	env.LMM = lmm
	return env, nil
}

// Artifact is one binary output (an SVG figure).
type Artifact struct {
	Name string
	Data []byte
}

// Report is one regenerated table or figure.
type Report struct {
	ID        string // "table3", "fig9", ...
	Title     string
	Text      string
	Artifacts []Artifact
}

// report builds a Report from a text buffer.
func report(id, title string, text *bytes.Buffer, artifacts ...Artifact) *Report {
	return &Report{ID: id, Title: title, Text: text.String(), Artifacts: artifacts}
}

// All runs every experiment in paper order.
func All(env *Env) []*Report {
	return []*Report{
		Table1(env),
		Table2(),
		Table3(env),
		Table4(env),
		Table5(env),
		Figure2(env),
		Figure3(env, 1),
		Figure4(env, 1),
		Figure5(env, 1),
		Figure6(env),
		Figure7(env),
		Figure8(env),
		Figure9(env),
		Figure10(env),
		SeasonalDeltas(env),
		FeatureAssociations(env),
		ODMatrix(env),
	}
}

// fmtSummaryRow prints one Table 4 metric row.
func fmtSummaryRow(w *bytes.Buffer, label, direction string, s stats.Summary, digits int) {
	f := fmt.Sprintf("%%%d.%df", 8, digits)
	fmt.Fprintf(w, "%-12s %-4s "+f+" "+f+" "+f+" "+f+" "+f+" "+f+"\n",
		label, direction, s.Min, s.Q1, s.Median, s.Mean, s.Q3, s.Max)
}
