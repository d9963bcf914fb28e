package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/trace"
)

// TestStrictCheckFailsCarThroughFaultPath feeds the pipeline a raw trip
// violating the input invariant (a point claiming a different trip id)
// and asserts the strict checker surfaces it exactly like an injected
// fault: a typed *CheckError wrapped with the stage name, recoverable
// with errors.As, and counted on the violation counter.
func TestStrictCheckFailsCarThroughFaultPath(t *testing.T) {
	cfg := determinismConfig()
	cfg.Metrics = obs.NewRegistry()
	cfg.Check = check.Config{Strict: true}
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}

	corrupt := &trace.Trip{ID: 1}
	base := time.Date(2016, 3, 1, 8, 0, 0, 0, time.UTC)
	for i := 0; i < 4; i++ {
		corrupt.Points = append(corrupt.Points, trace.RoutePoint{
			TripID: 1, PointID: i + 1, Time: base.Add(time.Duration(i) * time.Second),
		})
	}
	corrupt.Points[2].TripID = 77 // foreign point: Trip.Validate fails

	_, err = p.ProcessContext(context.Background(), 9, []*trace.Trip{corrupt})
	if err == nil {
		t.Fatal("strict checker let a corrupt raw trip through")
	}
	var ce *check.CheckError
	if !errors.As(err, &ce) {
		t.Fatalf("want *check.CheckError in chain, got %v", err)
	}
	if len(ce.Violations) == 0 || ce.Violations[0].Stage != "simulate" || ce.Violations[0].Car != 9 {
		t.Fatalf("violation attribution: %+v", ce.Violations)
	}
	name := `check_violations_total{stage="simulate",rule="trip_integrity"}`
	if got := cfg.Metrics.Snapshot().Counters[name]; got != 1 {
		t.Fatalf("%s = %d, want 1", name, got)
	}

	// Counting (non-strict) mode over an empty trip, which breaks the
	// same rule but fits the arena: no error, same counter movement.
	ccfg := determinismConfig()
	ccfg.Metrics = obs.NewRegistry()
	ccfg.Check = check.Config{Enabled: true}
	cp, err := NewPipeline(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cp.ProcessContext(context.Background(), 9, []*trace.Trip{{ID: 1}}); err != nil {
		t.Fatalf("counting mode returned %v", err)
	}
	if got := ccfg.Metrics.Snapshot().Counters[name]; got != 1 {
		t.Fatalf("counting mode: %s = %d, want 1", name, got)
	}
}

// TestStrictCheckViolationIsPermanent asserts a strict violation is not
// retried: the runner sees a permanent error and the car fails on
// attempt 1 even with retries configured.
func TestStrictCheckViolationIsPermanent(t *testing.T) {
	cfg := determinismConfig()
	cfg.Check = check.Config{Strict: true}
	cfg.MaxAttempts = 3
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := &trace.Trip{ID: 5} // no points: Trip.Validate fails
	_, err = p.ProcessContext(context.Background(), 2, []*trace.Trip{corrupt})
	var ce *check.CheckError
	if !errors.As(err, &ce) {
		t.Fatalf("want *check.CheckError, got %v", err)
	}
}

// TestUnrepresentableTripFailsAtInput pins the input-boundary
// contract: a trip the columnar arena refuses, and the checker does not
// fail, fails its car at stage simulate with an error wrapping
// trace.ErrUnrepresentable — on attempt 1 even with retries
// configured, with the checker off and in counting mode.
func TestUnrepresentableTripFailsAtInput(t *testing.T) {
	cases := map[string]func(*trace.RoutePoint){
		"point id overflow": func(pt *trace.RoutePoint) { pt.PointID = 1 << 40 },
		"time before the window": func(pt *trace.RoutePoint) {
			pt.Time = time.Date(1600, 1, 1, 0, 0, 0, 0, time.UTC)
		},
		"non-UTC time":  func(pt *trace.RoutePoint) { pt.Time = pt.Time.In(time.FixedZone("EET", 2*3600)) },
		"foreign point": func(pt *trace.RoutePoint) { pt.TripID = 77 },
	}
	base := time.Date(2016, 3, 1, 8, 0, 0, 0, time.UTC)
	for _, mode := range []check.Config{{}, {Enabled: true}} {
		cfg := determinismConfig()
		cfg.Check = mode
		cfg.MaxAttempts = 3
		p, err := NewPipeline(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for name, corrupt := range cases {
			trip := &trace.Trip{ID: 1, CarID: 9}
			for i := 0; i < 4; i++ {
				trip.Points = append(trip.Points, trace.RoutePoint{
					TripID: 1, PointID: i + 1, Time: base.Add(time.Duration(i) * time.Second),
				})
			}
			corrupt(&trip.Points[2])
			st := runner.RunList(context.Background(), p.runnerConfig(), []int{9},
				func(ctx context.Context, car int) (CarResult, error) {
					return p.ProcessContext(ctx, car, []*trace.Trip{trip})
				})
			var failed []*CarError
			for ev := range st.Events() {
				if ev.Err != nil {
					failed = append(failed, ev.Err)
				}
			}
			if len(failed) != 1 {
				t.Fatalf("%s (check %+v): %d failed cars, want 1", name, mode, len(failed))
			}
			ce := failed[0]
			if !errors.Is(ce, trace.ErrUnrepresentable) || ce.Stage != "simulate" || ce.Attempts != 1 {
				t.Errorf("%s (check %+v): car error %v at stage %q after %d attempts, want ErrUnrepresentable at simulate on attempt 1",
					name, mode, ce.Err, ce.Stage, ce.Attempts)
			}
		}
	}
}
