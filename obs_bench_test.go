package taxitrace

// Observability overhead benchmark: the same fleet workload as
// BenchmarkFleet (binary ingest) run with the observability stack off,
// partially on, and fully on.
//
// The obs=off arm is configured identically to BenchmarkFleet's
// cars=1000/format=binary arm — a nil tracer, no ledger, no registry —
// so it measures exactly what a disabled tracer costs the hot path
// (the no-op branches in ensureCarTrace and the stage handles):
// its throughput must stay within 1% of the pre-observability
// BENCH_fleet.json number for the same arm. obs=lineage prices the
// always-on drop-reason ledger + metrics, obs=sampled prices tracing a
// 10% car sample on top, and obs=traced records every car.
// `make bench-obs` snapshots the comparison into results/BENCH_obs.json
// via cmd/benchfmt.

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/tracegen"
)

const obsBenchCars = 1000

// obsPipeline builds a fleet pipeline with the given observability
// attachments over the shared benchmark workload seed.
func obsPipeline(b *testing.B, tr *obs.Tracer, lin *obs.Lineage, reg *obs.Registry) *core.Pipeline {
	b.Helper()
	p, err := core.NewPipeline(core.Config{
		CitySeed: fleetSeed,
		Fleet: tracegen.Config{
			Seed:            fleetSeed,
			Cars:            fleetPoolCars,
			TripsPerCar:     fleetTrips,
			GateRunFraction: fleetGateFrac,
		},
		Tracer:  tr,
		Lineage: lin,
		Metrics: reg,
	})
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkFleetObs measures what the observability layer costs on the
// fleet hot path.
func BenchmarkFleetObs(b *testing.B) {
	_, data := fleetEnvironment(b)
	arms := []struct {
		name  string
		build func(b *testing.B) *core.Pipeline
	}{
		// Disabled tracer: nil tracer, no ledger, no registry — the
		// BenchmarkFleet configuration, now with the observability
		// branches compiled into the hot path. The <=1% bound.
		{"off", func(b *testing.B) *core.Pipeline {
			return obsPipeline(b, nil, nil, nil)
		}},
		// The always-on accounting: metrics + lineage ledger, no tracer.
		{"lineage", func(b *testing.B) *core.Pipeline {
			reg := obs.NewRegistry()
			return obsPipeline(b, nil, obs.NewLineage(reg), reg)
		}},
		// A production trace: 10% of cars sampled deterministically.
		{"sampled", func(b *testing.B) *core.Pipeline {
			reg := obs.NewRegistry()
			tr := obs.NewTracer(obs.TracerConfig{Capacity: 1 << 14, SampleFraction: 0.1, Seed: fleetSeed})
			return obsPipeline(b, tr, obs.NewLineage(reg), reg)
		}},
		// Every car traced: the upper bound.
		{"traced", func(b *testing.B) *core.Pipeline {
			reg := obs.NewRegistry()
			tr := obs.NewTracer(obs.TracerConfig{Capacity: 1 << 14, SampleFraction: 1, Seed: fleetSeed})
			return obsPipeline(b, tr, obs.NewLineage(reg), reg)
		}},
	}
	for _, arm := range arms {
		arm := arm
		name := fmt.Sprintf("cars=%d/obs=%s", obsBenchCars, arm.name)
		b.Run(name, func(b *testing.B) {
			p := arm.build(b)
			proc := func(ctx context.Context, car int) (core.CarResult, error) {
				return p.ProcessBinaryContext(ctx, car, bytes.NewReader(data.bin[car-1]))
			}
			points := fleetPointCount(data, obsBenchCars)
			runtime.GC()
			b.ReportAllocs()
			b.ResetTimer()
			transitions := 0
			for i := 0; i < b.N; i++ {
				transitions = runFleet(b, obsBenchCars, proc)
			}
			b.StopTimer()
			if transitions == 0 {
				b.Fatal("degenerate fleet: no accepted transitions")
			}
			sec := b.Elapsed().Seconds()
			b.ReportMetric(float64(obsBenchCars*b.N)/sec, "cars/sec")
			b.ReportMetric(float64(points*b.N)/sec, "points/sec")
		})
	}
}
