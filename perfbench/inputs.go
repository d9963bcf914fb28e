package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/sink"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// citySeed fixes the synthetic city: it is the system's configuration,
// not an input, so every seed drives the same road network.
const citySeed = 42

// poolSpec describes the simulated cars a workload starts from.
type poolSpec struct {
	Cars  int     // simulated cars
	Trips int     // engine-on trips per car
	Gate  float64 // share of runs between the named gates
	Days  int     // simulated collection span (0: the generator's year)
}

// simulatePool generates the pool's raw trips with a pipeline instance
// of its own, separate from the system under test. The pipeline is
// returned because workloads also use it to precompute inputs such as
// per-car results.
func simulatePool(seed int64, ps poolSpec) (*core.Pipeline, [][]*trace.Trip, error) {
	p, err := core.NewPipeline(core.Config{
		CitySeed: citySeed,
		Fleet: tracegen.Config{
			Seed:            seed,
			Cars:            ps.Cars,
			TripsPerCar:     ps.Trips,
			GateRunFraction: ps.Gate,
			Days:            ps.Days,
		},
	})
	if err != nil {
		return nil, nil, fmt.Errorf("input pipeline: %w", err)
	}
	// Cars simulate independently and deterministically, so the pool is
	// generated on every CPU.
	pool := make([][]*trace.Trip, ps.Cars)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(pool); i = int(next.Add(1)) - 1 {
				pool[i] = p.Gen.CarTrips(i + 1)
			}
		}()
	}
	wg.Wait()
	return p, pool, nil
}

// restampCar deep-copies src under a new car id, shifting every point by
// shift in event time. Trip ids keep the generator's carID*1e6+i
// convention, so they stay unique across the replicated fleet.
func restampCar(src []*trace.Trip, car int, shift time.Duration) []*trace.Trip {
	out := make([]*trace.Trip, len(src))
	for i, t := range src {
		c := t.Clone()
		c.CarID = car
		c.ID = int64(car)*1_000_000 + t.ID%1_000_000
		for j := range c.Points {
			c.Points[j].TripID = c.ID
			c.Points[j].Time = c.Points[j].Time.Add(shift)
		}
		out[i] = c
	}
	return out
}

// buildPipeline builds the system under test's city, road graph, router
// and stage pipeline.
func buildPipeline() (*core.Pipeline, error) {
	return core.NewPipeline(core.Config{
		CitySeed: citySeed,
		Fleet:    tracegen.Config{Seed: citySeed, Cars: 1},
	})
}

// newSink builds a sink on the pipeline's frame with the production
// defaults (shards = GOMAXPROCS) and the given publish cadence (0 keeps
// the default of one epoch per car; negative disables auto-publish).
func newSink(p *core.Pipeline, publishEvery int) (*sink.Sink, error) {
	g, err := sink.GridForPipeline(p)
	if err != nil {
		return nil, err
	}
	return sink.New(sink.Config{Grid: g, Gates: p.Selector.GateNames(), PublishEvery: publishEvery})
}

// replicateResults maps each car of a fleet of n to the precomputed
// result of its pool car, re-labelled with the fleet car id.
func replicateResults(pool []core.CarResult, n int) []core.CarResult {
	out := make([]core.CarResult, n)
	for i := range out {
		out[i] = pool[i%len(pool)]
		out[i].Car = i + 1
	}
	return out
}

// poolResults runs the input pipeline over each pool car.
func poolResults(p *core.Pipeline, pool [][]*trace.Trip) ([]core.CarResult, error) {
	out := make([]core.CarResult, len(pool))
	for i, trips := range pool {
		cr, err := p.ProcessContext(context.Background(), i+1, trips)
		if err != nil {
			return nil, fmt.Errorf("pool car %d: %w", i+1, err)
		}
		out[i] = cr
	}
	return out, nil
}
