package taxitrace

// Fleet-scale benchmark: a parameterized 1k-100k synthetic fleet built
// by replicating a simulated car pool, ingested per car from encoded
// trace blobs and processed through the full per-car pipeline under
// the fleet runner. The matrix crosses fleet sizes with the two trace
// encodings (CSV vs binary). `make bench-fleet` snapshots the results — together
// with the frozen pre-columnar baseline in results/bench_fleet_seed.txt
// (BenchmarkFleetSeed) — into results/BENCH_fleet.json via cmd/benchfmt,
// reporting cars/sec, points/sec and allocs/op.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/runner"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// Fleet workload definition. The pool is a small set of genuinely
// simulated cars; the fleet replicates it with re-stamped car and trip
// IDs, which preserves the per-car work profile while keeping setup
// time independent of fleet size.
const (
	fleetSeed     = 42
	fleetPoolCars = 32
	fleetTrips    = 3    // engine-on trips per car
	fleetGateFrac = 0.10 // tracegen default: fleet-scale gate traffic share
)

// fleetSizes are the benchmarked fleet sizes; FLEET_CARS=N adds a
// custom (e.g. 100000-car) size.
func fleetSizes() []int {
	sizes := []int{1000, 10000}
	if s := os.Getenv("FLEET_CARS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			sizes = append(sizes, n)
		}
	}
	return sizes
}

type fleetData struct {
	csv    [][]byte // per-car CSV blob, header included
	bin    [][]byte // per-car binary trace blob
	points int      // total route points across the fleet
	proj   *geo.Projection
}

var (
	fleetOnce sync.Once
	fleet     *fleetData
	fleetPipe *core.Pipeline
	fleetErr  error
)

// fleetEnvironment builds (once) the shared pipeline and the encoded
// per-car trace blobs for the largest requested fleet size.
func fleetEnvironment(b *testing.B) (*core.Pipeline, *fleetData) {
	b.Helper()
	fleetOnce.Do(func() {
		maxCars := 0
		for _, n := range fleetSizes() {
			if n > maxCars {
				maxCars = n
			}
		}
		fleetPipe, fleetErr = core.NewPipeline(core.Config{
			CitySeed: fleetSeed,
			Fleet: tracegen.Config{
				Seed:            fleetSeed,
				Cars:            fleetPoolCars,
				TripsPerCar:     fleetTrips,
				GateRunFraction: fleetGateFrac,
			},
		})
		if fleetErr != nil {
			return
		}
		fleet, fleetErr = buildFleet(fleetPipe, maxCars)
	})
	if fleetErr != nil {
		b.Fatal(fleetErr)
	}
	return fleetPipe, fleet
}

// buildFleet replicates the simulated pool across cars 1..n and
// encodes each car's trips as standalone CSV and binary blobs.
func buildFleet(p *core.Pipeline, n int) (*fleetData, error) {
	proj := p.City.DB.Proj
	pool := make([][]*trace.Trip, fleetPoolCars)
	for i := range pool {
		pool[i] = p.Gen.CarTrips(i + 1)
	}
	data := &fleetData{csv: make([][]byte, n), bin: make([][]byte, n), proj: proj}
	var buf bytes.Buffer
	for car := 1; car <= n; car++ {
		src := pool[(car-1)%fleetPoolCars]
		trips := restampCar(src, car)
		buf.Reset()
		if err := trace.WriteCSV(&buf, trips, proj); err != nil {
			return nil, err
		}
		data.csv[car-1] = append([]byte(nil), buf.Bytes()...)
		buf.Reset()
		if err := trace.WriteBinary(&buf, trips, proj); err != nil {
			return nil, err
		}
		data.bin[car-1] = append([]byte(nil), buf.Bytes()...)
		for _, t := range trips {
			data.points += len(t.Points)
		}
	}
	return data, nil
}

// restampCar deep-copies src trips under a new car ID, keeping the
// generator's carID*1e6+i trip-ID convention so IDs stay fleet-unique.
func restampCar(src []*trace.Trip, car int) []*trace.Trip {
	out := make([]*trace.Trip, len(src))
	for i, t := range src {
		c := t.Clone()
		c.CarID = car
		c.ID = int64(car)*1_000_000 + t.ID%1_000_000
		for j := range c.Points {
			c.Points[j].TripID = c.ID
		}
		out[i] = c
	}
	return out
}

// runFleet pushes cars 1..n through the fleet runner: per-car ingest
// from the encoded blob, then the full processing pipeline. Returns
// total accepted transitions as a liveness check.
func runFleet(b *testing.B, n int, proc func(ctx context.Context, car int) (core.CarResult, error)) int {
	b.Helper()
	st := runner.Run(context.Background(), runner.Config{Workers: runtime.GOMAXPROCS(0)}, n,
		func(ctx context.Context, car int) (int, error) {
			cr, err := proc(ctx, car)
			if err != nil {
				return 0, err
			}
			return len(cr.Transitions), nil
		})
	total := 0
	for ev := range st.Events() {
		if ev.Err != nil {
			b.Fatal(ev.Err)
		}
		total += ev.Result
	}
	if err := st.Err(); err != nil {
		b.Fatal(err)
	}
	return total
}

// BenchmarkFleet is the fleet-scale matrix: cars × format. The binary
// arm is the full optimisation; compare either arm against
// BenchmarkFleetSeed in results/bench_fleet_seed.txt, the pre-columnar
// seed configuration.
func BenchmarkFleet(b *testing.B) {
	p, data := fleetEnvironment(b)
	for _, n := range fleetSizes() {
		n := n
		for _, format := range []string{"csv", "binary"} {
			format := format
			b.Run(fmt.Sprintf("cars=%d/format=%s", n, format), func(b *testing.B) {
				// The binary arm streams records straight into the
				// pooled columnar arena (ProcessBinaryContext); the CSV
				// arm materialises row trips first, as any row-oriented
				// ingest must.
				proc := func(ctx context.Context, car int) (core.CarResult, error) {
					trips, err := trace.ReadCSV(bytes.NewReader(data.csv[car-1]), data.proj)
					if err != nil {
						return core.CarResult{}, err
					}
					return p.ProcessContext(ctx, car, trips)
				}
				if format == "binary" {
					proc = func(ctx context.Context, car int) (core.CarResult, error) {
						return p.ProcessBinaryContext(ctx, car, bytes.NewReader(data.bin[car-1]))
					}
				}
				points := fleetPointCount(data, n)
				runtime.GC()
				b.ReportAllocs()
				b.ResetTimer()
				transitions := 0
				for i := 0; i < b.N; i++ {
					transitions = runFleet(b, n, proc)
				}
				b.StopTimer()
				if transitions == 0 {
					b.Fatal("degenerate fleet: no accepted transitions")
				}
				sec := b.Elapsed().Seconds()
				b.ReportMetric(float64(n*b.N)/sec, "cars/sec")
				b.ReportMetric(float64(points*b.N)/sec, "points/sec")
			})
		}
	}
}

// fleetPointCount counts route points over the first n cars.
func fleetPointCount(data *fleetData, n int) int {
	if n == len(data.csv) {
		return data.points
	}
	// Re-derive from blob row counts: every row but the header is one point.
	total := 0
	for _, blob := range data.csv[:n] {
		total += bytes.Count(blob, []byte{'\n'}) - 1
	}
	return total
}

// BenchmarkFleetIngestCSV isolates per-car CSV parsing (the satellite
// ReadCSV allocation work is measured against this).
func BenchmarkFleetIngestCSV(b *testing.B) {
	_, data := fleetEnvironment(b)
	blob := data.csv[0]
	pts := bytes.Count(blob, []byte{'\n'}) - 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trips, err := trace.ReadCSV(bytes.NewReader(blob), data.proj)
		if err != nil {
			b.Fatal(err)
		}
		if len(trips) == 0 {
			b.Fatal("no trips")
		}
	}
	b.ReportMetric(float64(pts), "points")
}

// BenchmarkFleetIngestBinary is the binary-format counterpart of
// BenchmarkFleetIngestCSV: same car, same points, the length-prefixed
// fixed-width record format.
func BenchmarkFleetIngestBinary(b *testing.B) {
	_, data := fleetEnvironment(b)
	blob := data.bin[0]
	pts := bytes.Count(data.csv[0], []byte{'\n'}) - 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trips, err := trace.ReadBinary(bytes.NewReader(blob), data.proj)
		if err != nil {
			b.Fatal(err)
		}
		if len(trips) == 0 {
			b.Fatal("no trips")
		}
	}
	b.ReportMetric(float64(pts), "points")
}
