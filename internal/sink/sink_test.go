package sink

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/odselect"
	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// feq compares floats to within accumulation-order rounding.
func feq(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// synthCar builds a minimal CarResult with one transition of the given
// direction whose points sweep across the test grid.
func synthCar(car int, dir string, speeds ...float64) core.CarResult {
	from, to := dir[:1], dir[2:]
	tr := &trace.Trip{ID: int64(car), CarID: car}
	base := time.Date(2022, 3, 1, 12, 0, 0, 0, time.UTC)
	for i, v := range speeds {
		tr.Points = append(tr.Points, trace.RoutePoint{
			PointID: i, TripID: tr.ID,
			Pos:      geo.V(float64(50+200*i), float64(50+100*car)),
			Time:     base.Add(time.Duration(i) * 30 * time.Second),
			SpeedKmh: v,
		})
	}
	rec := &core.TransitionRecord{
		Car: car,
		Transition: &odselect.Transition{
			Seg: tr, From: from, To: to, Direction: dir,
			FromCross: geo.Crossing{EntryIndex: 0},
			ToCross:   geo.Crossing{ExitIndex: len(speeds) - 1},
		},
		RouteTimeH:  float64(len(speeds)-1) * 30 / 3600,
		RouteDistKm: 0.2 * float64(len(speeds)-1),
		FuelMl:      40,
		LowSpeedPct: 10,
	}
	return core.CarResult{Car: car, Transitions: []*core.TransitionRecord{rec}}
}

func testSink(t *testing.T, publishEvery int) *Sink {
	t.Helper()
	g, err := grid.New(geo.R(0, 0, 2000, 2000), 200)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Grid: g, PublishEvery: publishEvery})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil grid accepted")
	}
}

func TestEmptySnapshotBeforeIngest(t *testing.T) {
	s := testSink(t, 1)
	snap := s.Snapshot()
	if snap == nil || snap.Epoch != 0 || snap.Complete || len(snap.Cells) != 0 || len(snap.OD) != 0 {
		t.Fatalf("initial snapshot = %+v", snap)
	}
}

func TestAbsorbPublishSeal(t *testing.T) {
	s := testSink(t, 1)
	cr1 := synthCar(1, "T-S", 30, 40, 50)
	cr2 := synthCar(2, "S-T", 10, 20)
	s.AbsorbEvent(core.CarEvent{Car: 1, Result: cr1})
	first := s.Snapshot()
	if first.Epoch != 1 || first.CarsIngested != 1 || first.Complete {
		t.Fatalf("after car 1: %+v", first)
	}
	if first.OD[ODKey{From: "T", To: "S"}].Trips != 1 || first.Points != 3 {
		t.Fatalf("after car 1: od %+v points %d", first.OD, first.Points)
	}

	s.AbsorbEvent(core.CarEvent{Car: 2, Result: cr2})
	s.AbsorbEvent(core.CarEvent{Car: 3, Err: &core.CarError{Car: 3}})
	final := s.Seal()
	if got := s.Snapshot(); got != final {
		t.Fatal("Snapshot must return the sealed epoch")
	}
	if !final.Complete || final.CarsIngested != 2 || final.CarsFailed != 1 {
		t.Fatalf("sealed: %+v", final)
	}
	if final.Epoch <= first.Epoch {
		t.Fatalf("epoch did not advance: %d -> %d", first.Epoch, final.Epoch)
	}
	if len(final.Directions()) != 2 {
		t.Fatalf("directions = %v", final.Directions())
	}

	// The earlier epoch is immutable: car 2 must not have leaked in.
	if first.CarsIngested != 1 || first.OD[ODKey{From: "S", To: "T"}].Trips != 0 || len(first.OD) != 1 {
		t.Fatalf("epoch %d mutated after later publishes: %+v", first.Epoch, first)
	}

	// Travel-time histogram carries both trips' durations exactly.
	h := &obs.Histogram{}
	h.Observe(2 * 30)
	if od := final.OD[ODKey{From: "T", To: "S"}]; !od.TravelTimeS.Equal(h.Freeze()) {
		t.Fatalf("T-S travel hist: count=%d", od.TravelTimeS.Count())
	}
	// Cell stats: car 1's three points land in three distinct cells on
	// row J=0 (y=150 < 200), car 2's two points on row y=250.
	if len(final.Cells) != 5 {
		t.Fatalf("cells = %d, want 5 (%v)", len(final.Cells), final.CellIDs())
	}
	c, ok := final.Cells[grid.CellID{I: 0, J: 0}]
	if !ok || c.N != 1 || c.MeanKmh != 30 {
		t.Fatalf("cell (0,0) = %+v ok=%v", c, ok)
	}

	// A sealed sink stays sealed.
	if later := s.Publish(); !later.Complete {
		t.Fatalf("publish after Seal: epoch %d not complete", later.Epoch)
	}
}

func TestAutoPublishCadence(t *testing.T) {
	s := testSink(t, 3)
	for car := 1; car <= 7; car++ {
		s.Absorb(&core.CarResult{Car: car})
	}
	// 7 cars at a cadence of 3 → publishes after cars 3 and 6.
	if e := s.Snapshot().Epoch; e != 2 {
		t.Fatalf("epoch = %d, want 2", e)
	}
	if got := s.Snapshot().CarsIngested; got != 6 {
		t.Fatalf("cars at epoch 2 = %d, want 6", got)
	}
	if got := s.Seal().CarsIngested; got != 7 {
		t.Fatalf("sealed cars = %d", got)
	}

	manual := testSink(t, -1) // auto-publish disabled
	for car := 1; car <= 5; car++ {
		manual.Absorb(&core.CarResult{Car: car})
	}
	if e := manual.Snapshot().Epoch; e != 0 {
		t.Fatalf("auto-publish happened at cadence -1 (epoch %d)", e)
	}
	if snap := manual.Publish(); snap.Epoch != 1 || snap.CarsIngested != 5 {
		t.Fatalf("manual publish: %+v", snap)
	}
}

// TestConcurrentAbsorb hammers ingest and publish from many goroutines;
// under -race this is the sink's concurrency gate. The sealed totals
// must reconcile exactly.
func TestConcurrentAbsorb(t *testing.T) {
	s := testSink(t, 2)
	const cars = 200
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for car := w; car < cars; car += 8 {
				dir := "T-S"
				if car%3 == 0 {
					dir = "S-L"
				}
				s.AbsorbEvent(core.CarEvent{Car: car, Result: synthCar(car%7, dir, 20, 30)})
			}
		}(w)
	}
	// Concurrent readers load snapshots while ingest runs.
	stop := make(chan struct{})
	var rwg sync.WaitGroup
	for r := 0; r < 4; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := s.Snapshot()
				if snap.Epoch < last {
					t.Error("epoch went backwards")
					return
				}
				last = snap.Epoch
				// Internal consistency: every snapshot's OD trip total
				// equals its ingested car count (each synthetic car has
				// exactly one transition).
				trips := 0
				for _, od := range snap.OD {
					trips += od.Trips
				}
				if trips != snap.CarsIngested {
					t.Errorf("epoch %d: %d trips vs %d cars", snap.Epoch, trips, snap.CarsIngested)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	rwg.Wait()
	final := s.Seal()
	if final.CarsIngested != cars {
		t.Fatalf("sealed cars = %d, want %d", final.CarsIngested, cars)
	}
	trips := 0
	for _, od := range final.OD {
		trips += od.Trips
	}
	if trips != cars {
		t.Fatalf("sealed trips = %d, want %d", trips, cars)
	}
}

// TestFinalSnapshotMatchesBatch is the acceptance gate: run a real
// fleet streaming into the sink, and verify the sealed snapshot is
// value-identical to an aggregation computed from the batch Result —
// integer counts (cells, points, trips, histogram buckets, attribute
// totals) exactly, floating moments to within accumulation-order
// rounding.
func TestFinalSnapshotMatchesBatch(t *testing.T) {
	p, err := core.NewPipeline(core.Config{
		CitySeed: 42,
		Fleet: tracegen.Config{
			Seed: 42, Cars: 3, TripsPerCar: 40, GateRunFraction: 0.3,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := GridForPipeline(p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Grid: g, PublishEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.RunObserved(context.Background(), s.AbsorbEvent)
	if err != nil {
		t.Fatal(err)
	}
	snap := s.Seal()
	if !snap.Complete {
		t.Fatal("sealed snapshot not complete")
	}
	if snap.CarsIngested != len(res.Cars) {
		t.Fatalf("cars = %d, want %d", snap.CarsIngested, len(res.Cars))
	}

	recs := res.Transitions()
	if len(recs) == 0 {
		t.Fatal("fleet produced no transitions; widen the config")
	}

	// Reference grid aggregation, computed batch-style (sequentially,
	// in car order) from the same Result.
	ref := grid.NewAggregator(g)
	points := 0
	for _, rec := range recs {
		for _, sp := range core.TransitionSpeedPoints(rec) {
			if ref.Add(sp.Pos, sp.SpeedKmh) {
				points++
			}
		}
	}
	if snap.Points != points {
		t.Fatalf("points = %d, want %d", snap.Points, points)
	}
	if len(snap.Cells) != ref.NumNonEmpty() {
		t.Fatalf("cells = %d, want %d", len(snap.Cells), ref.NumNonEmpty())
	}
	for _, rc := range ref.Cells() {
		sc, ok := snap.Cells[rc.ID]
		if !ok {
			t.Fatalf("cell %v missing from snapshot", rc.ID)
		}
		if sc.N != rc.Speed.N() {
			t.Fatalf("cell %v: n=%d want %d", rc.ID, sc.N, rc.Speed.N())
		}
		if !feq(sc.MeanKmh, rc.Speed.Mean()) {
			t.Fatalf("cell %v: mean %g want %g", rc.ID, sc.MeanKmh, rc.Speed.Mean())
		}
		if rc.Speed.N() >= 2 && !feq(sc.VarKmh, rc.Speed.Variance()) {
			t.Fatalf("cell %v: var %g want %g", rc.ID, sc.VarKmh, rc.Speed.Variance())
		}
		if sc.MinKmh != rc.Speed.Min() || sc.MaxKmh != rc.Speed.Max() {
			t.Fatalf("cell %v: extrema %g/%g want %g/%g",
				rc.ID, sc.MinKmh, sc.MaxKmh, rc.Speed.Min(), rc.Speed.Max())
		}
	}

	// Reference OD statistics, batch-style.
	type refOD struct {
		trips  int
		travel *obs.Histogram
		dist   float64
		fuel   float64
		attrs  AttrTotals
	}
	refs := map[ODKey]*refOD{}
	for _, rec := range recs {
		dir := ODKey{From: rec.Transition.From, To: rec.Transition.To}
		r := refs[dir]
		if r == nil {
			r = &refOD{travel: &obs.Histogram{}}
			refs[dir] = r
		}
		r.trips++
		r.travel.Observe(rec.RouteTimeH * 3600)
		r.dist += rec.RouteDistKm
		r.fuel += rec.FuelMl
		r.attrs.TrafficLights += rec.Attrs.TrafficLights
		r.attrs.BusStops += rec.Attrs.BusStops
		r.attrs.PedestrianCrossings += rec.Attrs.PedestrianCrossings
		r.attrs.Junctions += rec.Attrs.Junctions
	}
	if len(snap.OD) != len(refs) {
		t.Fatalf("directions = %v, want %d", snap.Directions(), len(refs))
	}
	for dir, r := range refs {
		od, ok := snap.OD[dir]
		if !ok {
			t.Fatalf("direction %s missing", dir)
		}
		if od.Trips != r.trips || od.Attrs != r.attrs {
			t.Fatalf("%s: trips/attrs %+v, want %d/%+v", dir, od, r.trips, r.attrs)
		}
		if !od.TravelTimeS.Equal(r.travel.Freeze()) {
			t.Fatalf("%s: travel-time histogram differs from batch", dir)
		}
		if !feq(od.DistKm.Mean, r.dist/float64(r.trips)) {
			t.Fatalf("%s: dist mean %g want %g", dir, od.DistKm.Mean, r.dist/float64(r.trips))
		}
		if !feq(od.FuelMl.Mean, r.fuel/float64(r.trips)) {
			t.Fatalf("%s: fuel mean %g want %g", dir, od.FuelMl.Mean, r.fuel/float64(r.trips))
		}
	}

	// AbsorbResult over the batch Result must seal to the same values —
	// the CSV-ingest bridge is equivalent to the stream feed.
	s2, err := New(Config{Grid: g, PublishEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	s2.AbsorbResult(res)
	snap2 := s2.Seal()
	if snap2.CarsIngested != snap.CarsIngested || snap2.Points != snap.Points ||
		len(snap2.Cells) != len(snap.Cells) || len(snap2.OD) != len(snap.OD) {
		t.Fatalf("AbsorbResult snapshot differs: %+v vs %+v", snap2, snap)
	}
	for dir, od := range snap.OD {
		if od2 := snap2.OD[dir]; od2.Trips != od.Trips || !od2.TravelTimeS.Equal(od.TravelTimeS) {
			t.Fatalf("%s: AbsorbResult OD differs", dir)
		}
	}
}

// sameBits is exact float equality: the same IEEE-754 bit pattern.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameMoments reports whether frozen moments equal w's bit for bit (the
// variance only from two observations up, as the snapshot stores it).
func sameMoments(n int, mean, variance, lo, hi float64, w *stats.Welford) bool {
	wantVar := 0.0
	if w.N() >= 2 {
		wantVar = w.Variance()
	}
	return n == w.N() && sameBits(mean, w.Mean()) && sameBits(variance, wantVar) &&
		sameBits(lo, w.Min()) && sameBits(hi, w.Max())
}

// TestSealedSnapshotIsSequentialFold: the sealed snapshot is one
// sequential fold of the absorbed observations in absorb order — every
// cell, OD metric, travel-time histogram and profile bucket equals, bit
// for bit, a plain grid.Aggregator / stats.Welford / obs.Histogram fold
// of the same values. Many car ids share each cell, direction and
// profile bucket, so any regrouping of the fold (such as a per-car-id
// split merged at publish) shows up in the low bits.
func TestSealedSnapshotIsSequentialFold(t *testing.T) {
	var cars []core.CarResult
	for i := 0; i < 24; i++ {
		speeds := make([]float64, 6)
		for k := range speeds {
			speeds[k] = 17.3 + float64((i*7+k*13)%29)*1.37
		}
		// Geometry rows 0 and 1 share grid row J=0, so every car
		// lands in the same few cells whatever its id.
		cr := synthCar(i%2, []string{"T-S", "S-T", "L-T"}[i%3], speeds...)
		cr.Car = i
		rec := cr.Transitions[0]
		rec.RouteTimeH = 0.05 + float64(i%9)*0.0137
		rec.RouteDistKm = 1.1 + float64(i%5)*0.37
		rec.FuelMl = 38.2 + float64(i%7)*2.9
		rec.LowSpeedPct = float64(i%11) * 3.3
		rec.NormalSpeedPct = 100 - rec.LowSpeedPct*1.7
		cars = append(cars, cr)
	}
	for i := 0; i < 12; i++ {
		cr := matchedCar(i%2, 7, 8+i%2, 97.3+float64(i)*13.1, 5)
		cr.Car = 100 + i
		cars = append(cars, cr)
	}

	s := testSink(t, -1)
	for _, cr := range cars {
		s.AbsorbEvent(core.CarEvent{Car: cr.Car, Result: cr})
	}
	snap := s.Seal()

	type refOD struct {
		trips                             int
		travel                            obs.Histogram
		distKm, fuelMl, lowPct, normalPct stats.Welford
	}
	cells := grid.NewAggregator(snap.Grid)
	ods := map[ODKey]*refOD{}
	profiles := map[EdgeProfileKey]*stats.Welford{}
	points := 0
	for _, cr := range cars {
		for _, rec := range cr.Transitions {
			for _, sp := range core.TransitionSpeedPoints(rec) {
				if cells.Add(sp.Pos, sp.SpeedKmh) {
					points++
				}
			}
			key := ODKey{From: rec.Transition.From, To: rec.Transition.To}
			if ods[key] == nil {
				ods[key] = &refOD{}
			}
			od := ods[key]
			od.trips++
			od.travel.Observe(rec.RouteTimeH * 3600)
			od.distKm.Add(rec.RouteDistKm)
			od.fuelMl.Add(rec.FuelMl)
			od.lowPct.Add(rec.LowSpeedPct)
			od.normalPct.Add(rec.NormalSpeedPct)
			for _, ep := range core.TransitionEdgePaces(rec) {
				key := EdgeProfileKey{Edge: ep.Edge, Hour: ep.Hour}
				if profiles[key] == nil {
					profiles[key] = &stats.Welford{}
				}
				profiles[key].Add(ep.SecPerKm)
			}
		}
	}

	if snap.CarsIngested != len(cars) || snap.Points != points {
		t.Fatalf("cars/points = %d/%d, want %d/%d", snap.CarsIngested, snap.Points, len(cars), points)
	}
	if len(snap.Cells) != cells.NumNonEmpty() || len(snap.OD) != len(ods) || len(snap.EdgeProfiles) != len(profiles) {
		t.Fatalf("cells/directions/profiles = %d/%d/%d, want %d/%d/%d",
			len(snap.Cells), len(snap.OD), len(snap.EdgeProfiles), cells.NumNonEmpty(), len(ods), len(profiles))
	}
	for _, rc := range cells.Cells() {
		if c := snap.Cells[rc.ID]; !sameMoments(c.N, c.MeanKmh, c.VarKmh, c.MinKmh, c.MaxKmh, &rc.Speed) {
			t.Errorf("cell %v = %+v, want the sequential fold %+v", rc.ID, c, rc.Speed)
		}
	}
	for key, ref := range ods {
		od := snap.OD[key]
		want := ref.travel.Freeze()
		if od.Trips != ref.trips || !od.TravelTimeS.Equal(want) || !sameBits(od.TravelTimeS.Sum(), want.Sum()) {
			t.Errorf("%s: trips %d, travel-time sum %v; want %d, %v bucket for bucket",
				key, od.Trips, od.TravelTimeS.Sum(), ref.trips, want.Sum())
		}
		for _, m := range []struct {
			name string
			got  MetricStats
			want *stats.Welford
		}{
			{"dist", od.DistKm, &ref.distKm},
			{"fuel", od.FuelMl, &ref.fuelMl},
			{"low-speed", od.LowSpeedPct, &ref.lowPct},
			{"normal-speed", od.NormalSpeedPct, &ref.normalPct},
		} {
			if m.got.N != m.want.N() || !sameBits(m.got.Mean, m.want.Mean()) ||
				!sameBits(m.got.Min, m.want.Min()) || !sameBits(m.got.Max, m.want.Max()) {
				t.Errorf("%s %s = %+v, want the sequential fold %+v", key, m.name, m.got, *m.want)
			}
		}
	}
	for key, w := range profiles {
		if p := snap.EdgeProfiles[key]; !sameMoments(p.N, p.MeanSPerKm, p.VarSPerKm, p.MinSPerKm, p.MaxSPerKm, w) {
			t.Errorf("profile %+v = %+v, want the sequential fold %+v", key, p, *w)
		}
	}
}

func TestMetricsWiring(t *testing.T) {
	reg := obs.NewRegistry()
	g, err := grid.New(geo.R(0, 0, 1000, 1000), 200)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Grid: g, PublishEvery: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	s.AbsorbEvent(core.CarEvent{Car: 1, Result: synthCar(1, "T-S", 25, 35)})
	s.AbsorbEvent(core.CarEvent{Car: 2, Err: &core.CarError{Car: 2}})
	s.Seal()
	snap := reg.Snapshot()
	for name, want := range map[string]uint64{
		"sink_cars_absorbed": 1,
		"sink_cars_failed":   1,
		"sink_publishes":     2, // auto + seal
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if snap.Gauges["sink_epoch"] != 2 || snap.Gauges["sink_od_pairs"] != 1 {
		t.Errorf("gauges: %+v", snap.Gauges)
	}
}

func TestDirectionsAndCellIDsSorted(t *testing.T) {
	s := testSink(t, -1)
	s.Absorb(&core.CarResult{Car: 1, Transitions: []*core.TransitionRecord{}})
	for car, dir := range []string{"T-S", "L-T", "S-L"} {
		s.AbsorbEvent(core.CarEvent{Car: car, Result: synthCar(car, dir, 20, 30, 40)})
	}
	snap := s.Publish()
	dirs := snap.Directions()
	if fmt.Sprint(dirs) != "[L-T S-L T-S]" {
		t.Fatalf("directions = %v", dirs)
	}
	ids := snap.CellIDs()
	for i := 1; i < len(ids); i++ {
		if ids[i-1].I > ids[i].I || (ids[i-1].I == ids[i].I && ids[i-1].J >= ids[i].J) {
			t.Fatalf("cell ids not sorted: %v", ids)
		}
	}
}

// TestFinalSnapshotMatchesBatchUnderFaults repeats the stream-vs-batch
// differential with the runner under fire: one car flaps with
// transient faults (recovered by retries), one car fails permanently.
// The sealed snapshot must still be value-identical to a batch
// aggregation of the partial Result — failed cars appear only in
// CarsFailed, never as partial aggregate contributions — and the
// invariant checker must stay silent through every epoch.
func TestFinalSnapshotMatchesBatchUnderFaults(t *testing.T) {
	var mu sync.Mutex
	flaps := 0
	p, err := core.NewPipeline(core.Config{
		CitySeed: 42,
		Fleet: tracegen.Config{
			Seed: 42, Cars: 4, TripsPerCar: 30, GateRunFraction: 0.3,
		},
		MaxAttempts: 3,
		Check:       check.Config{Strict: true},
		Faults: runner.FaultFunc(func(car int, stage string) error {
			switch {
			case car == 2 && stage == "mapmatch":
				mu.Lock()
				defer mu.Unlock()
				if flaps < 2 {
					flaps++
					return runner.Transient(fmt.Errorf("injected flap %d", flaps))
				}
				return nil
			case car == 3 && stage == "segment":
				return fmt.Errorf("injected permanent failure")
			}
			return nil
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := GridForPipeline(p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Grid: g, PublishEvery: 1,
		Gates: p.Selector.GateNames(), Check: check.Config{Strict: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.RunObserved(context.Background(), s.AbsorbEvent)
	if err == nil {
		t.Fatal("permanent fault did not surface in the run error")
	}
	snap := s.Seal()
	if cerr := s.CheckErr(); cerr != nil {
		t.Fatalf("sink invariant checker tripped on a clean stream: %v", cerr)
	}

	if len(res.Cars) != 3 {
		t.Fatalf("partial result has %d cars, want 3 (car 3 failed)", len(res.Cars))
	}
	for _, cr := range res.Cars {
		if cr.Car == 3 {
			t.Fatal("failed car 3 leaked into the partial result")
		}
	}
	if snap.CarsIngested != 3 || snap.CarsFailed != 1 {
		t.Fatalf("ingested/failed = %d/%d, want 3/1", snap.CarsIngested, snap.CarsFailed)
	}
	if flaps != 2 {
		t.Fatalf("transient injector fired %d times, want 2", flaps)
	}

	recs := res.Transitions()
	if len(recs) == 0 {
		t.Fatal("no transitions survived; widen the config")
	}

	// Batch-style reference from the partial Result.
	ref := grid.NewAggregator(g)
	points := 0
	for _, rec := range recs {
		for _, sp := range core.TransitionSpeedPoints(rec) {
			if ref.Add(sp.Pos, sp.SpeedKmh) {
				points++
			}
		}
	}
	if snap.Points != points {
		t.Fatalf("points = %d, want %d", snap.Points, points)
	}
	if len(snap.Cells) != ref.NumNonEmpty() {
		t.Fatalf("cells = %d, want %d", len(snap.Cells), ref.NumNonEmpty())
	}
	for _, rc := range ref.Cells() {
		sc, ok := snap.Cells[rc.ID]
		if !ok {
			t.Fatalf("cell %v missing from snapshot", rc.ID)
		}
		if sc.N != rc.Speed.N() || !feq(sc.MeanKmh, rc.Speed.Mean()) {
			t.Fatalf("cell %v: n/mean %d/%g, want %d/%g",
				rc.ID, sc.N, sc.MeanKmh, rc.Speed.N(), rc.Speed.Mean())
		}
	}

	type refOD struct {
		trips  int
		travel *obs.Histogram
	}
	refs := map[ODKey]*refOD{}
	for _, rec := range recs {
		dir := ODKey{From: rec.Transition.From, To: rec.Transition.To}
		r := refs[dir]
		if r == nil {
			r = &refOD{travel: &obs.Histogram{}}
			refs[dir] = r
		}
		r.trips++
		r.travel.Observe(rec.RouteTimeH * 3600)
	}
	if len(snap.OD) != len(refs) {
		t.Fatalf("directions = %v, want %d", snap.Directions(), len(refs))
	}
	for dir, r := range refs {
		od, ok := snap.OD[dir]
		if !ok {
			t.Fatalf("direction %s missing", dir)
		}
		if od.Trips != r.trips || !od.TravelTimeS.Equal(r.travel.Freeze()) {
			t.Fatalf("%s: stream OD differs from batch (trips %d want %d)",
				dir, od.Trips, r.trips)
		}
	}
}
