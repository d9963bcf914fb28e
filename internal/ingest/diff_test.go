package ingest

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/sink"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

// feq compares floats to within accumulation-order rounding (the two
// arms fold transitions into Welford accumulators in different
// orders).
func feq(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// diffFixture builds the shared differential scenario: one pipeline, a
// 32-car simulated fleet flattened to a point firehose, and the
// canonical per-car trips REBUILT from those points — so the batch arm
// and the streaming arm process bit-identical float64 inputs (the
// WGS84 round trip through the wire schema happens exactly once, in
// the shared fixture).
type diffFixture struct {
	p     *core.Pipeline
	pts   []Point
	byCar map[int][]*trace.Trip // canonical trips, rebuilt from pts
	cars  []int
}

func newDiffFixture(t *testing.T) *diffFixture {
	t.Helper()
	return newLedgerDiffFixture(t, nil, nil)
}

// newLedgerDiffFixture is newDiffFixture over a pipeline whose batch
// runs commit into reg and lin.
func newLedgerDiffFixture(t *testing.T, reg *obs.Registry, lin *obs.Lineage) *diffFixture {
	t.Helper()
	p, err := core.NewPipeline(core.Config{
		CitySeed: 42,
		Fleet: tracegen.Config{
			Seed: 42, Cars: 32, TripsPerCar: 3, GateRunFraction: 0.4,
		},
		Metrics: reg,
		Lineage: lin,
	})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := tracegen.New(p.City, p.Graph, tracegen.Config{
		Seed: 42, Cars: 32, TripsPerCar: 3, GateRunFraction: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	raw := map[int][]*trace.Trip{}
	for _, tr := range gen.Fleet() {
		raw[tr.CarID] = append(raw[tr.CarID], tr)
	}
	pts := FleetPoints(raw, p.City.DB.Proj)
	if len(pts) == 0 {
		t.Fatal("fleet produced no points")
	}

	// Canonical trips: group the wire points back into per-car trips
	// (order within a trip follows the event-time sort; cleaning's
	// Repair is insensitive to that permutation since ids and
	// timestamps are unique).
	byCar := map[int][]*trace.Trip{}
	bufs := map[int]map[int64]*trace.Trip{}
	for _, pt := range pts {
		carBufs := bufs[pt.Car]
		if carBufs == nil {
			carBufs = map[int64]*trace.Trip{}
			bufs[pt.Car] = carBufs
		}
		tr := carBufs[pt.Trip]
		if tr == nil {
			tr = &trace.Trip{ID: pt.Trip, CarID: pt.Car}
			carBufs[pt.Trip] = tr
			byCar[pt.Car] = append(byCar[pt.Car], tr)
		}
		tr.Points = append(tr.Points, pt.RoutePoint(p.City.DB.Proj))
	}
	var cars []int
	for car := range byCar {
		cars = append(cars, car)
		sort.Slice(byCar[car], func(i, j int) bool { return byCar[car][i].ID < byCar[car][j].ID })
	}
	sort.Ints(cars)
	if len(cars) < 32 {
		t.Fatalf("fixture has %d cars, want 32", len(cars))
	}
	return &diffFixture{p: p, pts: pts, byCar: byCar, cars: cars}
}

func newDiffSink(t *testing.T, p *core.Pipeline) *sink.Sink {
	t.Helper()
	g, err := sink.GridForPipeline(p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sink.New(sink.Config{
		Grid: g, PublishEvery: 1, Gates: p.Selector.GateNames(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// batchSnapshot runs the canonical trips through the batch pipeline
// and seals a reference snapshot.
func (fx *diffFixture) batchSnapshot(t *testing.T) *sink.Snapshot {
	t.Helper()
	s := newDiffSink(t, fx.p)
	var res core.Result
	for _, car := range fx.cars {
		cr, err := fx.p.ProcessContext(context.Background(), car, fx.byCar[car])
		if err != nil {
			t.Fatalf("batch car %d: %v", car, err)
		}
		res.Cars = append(res.Cars, cr)
	}
	s.AbsorbResult(&res)
	return s.Seal()
}

// compareSnapshots asserts value-identity: integer counts exactly,
// floating moments to within accumulation-order rounding.
func compareSnapshots(t *testing.T, got, want *sink.Snapshot) {
	t.Helper()
	if !got.Complete {
		t.Fatal("streamed snapshot not sealed")
	}
	if got.CarsIngested != want.CarsIngested || got.CarsFailed != want.CarsFailed {
		t.Fatalf("cars = %d/%d, want %d/%d",
			got.CarsIngested, got.CarsFailed, want.CarsIngested, want.CarsFailed)
	}
	if got.Points != want.Points {
		t.Fatalf("points = %d, want %d", got.Points, want.Points)
	}
	if len(got.Cells) != len(want.Cells) {
		t.Fatalf("cells = %d, want %d", len(got.Cells), len(want.Cells))
	}
	for id, wc := range want.Cells {
		gc, ok := got.Cells[id]
		if !ok {
			t.Fatalf("cell %v missing from streamed snapshot", id)
		}
		if gc.N != wc.N {
			t.Fatalf("cell %v: n=%d want %d", id, gc.N, wc.N)
		}
		if !feq(gc.MeanKmh, wc.MeanKmh) || !feq(gc.VarKmh, wc.VarKmh) {
			t.Fatalf("cell %v: mean/var %g/%g want %g/%g", id, gc.MeanKmh, gc.VarKmh, wc.MeanKmh, wc.VarKmh)
		}
		if gc.MinKmh != wc.MinKmh || gc.MaxKmh != wc.MaxKmh {
			t.Fatalf("cell %v: extrema %g/%g want %g/%g", id, gc.MinKmh, gc.MaxKmh, wc.MinKmh, wc.MaxKmh)
		}
	}
	if len(got.OD) != len(want.OD) {
		t.Fatalf("directions = %v, want %v", got.Directions(), want.Directions())
	}
	for dir, wo := range want.OD {
		go_, ok := got.OD[dir]
		if !ok {
			t.Fatalf("direction %s missing from streamed snapshot", dir)
		}
		if go_.Trips != wo.Trips || go_.Attrs != wo.Attrs {
			t.Fatalf("%s: trips %d attrs %+v, want %d %+v", dir, go_.Trips, go_.Attrs, wo.Trips, wo.Attrs)
		}
		if !go_.TravelTimeS.Equal(wo.TravelTimeS) {
			t.Fatalf("%s: travel-time histogram differs from batch", dir)
		}
		for _, m := range []struct {
			name      string
			got, want sink.MetricStats
		}{
			{"dist", go_.DistKm, wo.DistKm},
			{"fuel", go_.FuelMl, wo.FuelMl},
			{"low", go_.LowSpeedPct, wo.LowSpeedPct},
			{"normal", go_.NormalSpeedPct, wo.NormalSpeedPct},
		} {
			if m.got.N != m.want.N || !feq(m.got.Mean, m.want.Mean) ||
				m.got.Min != m.want.Min || m.got.Max != m.want.Max {
				t.Fatalf("%s %s: %+v, want %+v", dir, m.name, m.got, m.want)
			}
		}
	}
	if len(got.EdgeProfiles) != len(want.EdgeProfiles) {
		t.Fatalf("edge profiles = %d, want %d", len(got.EdgeProfiles), len(want.EdgeProfiles))
	}
	for key, wp := range want.EdgeProfiles {
		gp, ok := got.EdgeProfiles[key]
		if !ok {
			t.Fatalf("edge profile %+v missing from streamed snapshot", key)
		}
		if gp.N != wp.N || gp.MinSPerKm != wp.MinSPerKm || gp.MaxSPerKm != wp.MaxSPerKm ||
			!feq(gp.MeanSPerKm, wp.MeanSPerKm) || !feq(gp.VarSPerKm, wp.VarSPerKm) {
			t.Fatalf("edge profile %+v: %+v, want %+v", key, gp, wp)
		}
	}
}

// streamSnapshot replays pts point by point through an engine that
// reports to reg (may be nil) and returns the sealed snapshot plus the
// engine and its ledger, which mirrors into reg.
func (fx *diffFixture) streamSnapshot(t *testing.T, pts []Point, reg *obs.Registry) (*sink.Snapshot, *Engine, *obs.Lineage) {
	t.Helper()
	s := newDiffSink(t, fx.p)
	lin := obs.NewLineage(reg)
	e, err := New(Config{
		Pipeline:        fx.p,
		Sink:            s,
		AllowedLateness: 30 * time.Second,
		IdleTimeout:     5 * time.Minute,
		WatermarkEvery:  64,
		Metrics:         reg,
		Lineage:         lin,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range pts {
		e.Push(pt)
	}
	e.Close()
	return s.Snapshot(), e, lin
}

// TestStreamedSnapshotMatchesBatch is the streaming acceptance gate:
// replaying a 32-car fleet point by point, in event-time order, must
// seal a snapshot value-identical to the batch pipeline over the same
// inputs — and the ledger must conserve at every stage and across the
// ingest → clean handoff.
func TestStreamedSnapshotMatchesBatch(t *testing.T) {
	fx := newDiffFixture(t)
	want := fx.batchSnapshot(t)
	got, e, lin := fx.streamSnapshot(t, fx.pts, nil)

	compareSnapshots(t, got, want)

	st := e.Stats()
	if st.Received != uint64(len(fx.pts)) || st.Admitted != st.Received {
		t.Fatalf("stats = %+v: an in-order replay must admit every point", st)
	}
	if st.OpenTrips != 0 || st.BufferedPoints != 0 {
		t.Fatalf("stats = %+v: Close must drain every buffer", st)
	}
	checkLineage(t, lin, st)
	comparePredictions(t, fx.p, got, want)
}

// comparePredictions is the serving-layer differential: the streamed
// and batch snapshots must answer /v1/predict identically for every
// observed gate pair, and identically primed anomaly detectors must
// agree that neither snapshot deviates from the other.
func comparePredictions(t *testing.T, p *core.Pipeline, got, want *sink.Snapshot) {
	t.Helper()
	pr := predict.NewPredictor(p.Graph, p.Router)
	mid := func(pl geo.Polyline) geo.XY { return pl[len(pl)/2] }
	gates := map[string]geo.XY{
		"T": mid(p.City.GateT), "S": mid(p.City.GateS), "L": mid(p.City.GateL),
	}
	for dir := range want.OD {
		for _, hour := range []int{-1, 12} {
			g, gerr := pr.Predict(got, gates[dir.From], gates[dir.To], hour)
			w, werr := pr.Predict(want, gates[dir.From], gates[dir.To], hour)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("predict %s-%s h=%d: errors diverge: %v vs %v", dir.From, dir.To, hour, gerr, werr)
			}
			if gerr != nil {
				continue
			}
			if g.Edges != w.Edges || g.ObservedEdges != w.ObservedEdges ||
				!feq(g.TravelS, w.TravelS) || !feq(g.GlobalRatio, w.GlobalRatio) {
				t.Fatalf("predict %s-%s h=%d: got %+v want %+v", dir.From, dir.To, hour, g, w)
			}
		}
	}
	det := predict.NewAnomalyDetector(predict.AnomalyConfig{})
	for i := 0; i < 3; i++ {
		det.Observe(want)
	}
	if rep := det.Report(got); len(rep.Cells) != 0 || len(rep.ODs) != 0 {
		t.Fatalf("streamed snapshot anomalous against its batch twin: %+v", rep)
	}
}

// TestStreamedSnapshotMatchesBatchShuffled repeats the differential
// with bounded out-of-orderness: the firehose is permuted within
// fixed-size windows whose event-time span stays under the allowed
// lateness, so no point may be dropped and the sealed snapshot must
// still match batch exactly.
func TestStreamedSnapshotMatchesBatchShuffled(t *testing.T) {
	fx := newDiffFixture(t)
	want := fx.batchSnapshot(t)

	shuffled := append([]Point(nil), fx.pts...)
	span := ShuffleWindows(shuffled, 32, 20_000, 7)
	if span <= 0 {
		t.Fatal("shuffle produced no disorder; enlarge the window")
	}
	if span >= (30 * time.Second).Milliseconds() {
		t.Fatalf("in-window span %dms exceeds the allowed lateness; shrink the window", span)
	}

	got, e, lin := fx.streamSnapshot(t, shuffled, nil)
	compareSnapshots(t, got, want)

	st := e.Stats()
	if st.Admitted != st.Received {
		t.Fatalf("stats = %+v: disorder below the lateness bound must not drop points", st)
	}
	checkLineage(t, lin, st)
}

// checkLineage asserts per-stage conservation and the cross-stage
// handoff invariant: after Close, every admitted point entered the
// cleaning stage.
func checkLineage(t *testing.T, lin *obs.Lineage, st Stats) {
	t.Helper()
	if err := lin.Check(); err != nil {
		t.Fatalf("lineage conservation violated: %v", err)
	}
	snap := lin.Snapshot(0)
	stages := map[string]obs.StageSnapshot{}
	for _, s := range snap.Stages {
		stages[s.Stage] = s
	}
	if in := stages["ingest"].In; in != st.Received {
		t.Fatalf("ingest.in = %d, want %d received", in, st.Received)
	}
	if out := stages["ingest"].Out; out != st.Admitted {
		t.Fatalf("ingest.out = %d, want %d admitted", out, st.Admitted)
	}
	if stages["ingest"].Out != stages["clean"].In {
		t.Fatalf("handoff broken: ingest.out = %d but clean.in = %d",
			stages["ingest"].Out, stages["clean"].In)
	}
}

// TestStreamedLedgerMatchesBatch pins the single stats → counts
// commit: replaying the differential fleet, ordered and shuffled, fills
// the engine's clean, segment, odselect and mapmatch rows — in, out and
// every drop reason — exactly as a batch run over the same trips fills
// the pipeline's own ledger. The two registries must then carry the
// same stage count series, value for value: the lineage_* series of
// those rows and the stage counters the ledger commits beside them.
// The engine drives that same pipeline, so the per-trip entry
// committing into the pipeline's ledger or registry as well would show
// up as doubled batch counts.
//
// The shuffled replay differs from batch only in
// pipeline_clean_reordered, which counts trips whose arrival order
// needed repair and so reads the arrival order by definition. The
// cleaner's ordering decision, pipeline_clean_chose_time, must match:
// its timestamp sort breaks ties by point id, so a repeated timestamp
// (car 13's trip 13000001 has one) orders the same however its points
// arrive. The ordered replay matches batch in every series.
func TestStreamedLedgerMatchesBatch(t *testing.T) {
	batchReg := obs.NewRegistry()
	batchLin := obs.NewLineage(batchReg)
	fx := newLedgerDiffFixture(t, batchReg, batchLin)
	for _, car := range fx.cars {
		if _, err := fx.p.ProcessContext(context.Background(), car, fx.byCar[car]); err != nil {
			t.Fatalf("batch car %d: %v", car, err)
		}
	}
	want := stageRows(batchLin)
	if len(want) != 4 {
		t.Fatalf("batch ledger rows = %v, want clean, segment, odselect and mapmatch", want)
	}
	wantCounts := stageCounts(batchReg)
	for _, name := range ledgerCounters {
		if _, ok := wantCounts[name]; !ok {
			t.Fatalf("batch registry lacks %s: %v", name, wantCounts)
		}
	}

	shuffled := append([]Point(nil), fx.pts...)
	ShuffleWindows(shuffled, 32, 20_000, 7)
	for name, pts := range map[string][]Point{"ordered": fx.pts, "shuffled": shuffled} {
		reg := obs.NewRegistry()
		_, _, lin := fx.streamSnapshot(t, pts, reg)
		got := stageRows(lin)
		for stage, w := range want {
			if g := got[stage]; !reflect.DeepEqual(g, w) {
				t.Errorf("%s: %s row streamed %+v, batch %+v", name, stage, g, w)
			}
		}
		g, w := stageCounts(reg), maps.Clone(wantCounts)
		if name == "shuffled" {
			for _, c := range arrivalOrderCounters {
				if _, ok := g[c]; !ok {
					t.Errorf("%s: streamed registry lacks %s", name, c)
				}
				delete(g, c)
				delete(w, c)
			}
		}
		for _, d := range countDiffs(g, w) {
			t.Errorf("%s: %s", name, d)
		}
		if again := stageRows(batchLin); !reflect.DeepEqual(again, want) {
			t.Fatalf("%s: the stream committed into the pipeline's ledger: %+v, want %+v", name, again, want)
		}
		if again := stageCounts(batchReg); !reflect.DeepEqual(again, wantCounts) {
			t.Fatalf("%s: the stream committed into the pipeline's registry: %v, want %v", name, again, wantCounts)
		}
	}
}

// stageRows returns the ledger's per-trip stage rows by stage name.
func stageRows(lin *obs.Lineage) map[string]obs.StageSnapshot {
	rows := map[string]obs.StageSnapshot{}
	for _, s := range lin.Snapshot(0).Stages {
		if perTripStage(s.Stage) {
			rows[s.Stage] = s
		}
	}
	return rows
}

// ledgerCounters are the stage counts core.Ledger commits to the
// registry beside the lineage rows.
var ledgerCounters = []string{
	"pipeline_clean_trips", "pipeline_clean_reordered", "pipeline_clean_chose_time",
	"pipeline_segment_input_trips", "pipeline_segment_resplit", "pipeline_segment_stop_points_dropped",
}

// arrivalOrderCounters are the ledger's counters that read a trip's
// arrival order (see TestStreamedLedgerMatchesBatch).
var arrivalOrderCounters = []string{"pipeline_clean_reordered"}

// stageCounts returns the registry's per-trip stage count series: the
// lineage_* series of the per-trip rows and the ledger's counters.
func stageCounts(reg *obs.Registry) map[string]uint64 {
	counts := map[string]uint64{}
	for name, v := range reg.Snapshot().Counters {
		_, label, _ := strings.Cut(name, `{stage="`)
		stage, _, _ := strings.Cut(label, `"`)
		if (strings.HasPrefix(name, "lineage_") && perTripStage(stage)) || slices.Contains(ledgerCounters, name) {
			counts[name] = v
		}
	}
	return counts
}

// countDiffs lists the series whose streamed and batch values differ,
// or that only one side exports.
func countDiffs(streamed, batch map[string]uint64) []string {
	var names []string
	for n := range streamed {
		names = append(names, n)
	}
	for n := range batch {
		if _, ok := streamed[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	var diffs []string
	for _, n := range names {
		s, inS := streamed[n]
		b, inB := batch[n]
		if s != b || inS != inB {
			diffs = append(diffs, fmt.Sprintf("%s: streamed %d (exported %v), batch %d (exported %v)", n, s, inS, b, inB))
		}
	}
	return diffs
}

// perTripStage reports whether a lineage row is one the ledger commits
// per trip (streamed) and per car (batch).
func perTripStage(stage string) bool {
	switch stage {
	case "clean", "segment", "odselect", "mapmatch":
		return true
	}
	return false
}

// TestFlushIsSequentialFold: a flush round analyses its trips on up
// to GOMAXPROCS workers but folds them into the ledger and the sink in
// the order advanceLocked returned them, so every published snapshot
// is bit-identical to a serial ProcessTrip + AbsorbTransitions over
// the same trips in that order, and the ledger rows are equal. The
// rounds close many trips each: the shuffled fixture advances every
// 2,048 points, and an engine that never advanced flushes all of its
// trips in the close round.
func TestFlushIsSequentialFold(t *testing.T) {
	fx := newDiffFixture(t)
	shuffled := append([]Point(nil), fx.pts...)
	ShuffleWindows(shuffled, 32, 20_000, 7)
	t.Run("every-2048", func(t *testing.T) { fx.checkSequentialFold(t, shuffled, 2048, nil) })
	t.Run("close-only", func(t *testing.T) { fx.checkSequentialFold(t, shuffled, 0, nil) })
}

// TestPoisonedGatherMatchesSerialFold: no analysis result aliases the
// arena its trip was gathered into. Every gathered view is poisoned
// (NaN positions and measurements, sentinel point ids and times) as
// soon as its trip's ProcessTrip returns, before the worker gathers
// its next trip into the same arena and before the round folds; every
// epoch and the ledger rows must still equal the serial fold's.
func TestPoisonedGatherMatchesSerialFold(t *testing.T) {
	fx := newDiffFixture(t)
	shuffled := append([]Point(nil), fx.pts...)
	ShuffleWindows(shuffled, 32, 20_000, 7)
	var poisoned atomic.Int64
	trips := fx.checkSequentialFold(t, shuffled, 2048, func(v trace.ColTrip) {
		for i := v.Off; i < v.Off+v.N; i++ {
			v.Cols.PointIDs[i], v.Cols.TimesNs[i] = math.MinInt32, math.MinInt64
			v.Cols.Xs[i], v.Cols.Ys[i] = math.NaN(), math.NaN()
			v.Cols.Speeds[i], v.Cols.Fuels[i], v.Cols.Dists[i] = math.NaN(), math.NaN(), math.NaN()
		}
		poisoned.Add(1)
	})
	if n := poisoned.Load(); n != int64(trips) {
		t.Fatalf("poisoned %d views, the engine analysed %d trips", n, trips)
	}
}

// checkSequentialFold pushes pts into an engine in batches of every
// points (every <= 0: one batch) and drives its rounds by hand, as
// Advance and Close do, folding each round's closed trips serially
// into a reference sink and ledger before the engine flushes them. The
// reference gathers each trip as the engine does. analysed, if not
// nil, becomes the engine's hook on each view it analysed. It returns
// the number of trips folded.
func (fx *diffFixture) checkSequentialFold(t *testing.T, pts []Point, every int, analysed func(trace.ColTrip)) (trips int) {
	snk, ref := newDiffSink(t, fx.p), newDiffSink(t, fx.p)
	lin, refLin := obs.NewLineage(nil), obs.NewLineage(nil)
	refLedger := core.NewLedger(nil, refLin)
	e, err := New(Config{
		Pipeline:        fx.p,
		Sink:            snk,
		AllowedLateness: 30 * time.Second,
		IdleTimeout:     5 * time.Minute,
		WatermarkEvery:  math.MaxInt, // rounds run only when the test says
		Lineage:         lin,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.analysed = analysed

	var arena trace.Arena
	multi := 0 // rounds that closed more than one trip
	round := func(closing bool) {
		e.stepMu.Lock()
		defer e.stepMu.Unlock()
		e.mu.Lock()
		e.closing = closing
		closed := e.advanceLocked()
		e.mu.Unlock()
		if len(closed) == 0 {
			return
		}
		if len(closed) > 1 {
			multi++
		}
		trips += len(closed)
		absorbed := false
		for _, ct := range closed {
			// A failed trip folds what the stages produced, as in flush.
			arena.Reset()
			cr, _ := fx.p.ProcessTrip(context.Background(), ct.tb.gather(&arena, ct.car))
			refLedger.Commit(&cr)
			if len(cr.Transitions) > 0 {
				ref.AbsorbTransitions(ct.car, cr.Transitions)
				absorbed = true
			}
		}
		if absorbed {
			ref.Publish()
		}
		e.flush(closed, nil)
		sameSnapshotBits(t, snk.Snapshot(), ref.Snapshot())
	}
	if every <= 0 {
		every = len(pts)
	}
	for i := 0; i < len(pts); i += every {
		e.PushBatch(pts[i:min(i+every, len(pts))])
		if every < len(pts) {
			round(false)
		}
	}
	round(true)
	if multi == 0 {
		t.Fatal("no round closed more than one trip")
	}

	e.Close() // nothing left to flush: completes every car and seals
	for _, car := range fx.cars {
		ref.CarComplete(car)
	}
	ref.Seal()
	sameSnapshotBits(t, snk.Snapshot(), ref.Snapshot())
	if got, want := stageRows(lin), stageRows(refLin); !reflect.DeepEqual(got, want) {
		t.Fatalf("ledger rows %+v, serial fold %+v", got, want)
	}
	return trips
}

// sameSnapshotBits fails unless got and want, publish wall times
// aside, have the same TAXISNPB encoding, which writes every float as
// its math.Float64bits pattern: equal bytes are bit-identical
// statistics.
func sameSnapshotBits(t *testing.T, got, want *sink.Snapshot) {
	t.Helper()
	encode := func(s *sink.Snapshot) []byte {
		c := *s
		c.PublishedAt = time.Time{}
		return sink.EncodeSnapshot(&c)
	}
	g, w := encode(got), encode(want)
	if !bytes.Equal(g, w) {
		at := 0
		for at < min(len(g), len(w)) && g[at] == w[at] {
			at++
		}
		t.Fatalf("epoch %d (sealed %v) differs from the serial fold's epoch %d at byte %d of %d",
			got.Epoch, got.Complete, want.Epoch, at, len(w))
	}
}
