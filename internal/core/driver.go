package core

import (
	"context"
	"fmt"
	"io"
	"runtime/pprof"
	"slices"

	"repro/internal/clean"
	"repro/internal/mapattr"
	"repro/internal/mapmatch"
	"repro/internal/obs"
	"repro/internal/odselect"
	"repro/internal/runner"
	"repro/internal/segment"
	"repro/internal/trace"
	"repro/internal/weather"
)

// The stage driver: the one implementation of the per-trip stage
// sequence clean → segment → odselect → mapmatch → mapattr. It runs
// on struct-of-arrays columns: batch input trips are copied (or
// binary-decoded) into a pooled per-car arena once, a streamed trip
// arrives as a view of columns its caller gathered it into, the
// cleaning kernel appends realigned trips to the arena, segmentation
// yields zero-copy subviews, and OD selection classifies those views
// in place. Only the accepted segments are materialised back into
// rows, for map matching and the transition records, which speak
// rows. The batch entries also copy every kept segment out into
// CarResult.Segments once the driver returns, for Result.Segments.
//
// Batch is a bounded stream: the batch entries (ProcessContext,
// ProcessBinaryContext) drive a whole car inside the per-car envelope
// and commit it into the pipeline's ledger; the streaming entry
// (ProcessTrip) drives one closed trip with neither, and its caller
// commits the trip into a ledger of its own.

// carScratch is the per-car reusable state. One scratch is checked out
// of the pipeline pool per entry call, so steady-state processing
// allocates only for the data that escapes (the accepted segments'
// rows and, in the batch entries, CarResult.Segments).
type carScratch struct {
	arena    *trace.Arena
	clean    clean.Scratch
	breader  trace.BinaryReader // reused by ProcessBinaryContext
	views    []trace.ColTrip    // raw trip views
	cleaned  []trace.ColTrip    // cleaned trip views
	segments []trace.ColTrip    // kept segment views
}

func (p *Pipeline) getScratch() *carScratch {
	if sc, ok := p.scratches.Get().(*carScratch); ok {
		return sc
	}
	return &carScratch{arena: trace.NewArena(0)}
}

func (p *Pipeline) putScratch(sc *carScratch) {
	sc.arena.Reset()
	clear(sc.views) // a streamed view points into its caller's columns
	sc.views = sc.views[:0]
	sc.cleaned = sc.cleaned[:0]
	sc.segments = sc.segments[:0]
	p.scratches.Put(sc)
}

// stage is one open stage boundary. openStage and close are the only
// places a stage meets the fault injector, its duration span, its
// trace span and pprof label, and the strict-mode fault path.
type stage struct {
	id    stageID
	timer obs.Span
	trace obs.TraceSpan
}

// openStage opens stage id for car: it honours cancellation, gives the
// fault injector its shot (an injected error fails the car, attributed
// to the stage), starts the stage's duration span and, for a traced
// car, opens the stage's child span under the ctx span and applies its
// {stage=<name>} pprof label. Every opened stage is closed once.
func (p *Pipeline) openStage(ctx context.Context, car int, id stageID) (stage, error) {
	if err := ctx.Err(); err != nil {
		return stage{}, err
	}
	name := StageNames[id]
	if err := runner.Inject(p.Config.Faults, car, name); err != nil {
		return stage{}, &runner.StageError{Stage: name, Err: err}
	}
	st := stage{id: id, timer: p.met.stages[id].Start()}
	if root := obs.SpanFromContext(ctx); root.Active() {
		pprof.SetGoroutineLabels(stageLabels[id])
		st.trace = root.Child(name)
	}
	return st, nil
}

// close ends the stage's trace span (with attrs), pprof label and
// duration span, then passes the stage's invariant check through the
// strict-mode fault path: a violation (non-nil only from a strict
// checker) fails the car like an injected fault — attributed to the
// stage, and permanent, since re-running the car breaks the same
// invariant.
func (s stage) close(violation error, attrs ...obs.TraceAttr) error {
	if s.trace.Active() {
		s.trace.End(attrs...)
		pprof.SetGoroutineLabels(context.Background())
	}
	s.timer.End()
	if violation != nil {
		return &runner.StageError{Stage: StageNames[s.id], Err: violation}
	}
	return nil
}

// ProcessContext runs the cleaning → segmentation → selection →
// matching → attribute stages over one car's raw trips (however they
// were obtained) under ctx, and commits the car into the pipeline's
// ledger when every stage succeeded. Cancellation is honoured at every
// stage boundary, so between transitions too; on error the partial
// CarResult built so far is returned alongside it.
//
// A trip the columnar arena cannot represent (trace.ErrUnrepresentable:
// a point id outside int32, a time outside the nanosecond window or
// not in UTC, a point of another trip) fails the car at stage
// simulate, permanently. With the checker on, its input rules run on
// the rows first.
func (p *Pipeline) ProcessContext(ctx context.Context, car int, raw []*trace.Trip) (CarResult, error) {
	ctx, root := p.ensureCarTrace(ctx, car)
	sc := p.getScratch()
	defer p.putScratch(sc)
	cr, err := p.processCar(ctx, car, len(raw), sc, func() error { return p.loadRows(car, raw, sc) })
	endCarTrace(ctx, root, err)
	return cr, err
}

// ProcessBinaryContext is ProcessContext for one car's binary trace
// stream: records are decoded straight into the pooled arena, skipping
// the row materialisation ReadBinary would do. Every record in r must
// belong to car. Results are byte-identical to ReadBinary +
// ProcessContext (the format differential asserts this).
func (p *Pipeline) ProcessBinaryContext(ctx context.Context, car int, r io.Reader) (CarResult, error) {
	ctx, root := p.ensureCarTrace(ctx, car)
	sc := p.getScratch()
	defer p.putScratch(sc)
	cr := CarResult{Car: car}
	err := p.decodeBinary(car, r, sc)
	if err == nil {
		cr, err = p.processCar(ctx, car, len(sc.views), sc, func() error { return p.checkViews(car, sc.views) })
	}
	endCarTrace(ctx, root, err)
	return cr, err
}

// ProcessTrip drives one trip through the stages — the streaming
// entry, which internal/ingest calls once per trip its watermark
// closes, with a view of columns it gathered the trip into. The stages
// read the view in place and never write it, and the result refers to
// none of its rows, so the caller may reuse the columns once
// ProcessTrip returns. It has the batch entries' input boundary but
// none of their per-car envelope (no pipeline_car span, no car root
// span) and commits nothing: the caller commits the returned stats
// into its own ledger with Ledger.Commit. Its only rows are the
// accepted segments its transitions hold: CarResult.Segments stays
// nil. On error the CarResult holds what the stages produced before
// failing.
func (p *Pipeline) ProcessTrip(ctx context.Context, trip trace.ColTrip) (CarResult, error) {
	sc := p.getScratch()
	defer p.putScratch(sc)
	cr := CarResult{Car: trip.CarID, RawTrips: 1}
	sc.views = append(sc.views, trip)
	err := p.checkViews(trip.CarID, sc.views)
	if err == nil {
		err = p.drive(ctx, trip.CarID, sc, &cr)
	}
	return cr, err
}

// processCar is the batch entries' per-car envelope around the driver:
// the pipeline_car span and counter, the input boundary (load), and
// the car's single commit, made only when every stage succeeded.
func (p *Pipeline) processCar(ctx context.Context, car, rawTrips int, sc *carScratch, load func() error) (CarResult, error) {
	span := p.met.car.Start()
	defer func() {
		span.End()
		p.met.cars.Inc()
	}()
	cr := CarResult{Car: car, RawTrips: rawTrips}
	err := load()
	if err == nil {
		err = p.drive(ctx, car, sc, &cr)
	}
	// Result.Segments reads the kept segments as rows.
	cr.Segments = trace.MaterializeAll(sc.segments, true)
	if err == nil {
		p.commitCar(&cr)
	}
	return cr, err
}

// checkInput runs the checker's input rules (the simulate stage's
// boundary) on raw rows.
func (p *Pipeline) checkInput(car int, raw []*trace.Trip) error {
	if err := p.checker.RawTrips(car, raw); err != nil {
		return &runner.StageError{Stage: "simulate", Err: err}
	}
	return nil
}

// checkViews is checkInput for raw views: the validator speaks rows,
// so they are materialised only when the checker is on.
func (p *Pipeline) checkViews(car int, views []trace.ColTrip) error {
	if p.checker == nil {
		return nil
	}
	return p.checkInput(car, trace.MaterializeAll(views, false))
}

// loadRows is ProcessContext's input boundary: the checker's input
// rules, then one arena copy per trip. A trip the arena refuses
// fails the car at stage simulate; the error wraps
// trace.ErrUnrepresentable and is permanent.
func (p *Pipeline) loadRows(car int, raw []*trace.Trip, sc *carScratch) error {
	if err := p.checkInput(car, raw); err != nil {
		return err
	}
	for _, t := range raw {
		v, err := sc.arena.AppendTrip(t)
		if err != nil {
			return &runner.StageError{Stage: "simulate", Err: err}
		}
		sc.views = append(sc.views, v)
	}
	return nil
}

// decodeBinary streams car's binary trace records into sc's arena.
func (p *Pipeline) decodeBinary(car int, r io.Reader, sc *carScratch) error {
	if err := sc.breader.Reset(r, p.City.DB.Proj); err != nil {
		return err
	}
	for {
		v, err := sc.breader.Next(sc.arena)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if v.CarID != car {
			return fmt.Errorf("core: record for car %d in car %d's binary stream", v.CarID, car)
		}
		sc.views = append(sc.views, v)
	}
	// Records arrive in file order; ReadBinary sorts by (car, trip id),
	// so sort the single-car views the same way before processing.
	slices.SortStableFunc(sc.views, func(a, b trace.ColTrip) int {
		switch {
		case a.ID < b.ID:
			return -1
		case a.ID > b.ID:
			return 1
		default:
			return 0
		}
	})
	return nil
}

// drive runs the stages over sc.views, accumulating into cr. Each
// boundary is one openStage and one close: per car for clean, segment
// and odselect, per transition for mapmatch and mapattr.
func (p *Pipeline) drive(ctx context.Context, car int, sc *carScratch, cr *CarResult) error {
	// Cleaning (§IV-B). Every view yields accounting — a trip whose
	// points were all dropped still contributes its drop counts.
	st, err := p.openStage(ctx, car, stageClean)
	if err != nil {
		return err
	}
	cs := &cr.CleanStats
	for _, v := range sc.views {
		cs.RawPoints += v.Len()
		r := clean.RepairColumns(v, p.Config.Clean, sc.arena, &sc.clean)
		if r.Trip.N == 0 {
			cs.EmptyTrips++
		} else {
			sc.cleaned = append(sc.cleaned, r.Trip)
			cs.Trips++
			cs.KeptPoints += r.Trip.N
		}
		if r.Reordered {
			cs.Reordered++
		}
		if r.ChosenOrder == clean.OrderByTime {
			cs.ChoseTime++
		}
		cs.DroppedPoints += r.Dropped
		cs.Drops.Merge(r.Drops)
	}
	if err := st.close(p.checkCleaned(car, sc.cleaned),
		obs.TAttr("trips", itoa(cs.Trips)), obs.TAttr("dropped_points", itoa(cs.DroppedPoints))); err != nil {
		return err
	}

	// Segmentation (Table 2) as zero-copy views.
	if st, err = p.openStage(ctx, car, stageSegment); err != nil {
		return err
	}
	for _, v := range sc.cleaned {
		sc.segments = segment.SplitColumns(v, p.Rules, &cr.SegStats, sc.segments)
	}
	if err := st.close(p.checkSegments(car, sc.segments),
		obs.TAttr("kept", itoa(cr.SegStats.KeptSegments))); err != nil {
		return err
	}

	// OD selection (Table 3) over the segment views; each accepted
	// transition holds its segment as rows, which the CarResult owns.
	if st, err = p.openStage(ctx, car, stageODSelect); err != nil {
		return err
	}
	funnel, accepted := p.Selector.RunViews(car, sc.segments)
	cr.Funnel = funnel
	if err := st.close(p.checkTransitions(car, accepted), obs.TAttr("accepted", itoa(funnel.PostFiltered))); err != nil {
		return err
	}

	for _, tr := range accepted {
		if err := p.matchTransition(ctx, car, tr, cr); err != nil {
			return err
		}
	}
	return nil
}

// matchTransition map-matches one accepted transition, fetches its
// route attributes and derives the Table 4 metrics into cr. A
// transition that cannot be matched (ErrDegenerateSpan, or no route)
// is dropped from the analysis but stays in the funnel count,
// mirroring the paper's "only cleared and filtered transitions ... are
// map-matched"; the reason feeds the mapmatch lineage row.
func (p *Pipeline) matchTransition(ctx context.Context, car int, tr *odselect.Transition, cr *CarResult) error {
	span := tr.Span()
	if len(span) < 2 {
		cr.MatchStats.Degenerate++
		return nil
	}
	st, err := p.openStage(ctx, car, stageMapmatch)
	if err != nil {
		return err
	}
	match, err := p.Matcher.Match(span)
	if err != nil {
		cr.MatchStats.Unroutable++
		return st.close(nil)
	}
	if err := st.close(p.checker.MatchedRoute(car, match.Route, match.MatchedFraction)); err != nil {
		return err
	}

	if st, err = p.openStage(ctx, car, stageMapattr); err != nil {
		return err
	}
	attrs := p.Fetcher.ForMatch(match)
	if err := st.close(p.checker.RouteAttrs(car,
		attrs.TrafficLights, attrs.BusStops, attrs.PedestrianCrossings, attrs.Junctions)); err != nil {
		return err
	}
	cr.MatchStats.Matched++
	cr.Transitions = append(cr.Transitions, p.transitionRecord(car, tr, span, match, attrs))
	return nil
}

// transitionRecord derives the Table 4 metrics of one matched
// transition over its origin→destination span.
func (p *Pipeline) transitionRecord(car int, tr *odselect.Transition, span []trace.RoutePoint,
	match *mapmatch.Result, attrs mapattr.RouteAttributes) *TransitionRecord {
	first, last := span[0], span[len(span)-1]
	rec := &TransitionRecord{
		Car:         car,
		Transition:  tr,
		Match:       match,
		Attrs:       attrs,
		Season:      weather.SeasonOf(first.Time),
		TempClass:   p.Weather.ClassAt(first.Time),
		RouteTimeH:  last.Time.Sub(first.Time).Hours(),
		RouteDistKm: match.Geometry.Length() / 1000,
		FuelMl:      last.FuelMl - first.FuelMl,
	}

	// Low/normal speed shares are time-weighted: each point's speed
	// holds until the next point, so standing at a red light counts by
	// its duration, not by how many records the device emitted.
	var low, normal, total float64
	for i := 0; i < len(span)-1; i++ {
		dt := span[i+1].Time.Sub(span[i].Time).Seconds()
		if dt <= 0 {
			continue
		}
		total += dt
		if span[i].SpeedKmh < LowSpeedKmh {
			low += dt
		}
		if limit, ok := p.limitAtMatch(match, i); ok && span[i].SpeedKmh >= limit-NormalSpeedToleranceKmh {
			normal += dt
		}
	}
	if total > 0 {
		rec.LowSpeedPct = 100 * low / total
		rec.NormalSpeedPct = 100 * normal / total
	}
	return rec
}

// limitAtMatch returns the speed limit at the matched edge of span
// point i.
func (p *Pipeline) limitAtMatch(match *mapmatch.Result, i int) (float64, bool) {
	if i >= len(match.Points) || match.Points[i].Skipped {
		return 0, false
	}
	return p.Graph.Edges[match.Points[i].Edge].SpeedLimitKmh, true
}

// checkCleaned validates the cleaned views; the validator speaks rows,
// so they are materialised only when checking.
func (p *Pipeline) checkCleaned(car int, cleaned []trace.ColTrip) error {
	if p.checker == nil {
		return nil
	}
	return p.checker.CleanedTrips(car, trace.MaterializeAll(cleaned, true))
}

// checkSegments validates the kept segment views, materialising them
// only when checking, as checkCleaned does.
func (p *Pipeline) checkSegments(car int, segs []trace.ColTrip) error {
	if p.checker == nil {
		return nil
	}
	return p.checker.Segments(car, trace.MaterializeAll(segs, true), segmentCheckRules(p.Rules))
}
