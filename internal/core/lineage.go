package core

import (
	"context"
	"errors"
	"log/slog"

	"repro/internal/obs"
)

// Lineage glue: the drop-reason ledger. Stage code never touches a
// ledger directly — the driver accumulates in/out/drop counts into a
// CarResult, and Ledger.Commit folds them into a ledger exactly once.
// The batch entries commit a car on its final successful attempt (via
// commitCar), so a failed attempt commits nothing and retries cannot
// double-count; internal/ingest commits each flushed trip into its own
// ledger. The conservation invariant (in = out + Σ dropped, per stage)
// holds by construction:
//
//	clean    (points):      RawPoints   = KeptPoints   + Drops.Total()
//	segment  (segments):    RawSegments = KeptSegments + TooFew + TooLong
//	odselect (segments):    TripSegments = PostFiltered + the funnel gaps
//	mapmatch (transitions): PostFiltered = Matched + Degenerate + Unroutable
//	fleet    (cars):        attempted    = ok + failed-by-stage

// Ledger is the one mapping from stage stats to lineage rows: the
// clean, segment, odselect and mapmatch rows of a drop-reason ledger,
// resolved once. A batch pipeline commits each car into its
// Config.Lineage; internal/ingest commits each closed trip into its
// own ledger. With a nil ledger every handle is nil and every
// operation is a no-op, mirroring the registry contract.
type Ledger struct {
	clean, segment, od, match *obs.StageLineage

	cleanNonFinite, cleanOutOfArea, cleanDup, cleanSpike  *obs.DropCounter
	segShort, segLong                                     *obs.DropCounter
	odNoGate, odSingleGate, odOutsideCentre, odPostFilter *obs.DropCounter
	matchDegenerate, matchUnroutable                      *obs.DropCounter
}

// NewLedger registers the stage rows on l (nil: a no-op ledger).
func NewLedger(l *obs.Lineage) *Ledger {
	h := &Ledger{
		clean:   l.Stage("clean", "points"),
		segment: l.Stage("segment", "segments"),
		od:      l.Stage("odselect", "segments"),
		match:   l.Stage("mapmatch", "transitions"),
	}
	h.cleanNonFinite = h.clean.Reason(obs.DropNonFinite)
	h.cleanOutOfArea = h.clean.Reason(obs.DropOutOfArea)
	h.cleanDup = h.clean.Reason(obs.DropDuplicateID)
	h.cleanSpike = h.clean.Reason(obs.DropSpike)
	h.segShort = h.segment.Reason(obs.DropTooFewPoints)
	h.segLong = h.segment.Reason(obs.DropTooLong)
	h.odNoGate = h.od.Reason(obs.DropNoGate)
	h.odSingleGate = h.od.Reason(obs.DropSingleGate)
	h.odOutsideCentre = h.od.Reason(obs.DropOutsideCentre)
	h.odPostFilter = h.od.Reason(obs.DropPostFilter)
	h.matchDegenerate = h.match.Reason(obs.DropDegenerateSpan)
	h.matchUnroutable = h.match.Reason(obs.DropUnroutable)
	return h
}

// Commit folds one result's stage stats into the ledger, attributing
// its drops to cr.Car. Call it once per result.
func (h *Ledger) Commit(cr *CarResult) {
	car := cr.Car
	h.clean.RecordCar(car, uint64(cr.CleanStats.RawPoints), uint64(cr.CleanStats.KeptPoints))
	h.cleanNonFinite.Add(uint64(cr.CleanStats.Drops.NonFinite))
	h.cleanOutOfArea.Add(uint64(cr.CleanStats.Drops.OutOfArea))
	h.cleanDup.Add(uint64(cr.CleanStats.Drops.DuplicateID))
	h.cleanSpike.Add(uint64(cr.CleanStats.Drops.Spike))

	h.segment.RecordCar(car, uint64(cr.SegStats.RawSegments), uint64(cr.SegStats.KeptSegments))
	h.segShort.Add(uint64(cr.SegStats.TooFewPoints))
	h.segLong.Add(uint64(cr.SegStats.TooLong))

	f := cr.Funnel
	h.od.RecordCar(car, uint64(f.TripSegments), uint64(f.PostFiltered))
	h.odNoGate.Add(uint64(f.TripSegments - f.Filtered))
	h.odSingleGate.Add(uint64(f.Filtered - f.Transitions))
	h.odOutsideCentre.Add(uint64(f.Transitions - f.WithinCentre))
	h.odPostFilter.Add(uint64(f.WithinCentre - f.PostFiltered))

	m := cr.MatchStats
	h.match.RecordCar(car, uint64(m.Matched+m.Degenerate+m.Unroutable), uint64(m.Matched))
	h.matchDegenerate.Add(uint64(m.Degenerate))
	h.matchUnroutable.Add(uint64(m.Unroutable))
}

// commitCar publishes one successfully processed car into the stage
// counters and the pipeline's ledger. The batch entries call it once
// per car, after every stage succeeded, so a retried attempt's partial
// progress never leaks into the totals (the per-attempt duration
// histograms and the pipeline_cars_processed envelope counter
// intentionally remain per-attempt).
func (p *Pipeline) commitCar(cr *CarResult) {
	p.met.recordCleanStats(cr.CleanStats)
	p.met.recordSegStats(cr.SegStats)
	p.met.recordFunnel(cr.Funnel)
	p.met.matchMatched.Add(uint64(cr.MatchStats.Matched))
	p.met.matchDropped.Add(uint64(cr.MatchStats.Degenerate + cr.MatchStats.Unroutable))
	p.met.attrRoutes.Add(uint64(len(cr.Transitions)))
	p.ledger.Commit(cr)

	if log := p.Config.Log; log != nil {
		log.Debug("car processed",
			slog.Int("car", cr.Car),
			slog.Int("raw_trips", cr.RawTrips),
			slog.Int("raw_points", cr.CleanStats.RawPoints),
			slog.Int("kept_points", cr.CleanStats.KeptPoints),
			slog.Int("segments", cr.SegStats.KeptSegments),
			slog.Int("transitions", len(cr.Transitions)))
	}
}

// recordFleetEvent folds one terminal per-car outcome into the fleet
// row of the ledger (and the structured log). Runs on the stream's
// forwarding goroutine via runner.Tee, so every delivered event is
// counted exactly once; cars abandoned before producing an event are
// never counted as "in", keeping the row conserved under aborts.
func (p *Pipeline) recordFleetEvent(ev CarEvent) {
	log := p.Config.Log
	if ev.Err == nil {
		p.fleet.RecordCar(ev.Car, 1, 1)
		return
	}
	p.fleet.RecordCar(ev.Car, 1, 0)
	reason := obs.DropCancelled
	if !errors.Is(ev.Err.Err, context.Canceled) && !errors.Is(ev.Err.Err, context.DeadlineExceeded) {
		reason = obs.DropReason("failed:" + failStage(ev.Err.Stage))
	}
	p.fleet.Reason(reason).Add(1)
	if log != nil {
		log.Warn("car failed",
			slog.Int("car", ev.Car),
			slog.String("stage", failStage(ev.Err.Stage)),
			slog.Int("attempts", ev.Err.Attempts),
			slog.String("error", ev.Err.Err.Error()))
	}
}

func failStage(stage string) string {
	if stage == "" {
		return "unknown"
	}
	return stage
}
