package core

import (
	"context"
	"runtime/pprof"

	"repro/internal/obs"
	"repro/internal/runner"
)

// Tracing glue: the pipeline opens one root span per sampled car (in
// RunCarContext, or lazily in the batch Process entries for callers
// that feed trips directly) and one child span per stage boundary
// (see openStage). Stage spans double as pprof scopes — while a traced
// stage runs, the goroutine carries a {stage=<name>} profiler label,
// so CPU profiles taken during a traced run attribute samples to
// pipeline stages. The unsampled path costs one nil check per
// boundary.

// stageLabels pre-builds one pprof label set per stage so the hot path
// never re-allocates label storage.
var stageLabels = func() (l [numStages]context.Context) {
	for id, s := range StageNames {
		l[id] = pprof.WithLabels(context.Background(), pprof.Labels("stage", s))
	}
	return l
}()

// ensureCarTrace returns ctx carrying the root span for car, opening
// one when the pipeline traces, the car is sampled, and no root is in
// flight yet (retries and direct ProcessContext callers both land
// here). The returned span is the one the caller must close via
// endCarTrace; it is inactive when a root already existed.
func (p *Pipeline) ensureCarTrace(ctx context.Context, car int) (context.Context, obs.TraceSpan) {
	if p.Config.Tracer == nil || obs.SpanFromContext(ctx).Active() {
		return ctx, obs.TraceSpan{}
	}
	sp := p.Config.Tracer.StartSpan("car", car)
	if !sp.Active() {
		return ctx, sp
	}
	return obs.ContextWithSpan(ctx, sp), sp
}

// endCarTrace closes a car's root span with its outcome: the runner
// attempt number, retry=true on re-attempts (so trace consumers can
// discount them exactly like the lineage does), and the terminal
// status.
func endCarTrace(ctx context.Context, sp obs.TraceSpan, err error) {
	if !sp.Active() {
		return
	}
	attrs := make([]obs.TraceAttr, 0, 3)
	if att := runner.AttemptOf(ctx); att > 0 {
		attrs = append(attrs, obs.TAttr("attempt", itoa(att)))
		if att > 1 {
			attrs = append(attrs, obs.TAttr("retry", "true"))
		}
	}
	status := "ok"
	if err != nil {
		status = "error"
	}
	sp.End(append(attrs, obs.TAttr("status", status))...)
}

// itoa formats a small non-negative int without strconv in the span
// path.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
