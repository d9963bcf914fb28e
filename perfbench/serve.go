package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/serve"
	"repro/internal/sink"
)

// serve_mixed: a sink preloaded with the fleet serves /v1 while a paced
// writer (open loop, fixed epochs per second) absorbs precomputed car
// results and publishes new epochs. Closed-loop clients, one per CPU,
// send a seeded query mix through API.ServeHTTP.
var servePool = poolSpec{Cars: serveCars, Trips: 3, Gate: 0.40}

const (
	serveCars         = 256                    // preloaded fleet
	servePreloadEpoch = 32                     // preload cars per published epoch
	serveWriterRate   = 10                     // writer epochs per second
	serveWriterCars   = 8                      // cars absorbed per writer epoch
	serveQueries      = 4096                   // pre-generated queries per client
	serveWarmup       = 500 * time.Millisecond // load before the measured phase
	serveSampleChecks = 200                    // predictions checked against Predict
)

// The query mix, in percent. Prediction, the only millisecond-scale
// endpoint, holds more than half of it, so the pooled median falls
// inside the prediction cost band. A median among the microsecond
// endpoints sits on the edge between two of their cost bands and moves
// by a fifth or more from run to run.
var serveMix = []struct {
	ep    string
	share int
}{
	{"predict", 60}, {"cells", 12}, {"grid", 7}, {"od", 7}, {"odpair", 7}, {"anomalies", 7},
}

// serveBoxM is the half-width of a /v1/grid box in metres.
const serveBoxM = 500

type query struct {
	ep       int // index into serveMix
	url      string
	from, to geo.XY // predict only
	hour     int    // predict only
}

type serveBench struct {
	fleet   []core.CarResult // the preloaded fleet; the writer re-absorbs it under new car ids
	queries [][]query        // per client

	p    *core.Pipeline
	snk  *sink.Sink
	pred *predict.Predictor
	api  *serve.API
}

func runServeMixed(o options, r *report) error {
	inp, pool, err := simulatePool(o.seed, servePool)
	if err != nil {
		return err
	}
	results, err := poolResults(inp, pool)
	if err != nil {
		return err
	}
	sb := &serveBench{fleet: results}
	clients := runtime.GOMAXPROCS(0)
	if err := sb.makeQueries(o.seed, clients); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "serve_mixed: %d preloaded cars (%d trips/car, gate %.2f), writer %d epochs/s x %d cars, %d closed-loop clients, mix %v\n",
		serveCars, servePool.Trips, servePool.Gate, serveWriterRate, serveWriterCars, clients, serveMix)

	base := liveHeapBytes()
	setup, err := timeSetup(sb.build)
	if err != nil {
		return err
	}
	if _, err := sb.phase(serveWarmup.Seconds(), nil, r); err != nil {
		return err
	}
	if !o.traced {
		ph, err := sb.phase(o.seconds, nil, r)
		if err != nil {
			return err
		}
		sb.checkPredictions(o.seed, r)
		heap := liveHeapBytes() - base
		runtime.KeepAlive(sb)
		r.set("setup_s", setup, "s", setupRepeats)
		rates := windowRates(ph.doneNs, ph.elapsed, 10)
		r.set("throughput_per_s", median(rates), "1/s", len(rates))
		setLatency(r, ph.latNs)
		r.set("heap_retained_mb", heap/(1<<20), "MB", 1)
		return nil
	}

	plain, err := sb.phase(o.seconds/2, nil, r)
	if err != nil {
		return err
	}
	tracer := newTracer()
	traced, err := sb.phase(o.seconds/2, tracer, r)
	if err != nil {
		return err
	}
	sb.checkPredictions(o.seed, r)
	// Direct calls on the same queries and snapshots.
	snap := sb.snk.Snapshot()
	var edges, observed int
	for i, q := range sb.predictQueries() {
		sp := tracer.StartSpan("predict.route", i)
		pr, err := sb.pred.Predict(snap, q.from, q.to, q.hour)
		sp.End()
		if err == nil {
			edges += pr.Edges
			observed += pr.ObservedEdges
		}
	}
	det := predict.NewAnomalyDetector(predict.AnomalyConfig{})
	for _, s := range traced.published {
		sp := tracer.StartSpan("predict.anomaly_report", int(s.Epoch))
		det.Report(s)
		sp.End()
	}

	s := summarize(tracer, "client.query")
	for _, m := range serveMix {
		p50, n := s.durQuantileUs("serve."+m.ep, 0.50)
		p99, _ := s.durQuantileUs("serve."+m.ep, 0.99)
		r.set("serve."+m.ep+"_p50_us", p50, "us", n)
		r.set("serve."+m.ep+"_p99_us", p99, "us", n)
	}
	route, n := s.durQuantileUs("predict.route", 0.5)
	r.set("predict.route_us", route, "us", n)
	r.set("predict.observed_edge_ratio", ratio(observed, edges), "ratio", edges)
	rep, n := s.durQuantileUs("predict.anomaly_report", 0.5)
	r.set("predict.anomaly_report_us", rep, "us", n)
	pub, n := s.durQuantileUs("sink.publish", 0.5)
	r.set("sink.publish_ms", pub/1e3, "ms", n)
	r.set("serve.writer_late_p99_ms", quantile(durationsMs(plain.lateNs), 0.99), "ms", len(plain.lateNs))
	s.finish(r, tracer, o, "serve_mixed", overheadRatio(
		float64(len(plain.latNs))/plain.elapsed.Seconds(), float64(len(traced.latNs))/traced.elapsed.Seconds()))
	return nil
}

// build assembles the system under test: pipeline, sink preloaded with
// the fleet in several epochs, predictor, anomaly detector (primed on
// the preload epochs, as a live node's would be) and the API.
func (sb *serveBench) build() error {
	p, err := buildPipeline()
	if err != nil {
		return err
	}
	snk, err := newSink(p, -1)
	if err != nil {
		return err
	}
	det := predict.NewAnomalyDetector(predict.AnomalyConfig{})
	for i := range sb.fleet {
		snk.Absorb(&sb.fleet[i])
		if (i+1)%servePreloadEpoch == 0 {
			det.Report(snk.Publish())
		}
	}
	pred := predict.NewPredictor(p.Graph, p.Router)
	sb.p, sb.snk, sb.pred = p, snk, pred
	sb.api = serve.NewAPI(snk, nil).WithPredictor(pred).WithAnomalies(det)
	return nil
}

// makeQueries pre-generates each client's seeded query list over the
// preloaded fleet: predictions between the ends of matched routes at a
// random hour, existing cells and directions, boxes around route points.
// Routes are drawn direction first, so every seed asks for each OD
// direction equally often and routing work varies little between seeds.
func (sb *serveBench) makeQueries(seed int64, clients int) error {
	routes := map[sink.ODKey][]geo.Polyline{}
	for _, cr := range sb.fleet {
		for _, rec := range cr.Transitions {
			if len(rec.Match.Geometry) >= 2 {
				dir := sink.ODKey{From: rec.Transition.From, To: rec.Transition.To}
				routes[dir] = append(routes[dir], rec.Match.Geometry)
			}
		}
	}
	// The cells and directions the preload publishes.
	p, err := buildPipeline()
	if err != nil {
		return err
	}
	snk, err := newSink(p, -1)
	if err != nil {
		return err
	}
	for i := range sb.fleet {
		snk.Absorb(&sb.fleet[i])
	}
	snap := snk.Publish()
	cells, dirs := snap.CellIDs(), snap.Directions()
	if len(cells) == 0 || len(dirs) == 0 {
		return fmt.Errorf("the preloaded fleet has no cells or directions")
	}
	route := func(rng *rand.Rand) geo.Polyline {
		rs := routes[dirs[rng.Intn(len(dirs))]]
		return rs[rng.Intn(len(rs))]
	}
	f := func(x float64) string { return strconv.FormatFloat(x, 'f', -1, 64) }
	xy := func(v geo.XY) string { return f(v.X) + "," + f(v.Y) }
	for c := 0; c < clients; c++ {
		rng := rand.New(rand.NewSource(seed*1000 + int64(c)))
		qs := make([]query, serveQueries)
		// Every block of 100 queries holds the mix exactly, in seeded order.
		var block []int
		for ep, m := range serveMix {
			for i := 0; i < m.share; i++ {
				block = append(block, ep)
			}
		}
		for i := range qs {
			if i%len(block) == 0 {
				rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
			}
			ep := block[i%len(block)]
			q := query{ep: ep}
			switch serveMix[ep].ep {
			case "predict":
				rt := route(rng)
				q.from, q.to, q.hour = rt[0], rt[len(rt)-1], rng.Intn(25)-1
				q.url = "/v1/predict?from=" + xy(q.from) + "&to=" + xy(q.to)
				if q.hour >= 0 {
					q.url += "&t=" + strconv.Itoa(q.hour)
				}
			case "cells":
				q.url = "/v1/cells/" + cells[rng.Intn(len(cells))].String()
			case "grid":
				rt := route(rng)
				c := rt[rng.Intn(len(rt))]
				q.url = "/v1/grid?bbox=" + xy(geo.V(c.X-serveBoxM, c.Y-serveBoxM)) + "," + xy(geo.V(c.X+serveBoxM, c.Y+serveBoxM))
			case "od":
				q.url = "/v1/od"
			case "odpair":
				q.url = "/v1/od/" + dirs[rng.Intn(len(dirs))].String()
			case "anomalies":
				q.url = "/v1/anomalies"
			}
			qs[i] = q
		}
		sb.queries = append(sb.queries, qs)
	}
	return nil
}

func (sb *serveBench) predictQueries() []query {
	var out []query
	for _, q := range sb.queries[0] {
		if serveMix[q.ep].ep == "predict" {
			out = append(out, q)
		}
	}
	return out
}

// servePhase is one measured interval.
type servePhase struct {
	elapsed   time.Duration
	latNs     []int64 // pooled query round trips
	doneNs    []int64 // completion times since the phase start
	lateNs    []int64 // how late each writer epoch started
	published []*sink.Snapshot
}

// phase runs the clients and the writer for seconds. With a tracer the
// clients and the writer record spans around every call.
func (sb *serveBench) phase(seconds float64, tracer *obs.Tracer, r *report) (servePhase, error) {
	runtime.GC()
	var ph servePhase
	var stop atomic.Bool
	var wg sync.WaitGroup
	period := time.Second / serveWriterRate
	start := time.Now()

	wg.Add(1)
	go func() {
		defer wg.Done()
		car := len(sb.fleet) + 1
		for k := 1; ; k++ {
			due := start.Add(time.Duration(k) * period)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			if stop.Load() {
				return
			}
			ph.lateNs = append(ph.lateNs, time.Since(due).Nanoseconds())
			for i := 0; i < serveWriterCars; i++ {
				cr := sb.fleet[car%len(sb.fleet)]
				cr.Car = car
				car++
				sp := tracer.StartSpan("sink.absorb", cr.Car)
				sb.snk.Absorb(&cr)
				sp.End()
			}
			sp := tracer.StartSpan("sink.publish", k)
			snap := sb.snk.Publish()
			sp.End()
			if tracer != nil {
				ph.published = append(ph.published, snap)
			}
		}
	}()

	type clientOut struct{ lat, done []int64 }
	outs := make([]clientOut, len(sb.queries))
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var failed, attempted atomic.Int64
	var problem atomic.Value
	for c := range sb.queries {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			qs := sb.queries[c]
			out := clientOut{lat: make([]int64, 0, 1<<16), done: make([]int64, 0, 1<<16)}
			var w recorder
			var lastEpoch uint64
			for i := 0; ; i++ {
				now := time.Now()
				if !now.Before(deadline) {
					break
				}
				q := qs[i%len(qs)]
				id := c<<40 | i
				root := tracer.StartSpan("client.query", id)
				req, err := http.NewRequest(http.MethodGet, q.url, nil)
				if err != nil {
					problem.Store(err.Error())
					break
				}
				w.reset()
				sp := root.Child("serve." + serveMix[q.ep].ep)
				t0 := time.Now()
				sb.api.ServeHTTP(&w, req)
				t1 := time.Now()
				sp.End()
				root.End()
				out.lat = append(out.lat, t1.Sub(t0).Nanoseconds())
				out.done = append(out.done, t1.Sub(start).Nanoseconds())
				attempted.Add(1)
				epoch, ok := etagEpoch(w.header.Get("ETag"))
				if w.status != http.StatusOK || !ok || epoch < lastEpoch {
					failed.Add(1)
					problem.Store(fmt.Sprintf("GET %s: status %d, epoch %q after v%d", q.url, w.status, w.header.Get("ETag"), lastEpoch))
				}
				lastEpoch = epoch
			}
			outs[c] = out
		}(c)
	}
	for time.Now().Before(deadline) {
		time.Sleep(time.Until(deadline))
	}
	ph.elapsed = time.Since(start)
	stop.Store(true)
	wg.Wait()
	for _, out := range outs {
		ph.latNs = append(ph.latNs, out.lat...)
		ph.doneNs = append(ph.doneNs, out.done...)
	}
	r.Attempted += attempted.Load()
	r.Failed += failed.Load()
	if p, ok := problem.Load().(string); ok {
		r.check(false, "%d of %d queries failed; last: %s", failed.Load(), attempted.Load(), p)
	}
	// Pacing: the open-loop writer must never fall a whole period behind.
	late := quantile(durationsMs(ph.lateNs), 1)
	r.check(late <= float64(period.Milliseconds()), "writer ran %.1f ms late, more than one %v period", late, period)
	return ph, nil
}

// etagEpoch parses the epoch out of a "v<epoch>" ETag.
func etagEpoch(tag string) (uint64, bool) {
	tag = strings.Trim(tag, `"`)
	if !strings.HasPrefix(tag, "v") {
		return 0, false
	}
	n, err := strconv.ParseUint(tag[1:], 10, 64)
	return n, err == nil
}

// predictReply is the part of the /v1/predict answer the check reads.
type predictReply struct {
	Epoch         uint64  `json:"epoch"`
	TravelS       float64 `json:"travel_s"`
	FreeFlowS     float64 `json:"free_flow_s"`
	DistanceKm    float64 `json:"distance_km"`
	Edges         int     `json:"edges"`
	ObservedEdges int     `json:"observed_edges"`
	GlobalRatio   float64 `json:"global_ratio"`
}

// checkPredictions compares a seeded sample of /v1/predict answers with
// direct Predictor.Predict calls on the same snapshot, once the writer
// has stopped.
func (sb *serveBench) checkPredictions(seed int64, r *report) {
	qs := sb.predictQueries()
	rng := rand.New(rand.NewSource(seed))
	snap := sb.snk.Snapshot()
	var w recorder
	for i := 0; i < serveSampleChecks && len(qs) > 0; i++ {
		q := qs[rng.Intn(len(qs))]
		req, err := http.NewRequest(http.MethodGet, q.url, nil)
		if err != nil {
			r.check(false, "build %s: %v", q.url, err)
			return
		}
		w.reset()
		sb.api.ServeHTTP(&w, req)
		var got predictReply
		if w.status != http.StatusOK || json.Unmarshal(w.body.Bytes(), &got) != nil {
			r.check(false, "GET %s: status %d", q.url, w.status)
			return
		}
		want, err := sb.pred.Predict(snap, q.from, q.to, q.hour)
		if err != nil {
			r.check(false, "direct predict for %s: %v", q.url, err)
			return
		}
		if got.Epoch != snap.Epoch || got.TravelS != want.TravelS || got.FreeFlowS != want.FreeFlowS ||
			got.DistanceKm != want.DistanceKm || got.Edges != want.Edges ||
			got.ObservedEdges != want.ObservedEdges || got.GlobalRatio != want.GlobalRatio {
			r.check(false, "GET %s answered %+v, Predict gives %+v at epoch %d", q.url, got, *want, snap.Epoch)
			return
		}
	}
}
