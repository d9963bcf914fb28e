package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/sink"
	"repro/internal/trace"
)

// firehose: the pool is replicated and staggered in event time, so
// about a thousand cars are seen and hundreds of trips are open at once.
// The stream is flattened with ingest.FleetPoints, shuffled within the
// allowed lateness with ingest.ShuffleWindows and encoded as TAXIPNTB
// bodies. One producer POSTs them one at a time to /v1/ingest on an API
// with WithIngest, then closes the stream. One whole stream is one pass;
// the measured phase repeats passes on fresh engines.
var firehosePool = poolSpec{Cars: 256, Trips: 3, Gate: 0.40, Days: 1}

const (
	firehoseReplicas   = 4
	firehoseStagger    = 5 * time.Minute // event-time shift between replicas
	firehoseBody       = 512             // points per POST
	firehoseShuffle    = 32              // shuffle window, points
	firehoseShuffleMs  = 20_000          // shuffle window span cap, ms
	firehoseLateness   = 30 * time.Second
	firehoseWarmBodies = 4 // a warm-up pass covers 1/4 of the stream
)

type firehoseBench struct {
	p      *core.Pipeline
	bodies [][]byte
	counts []int // points per body
	points int
	cars   int
	trips  int
	ref    *sink.Snapshot // batch sink over the same cars
}

// firehosePass is one stream replay.
type firehosePass struct {
	postNs       []int64
	wall         time.Duration // POST loop wall time, excluding checks
	heapBytes    []float64     // retained heap at each quarter of the stream
	points       int
	openPeak     int
	bufferedPeak int
	dropped      uint64
	received     uint64
	closedBefore []uint64 // traced: closed-trip count before each advance
	closedAfter  []uint64 // traced: closed-trip count after each advance
}

func runFirehose(o options, r *report) error {
	fh, err := newFirehoseInput(o.seed)
	if err != nil {
		return err
	}
	setup, err := timeSetup(func() error {
		p, err := buildPipeline()
		if err != nil {
			return err
		}
		fh.p = p
		_, _, _, err = fh.system(false)
		return err
	})
	if err != nil {
		return err
	}

	// Warm up on a prefix of the stream.
	if _, err := fh.pass(len(fh.bodies)/firehoseWarmBodies, nil, 0, r, false); err != nil {
		return err
	}
	if !o.traced {
		passes, err := fh.phase(o.seconds, nil, r)
		if err != nil {
			return err
		}
		var heaps []float64
		var lat []int64
		for _, ps := range passes {
			for _, h := range ps.heapBytes {
				heaps = append(heaps, h/(1<<20))
			}
			lat = append(lat, ps.postNs...)
		}
		r.set("setup_s", setup, "s", setupRepeats)
		r.set("throughput_per_s", passRate(passes), "1/s", len(passes))
		setLatency(r, lat)
		r.set("heap_retained_mb", median(heaps), "MB", len(heaps))
		return nil
	}

	plain, err := fh.phase(o.seconds/2, nil, r)
	if err != nil {
		return err
	}
	tracer := newTracer()
	traced, err := fh.phase(o.seconds/2, tracer, r)
	if err != nil {
		return err
	}
	s := summarize(tracer, "firehose.post")
	points, received, dropped := 0, uint64(0), uint64(0)
	open, buffered := 0, 0
	var advances, flushes int
	var watermarkNs, flushNs int64
	var closedTrips uint64
	advDur := map[int]int64{} // by span id: pass*len(bodies) + body
	for _, rec := range s.records {
		if rec.Name == "ingest.advance" {
			advDur[rec.Car] = rec.DurNs
		}
	}
	for k, ps := range traced {
		points += ps.points
		received += ps.received
		dropped += ps.dropped
		open = max(open, ps.openPeak)
		buffered = max(buffered, ps.bufferedPeak)
		for i := range ps.closedAfter {
			closed := ps.closedAfter[i] - ps.closedBefore[i]
			if closed == 0 {
				advances++
				watermarkNs += advDur[k*len(fh.bodies)+i]
			} else {
				flushes++
				flushNs += advDur[k*len(fh.bodies)+i]
				closedTrips += closed
			}
		}
	}
	decodeUs, _ := s.self("ingest.decode")
	admitUs, _ := s.self("ingest.admit")
	r.set("ingest.decode_ns_per_point", decodeUs*1e3/float64(points), "ns", points)
	r.set("ingest.admit_ns_per_point", admitUs*1e3/float64(points), "ns", points)
	r.set("ingest.watermark_us_per_advance", float64(watermarkNs)/1e3/float64(max(advances, 1)), "us", advances)
	r.set("ingest.flush_ms_per_round", float64(flushNs)/1e6/float64(max(flushes, 1)), "ms", flushes)
	r.set("ingest.trips_per_flush", float64(closedTrips)/float64(max(flushes, 1)), "count", flushes)
	r.set("ingest.cars_seen", float64(fh.cars), "count", 1)
	r.set("ingest.open_trips_peak", float64(open), "count", len(traced))
	r.set("ingest.buffered_points_peak", float64(buffered), "count", len(traced))
	r.set("ingest.drop_ratio", float64(dropped)/float64(received), "ratio", int(received))
	s.finish(r, tracer, o, "firehose", overheadRatio(passRate(plain), passRate(traced)))
	return nil
}

// passRate is the median over passes of points per second.
func passRate(passes []firehosePass) float64 {
	rates := make([]float64, len(passes))
	for i, ps := range passes {
		rates[i] = float64(ps.points) / ps.wall.Seconds()
	}
	return median(rates)
}

// newFirehoseInput builds the replicated, staggered, shuffled stream,
// its encoded bodies and the batch reference snapshot over the same
// cars.
func newFirehoseInput(seed int64) (*firehoseBench, error) {
	inp, pool, err := simulatePool(seed, firehosePool)
	if err != nil {
		return nil, err
	}
	fleet := map[int][]*trace.Trip{}
	for rep := 0; rep < firehoseReplicas; rep++ {
		for i, trips := range pool {
			car := rep*len(pool) + i + 1
			fleet[car] = restampCar(trips, car, time.Duration(rep)*firehoseStagger)
		}
	}
	proj := inp.City.DB.Proj
	pts := ingest.FleetPoints(fleet, proj)
	fh := &firehoseBench{points: len(pts), cars: len(fleet)}

	span := ingest.ShuffleWindows(pts, firehoseShuffle, firehoseShuffleMs, seed)
	if span >= firehoseLateness.Milliseconds() {
		return nil, fmt.Errorf("shuffle span %dms reaches the allowed lateness", span)
	}
	for i := 0; i < len(pts); i += firehoseBody {
		var buf bytes.Buffer
		if err := ingest.WriteBinary(&buf, pts[i:min(i+firehoseBody, len(pts))]); err != nil {
			return nil, fmt.Errorf("encode body: %w", err)
		}
		fh.bodies = append(fh.bodies, buf.Bytes())
		fh.counts = append(fh.counts, min(firehoseBody, len(pts)-i))
	}

	// Canonical per-car trips rebuilt from the decoded bodies, in arrival
	// order, so the batch reference sees exactly the quantised points the
	// engine admits.
	byCar := map[int][]*trace.Trip{}
	open := map[int64]*trace.Trip{}
	for _, body := range fh.bodies {
		decoded, err := ingest.ReadBinary(bytes.NewReader(body))
		if err != nil {
			return nil, fmt.Errorf("decode body: %w", err)
		}
		for _, pt := range decoded {
			tr := open[pt.Trip]
			if tr == nil {
				tr = &trace.Trip{ID: pt.Trip, CarID: pt.Car}
				open[pt.Trip] = tr
				byCar[pt.Car] = append(byCar[pt.Car], tr)
			}
			tr.Points = append(tr.Points, pt.RoutePoint(proj))
		}
	}
	fh.trips = len(open)

	ref, err := newSink(inp, -1)
	if err != nil {
		return nil, err
	}
	st := runner.Run(context.Background(), runner.Config{}, len(byCar),
		func(ctx context.Context, car int) (core.CarResult, error) {
			trips := byCar[car]
			sort.Slice(trips, func(i, j int) bool { return trips[i].ID < trips[j].ID })
			return inp.ProcessContext(ctx, car, trips)
		})
	for ev := range st.Events() {
		if ev.Err != nil {
			return nil, fmt.Errorf("batch reference: %w", ev.Err)
		}
		ref.AbsorbEvent(ev)
	}
	if err := st.Err(); err != nil {
		return nil, fmt.Errorf("batch reference: %w", err)
	}
	fh.ref = ref.Seal()
	fmt.Fprintf(os.Stderr, "firehose: %d cars (%d replicas of a %d-car pool, %d trips/car, gate %.2f, %d day), stagger %v, %d points in %d-point bodies, shuffle window %d/%dms (span %dms), lateness %v\n",
		fh.cars, firehoseReplicas, firehosePool.Cars, firehosePool.Trips, firehosePool.Gate, firehosePool.Days,
		firehoseStagger, fh.points, firehoseBody, firehoseShuffle, firehoseShuffleMs, span, firehoseLateness)
	return fh, nil
}

// system builds a fresh sink, engine and API over the pipeline. The
// traced path recomputes the watermark itself after every body, so its
// engine never advances inside a push.
func (fh *firehoseBench) system(traced bool) (*serve.API, *ingest.Engine, *sink.Sink, error) {
	snk, err := newSink(fh.p, -1)
	if err != nil {
		return nil, nil, nil, err
	}
	every := firehoseBody
	if traced {
		every = 1 << 30
	}
	eng, err := ingest.New(ingest.Config{
		Pipeline:        fh.p,
		Sink:            snk,
		AllowedLateness: firehoseLateness,
		WatermarkEvery:  every,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	return serve.NewAPI(snk, nil).WithIngest(eng), eng, snk, nil
}

// phase repeats whole passes until seconds have passed, traced when
// tracer is not nil.
func (fh *firehoseBench) phase(seconds float64, tracer *obs.Tracer, r *report) ([]firehosePass, error) {
	var out []firehosePass
	start := time.Now()
	for len(out) == 0 || time.Since(start).Seconds() < seconds {
		ps, err := fh.pass(len(fh.bodies), tracer, len(out), r, true)
		if err != nil {
			return nil, err
		}
		out = append(out, ps)
	}
	return out, nil
}

// ingestReply is the part of the /v1/ingest answer the checks read.
type ingestReply struct {
	Received int `json:"received"`
	Admitted int `json:"admitted"`
}

// pass streams the first n bodies into a fresh system and closes it.
// Untraced (nil tracer), every body is a POST through API.ServeHTTP.
// Traced, the benchmark decodes each body, pushes it and advances the
// watermark itself, with one span per call; the spans of body i in pass
// k share the id k*len(bodies)+i. A full pass is checked against the
// batch reference.
func (fh *firehoseBench) pass(n int, tracer *obs.Tracer, k int, r *report, full bool) (firehosePass, error) {
	traced := tracer != nil
	api, eng, snk, err := fh.system(traced)
	if err != nil {
		return firehosePass{}, err
	}
	ps := firehosePass{postNs: make([]int64, 0, n)}
	heap0 := liveHeapBytes()
	var w recorder
	var excluded time.Duration
	start := time.Now()
	quarter := max(n/4, 1)
	for i, body := range fh.bodies[:n] {
		if full && !traced && i > 0 && i%quarter == 0 {
			t0 := time.Now()
			ps.heapBytes = append(ps.heapBytes, liveHeapBytes()-heap0)
			excluded += time.Since(t0)
		}
		if traced {
			d, err := fh.tracedBody(k*len(fh.bodies)+i, body, eng, tracer, &ps)
			if err != nil {
				return ps, err
			}
			excluded += d
			ps.points += fh.counts[i]
			continue
		}
		req, err := http.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body))
		if err != nil {
			return ps, err
		}
		w.reset()
		t0 := time.Now()
		api.ServeHTTP(&w, req)
		ps.postNs = append(ps.postNs, time.Since(t0).Nanoseconds())
		ps.points += fh.counts[i]
		var reply ingestReply
		if w.status != http.StatusOK || json.Unmarshal(w.body.Bytes(), &reply) != nil || reply.Admitted != reply.Received {
			r.Failed++
			r.check(false, "POST /v1/ingest body %d: status %d, reply %s", i, w.status, w.body.Bytes())
		}
	}
	ps.wall = time.Since(start) - excluded
	if full && !traced {
		ps.heapBytes = append(ps.heapBytes, liveHeapBytes()-heap0)
	}
	runtime.KeepAlive(api)

	st := eng.Stats()
	ps.received = st.Received
	for _, c := range st.Dropped {
		ps.dropped += c
	}
	req, err := http.NewRequest(http.MethodPost, "/v1/ingest/close", nil)
	if err != nil {
		return ps, err
	}
	w.reset()
	api.ServeHTTP(&w, req)
	r.check(w.status == http.StatusOK, "POST /v1/ingest/close: status %d", w.status)
	if !full {
		return ps, nil
	}
	r.Attempted += int64(n)
	r.check(ps.dropped == 0, "%d of %d points dropped", ps.dropped, ps.received)
	closed := eng.Stats().ClosedTrips
	r.check(closed == uint64(fh.trips), "%d trips closed, the fleet has %d", closed, fh.trips)
	if err := compareSnapshots(snk.Snapshot(), fh.ref); err != nil {
		r.check(false, "streamed snapshot differs from the batch sink: %v", err)
	}
	return ps, nil
}

// tracedBody decodes, admits and advances one body under spans with
// the given id and returns the time spent reading engine statistics,
// which the pass wall time excludes.
func (fh *firehoseBench) tracedBody(id int, body []byte, eng *ingest.Engine, tracer *obs.Tracer, ps *firehosePass) (time.Duration, error) {
	root := tracer.StartSpan("firehose.post", id)
	sp := root.Child("ingest.decode")
	batch := make([]ingest.Point, 0, firehoseBody)
	rd, err := ingest.NewBinaryReader(bytes.NewReader(body))
	for err == nil {
		var p ingest.Point
		if p, err = rd.Next(); err == nil {
			batch = append(batch, p)
		}
	}
	sp.End()
	sp = root.Child("ingest.admit")
	eng.PushBatch(batch)
	sp.End()
	root.End()
	if err != io.EOF {
		return 0, fmt.Errorf("decode body %d: %w", id, err)
	}

	t0 := time.Now()
	st := eng.Stats()
	ps.openPeak = max(ps.openPeak, st.OpenTrips)
	ps.bufferedPeak = max(ps.bufferedPeak, st.BufferedPoints)
	ps.closedBefore = append(ps.closedBefore, st.ClosedTrips)
	excluded := time.Since(t0)

	sp = tracer.StartSpan("ingest.advance", id)
	eng.Advance()
	sp.End()

	t0 = time.Now()
	ps.closedAfter = append(ps.closedAfter, eng.Stats().ClosedTrips)
	return excluded + time.Since(t0), nil
}
