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
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/serve"
	"repro/internal/sink"
)

// cluster_fanin: a cluster.Coordinator with clusterShards shards whose
// fake workers are pre-encoded TAXIPART partials, one per epoch of a
// per-shard sink, served by the coordinator's in-memory HTTP transport.
// Workers register through the coordinator's control handlers. Each
// round advances every shard to its next epoch, cycling a fixed set of
// unsealed epochs so rounds do equal work, and ends when the served view
// holds all of them; the last round serves the sealed partials.
var clusterPool = poolSpec{Cars: 128, Trips: 3, Gate: 0.40}

const (
	clusterShards     = 4
	clusterCars       = 1024
	clusterEpochCars  = 32                     // cars per published worker epoch
	clusterCycle      = 4                      // unsealed epochs cycled per shard
	clusterPullEvery  = 100 * time.Microsecond // below one round's work: the pull loop runs back to back
	clusterWarmup     = 500 * time.Millisecond
	clusterRoundLimit = 10 * time.Second // a round that takes longer fails the run
	clusterDirectReps = 8                // repetitions of each direct decode
	// clusterMinRounds extends a slow measured phase until p99 has at
	// least ten rounds beyond it.
	clusterMinRounds = 1000
	// clusterWaitShare bounds the median pull wait as a share of the
	// median round latency, so the pull loop's tick never sets the pace.
	clusterWaitShare = 0.5
)

// shardPartials are one fake worker's encoded partials.
type shardPartials struct {
	id     string
	cars   int
	cycle  [][]byte // unsealed epochs, cycled
	epochs []uint64
	sealed []byte
}

// blob is one partial as currently served by a fake worker.
type blob struct {
	data    []byte
	epoch   uint64
	fetched bool // guarded by transport.mu
}

// transport is the coordinator's in-memory http.RoundTripper: each host
// is a fake worker serving its current partial.
type transport struct {
	cur    [clusterShards]atomic.Pointer[blob]
	tracer atomic.Pointer[obs.Tracer] // nil: untraced
	seq    atomic.Int64

	mu          sync.Mutex
	publishedAt time.Time
	pending     int           // shards whose current partial is not yet pulled
	awaitNext   bool          // all pulled: the next pull proves the last one merged
	done        chan struct{} // closed when the round's view is served
	pulls       int
	useful      int
	waitNs      []int64 // publish to first pull, per partial
}

// RoundTrip serves a fake worker's current partial. Traced, it opens a
// cluster.pull span that the coordinator's Close of the response body
// ends: the coordinator reads, decodes and merges a partial before it
// closes the body, so the span covers the whole pull.
func (t *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	sp := t.tracer.Load().StartSpan("cluster.pull", int(t.seq.Add(1)))
	host := strings.TrimSuffix(req.URL.Hostname(), ".perfbench")
	shard, err := strconv.Atoi(strings.TrimPrefix(host, "shard"))
	if err != nil || shard < 0 || shard >= clusterShards {
		sp.End()
		return nil, fmt.Errorf("unknown fake worker %q", req.URL.Host)
	}
	b := t.cur[shard].Load()
	t.mu.Lock()
	t.pulls++
	if t.awaitNext {
		// The coordinator pulls serially and merges before its next
		// pull, so this pull proves the round's last partial is served.
		t.awaitNext = false
		close(t.done)
	}
	if b != nil && !b.fetched {
		b.fetched = true
		t.useful++
		t.waitNs = append(t.waitNs, time.Since(t.publishedAt).Nanoseconds())
		if t.pending--; t.pending == 0 {
			t.awaitNext = true
		}
	}
	t.mu.Unlock()
	if b == nil {
		sp.End()
		return &http.Response{StatusCode: http.StatusNotFound, Body: http.NoBody, Header: http.Header{}, Request: req}, nil
	}
	body := io.NopCloser(bytes.NewReader(b.data))
	if sp.Active() {
		body = &spanBody{Reader: bytes.NewReader(b.data), span: sp}
	}
	return &http.Response{
		StatusCode:    http.StatusOK,
		Header:        http.Header{"Content-Type": {"application/octet-stream"}},
		Body:          body,
		ContentLength: int64(len(b.data)),
		Request:       req,
	}, nil
}

// spanBody ends its span when the reader closes it.
type spanBody struct {
	*bytes.Reader
	span obs.TraceSpan
	once sync.Once
}

func (b *spanBody) Close() error {
	b.once.Do(func() { b.span.End() })
	return nil
}

// publish makes the given partials current and returns the channel that
// closes once the served view holds them all.
func (t *transport) publish(parts [clusterShards]*blob) <-chan struct{} {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.publishedAt = time.Now()
	t.pending = clusterShards
	t.awaitNext = false
	t.done = make(chan struct{})
	for s, b := range parts {
		t.cur[s].Store(b)
	}
	return t.done
}

type clusterBench struct {
	shards [clusterShards]shardPartials
	p      *core.Pipeline
	tr     *transport
	coord  *cluster.Coordinator
	api    *serve.API
	runErr chan error
	round  int
}

func runClusterFanin(o options, r *report) error {
	cb, err := newClusterInput(o.seed)
	if err != nil {
		return err
	}
	base := liveHeapBytes()
	setup, err := timeSetup(cb.build)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cb.runErr = make(chan error, 1)
	cb.publishRound()
	go func() { cb.runErr <- cb.coord.Run(ctx) }()
	if _, err := cb.phase(clusterWarmup.Seconds(), 0, r); err != nil {
		return err
	}

	if !o.traced {
		ph, err := cb.phase(o.seconds, clusterMinRounds, r)
		if err != nil {
			return err
		}
		if err := cb.seal(r); err != nil {
			return err
		}
		// Retained: the coordinator's sealed view and shard table, the
		// pipeline and the API.
		heap := liveHeapBytes() - base
		runtime.KeepAlive(cb)
		r.set("setup_s", setup, "s", setupRepeats)
		rates := windowRates(ph.doneNs, ph.elapsed, 10)
		r.set("throughput_per_s", median(rates), "1/s", len(rates))
		setLatency(r, ph.latNs)
		r.set("heap_retained_mb", heap/(1<<20), "MB", 1)
		return nil
	}

	plain, err := cb.phase(o.seconds/2, 0, r)
	if err != nil {
		return err
	}
	tracer := newTracer()
	cb.tr.tracer.Store(tracer)
	traced, err := cb.phase(o.seconds/2, 0, r)
	if err != nil {
		return err
	}
	cb.tr.tracer.Store(nil)
	if err := cb.seal(r); err != nil {
		return err
	}
	// Direct calls on the same partials, each repeated so the medians do
	// not rest on one cold call: a decode reads the body and decodes it,
	// as the coordinator's pull does.
	var parts []*sink.Snapshot
	var size int
	for s := range cb.shards {
		for k, data := range cb.shards[s].cycle {
			size += len(data)
			for rep := 0; rep < clusterDirectReps; rep++ {
				sp := tracer.StartSpan("cluster.decode", s*clusterCycle+k)
				body, err := io.ReadAll(bytes.NewReader(data))
				var p *cluster.Partial
				if err == nil {
					p, err = cluster.DecodePartial(body)
				}
				sp.End()
				if err != nil {
					return fmt.Errorf("decode partial: %w", err)
				}
				if k == 0 && rep == 0 {
					parts = append(parts, p.Snapshot)
				}
			}
		}
	}
	for i := 0; i < 50; i++ {
		sp := tracer.StartSpan("cluster.merge", i)
		_, err := sink.MergeSnapshots(parts...)
		sp.End()
		if err != nil {
			return fmt.Errorf("merge partials: %w", err)
		}
	}

	s := summarize(tracer)
	decodeUs, decodes := s.durQuantileUs("cluster.decode", 0.5)
	mergeUs, merges := s.durQuantileUs("cluster.merge", 0.5)
	r.set("cluster.pull_wait_ms", quantile(durationsMs(plain.waitNs), 0.5), "ms", len(plain.waitNs))
	r.set("cluster.pulls_per_round", float64(plain.pulls)/float64(plain.rounds), "count", plain.rounds)
	r.set("cluster.useful_pull_ratio", ratio(plain.useful, plain.pulls), "ratio", plain.pulls)
	r.set("cluster.partial_kb", float64(size)/1024/float64(clusterShards*clusterCycle), "kB", clusterShards*clusterCycle)
	most, total := 0, 0
	for _, sh := range cb.shards {
		most = max(most, sh.cars)
		total += sh.cars
	}
	r.set("cluster.shard_skew", float64(most)*clusterShards/float64(total), "ratio", clusterShards)
	r.set("cluster.decode_us", decodeUs, "us", decodes)
	r.set("cluster.merge_ms", mergeUs/1e3, "ms", merges)
	r.set("cluster.merges_per_round", float64(plain.merges)/float64(plain.rounds), "count", plain.rounds)

	// Reconciliation: a round's busy time is explained by the pulls the
	// coordinator was inside while it lasted; the rest is its loop.
	var rounds, pulls []*obs.SpanRecord
	for _, rec := range s.records {
		switch rec.Name {
		case "cluster.round":
			rounds = append(rounds, rec)
		case "cluster.pull":
			pulls = append(pulls, rec)
		}
	}
	var busy, inside int64
	j := 0
	for _, rd := range rounds {
		lo, hi := rd.StartNs, rd.StartNs+rd.DurNs
		busy += rd.DurNs
		for j < len(pulls) && pulls[j].StartNs+pulls[j].DurNs <= lo {
			j++
		}
		for _, p := range pulls[j:] {
			if p.StartNs >= hi {
				break
			}
			inside += min(hi, p.StartNs+p.DurNs) - max(lo, p.StartNs)
		}
	}
	s.busyNs, s.glueNs = busy, busy-inside
	s.finish(r, tracer, o, "cluster_fanin", overheadRatio(
		float64(plain.rounds)/plain.elapsed.Seconds(), float64(traced.rounds)/traced.elapsed.Seconds()))
	return nil
}

// newClusterInput precomputes every fake worker's partials: the fleet is
// sharded with cluster.ShardCars, each shard's cars are absorbed into a
// sink of its own that publishes every clusterEpochCars cars, and the
// last clusterCycle unsealed epochs plus the sealed one are encoded.
func newClusterInput(seed int64) (*clusterBench, error) {
	inp, pool, err := simulatePool(seed, clusterPool)
	if err != nil {
		return nil, err
	}
	results, err := poolResults(inp, pool)
	if err != nil {
		return nil, err
	}
	fleet := replicateResults(results, clusterCars)
	cb := &clusterBench{}
	for s := range cb.shards {
		sh := &cb.shards[s]
		sh.id = "worker-" + strconv.Itoa(s)
		snk, err := newSink(inp, -1)
		if err != nil {
			return nil, err
		}
		cars := cluster.ShardCars(clusterCars, s, clusterShards)
		sh.cars = len(cars)
		var epochs []*sink.Snapshot
		for i, car := range cars {
			snk.Absorb(&fleet[car-1])
			if (i+1)%clusterEpochCars == 0 || i == len(cars)-1 {
				epochs = append(epochs, snk.Publish())
			}
		}
		if len(epochs) < clusterCycle {
			return nil, fmt.Errorf("shard %d publishes %d epochs, fewer than the %d cycled", s, len(epochs), clusterCycle)
		}
		encode := func(snap *sink.Snapshot) ([]byte, error) {
			return cluster.EncodePartial(&cluster.Partial{
				WorkerID: sh.id, Shard: s, NumShards: clusterShards,
				Snapshot: snap, Lineage: obs.LineageSnapshot{Conserved: true},
			})
		}
		for _, snap := range epochs[len(epochs)-clusterCycle:] {
			data, err := encode(snap)
			if err != nil {
				return nil, err
			}
			sh.cycle = append(sh.cycle, data)
			sh.epochs = append(sh.epochs, snap.Epoch)
		}
		if sh.sealed, err = encode(snk.Seal()); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(os.Stderr, "cluster_fanin: %d cars (%d-car pool, %d trips/car, gate %.2f) in %d shards, an epoch per %d cars, %d unsealed epochs cycled per shard, %d-byte partials, pull every %v\n",
		clusterCars, clusterPool.Cars, clusterPool.Trips, clusterPool.Gate, clusterShards, clusterEpochCars,
		clusterCycle, len(cb.shards[0].cycle[0]), clusterPullEvery)
	return cb, nil
}

// build assembles the system under test: pipeline (for the coordinator's
// predictor), coordinator on the in-memory transport, the registration
// of every fake worker through the control handlers, and the /v1 API
// over the merged view.
func (cb *clusterBench) build() error {
	p, err := buildPipeline()
	if err != nil {
		return err
	}
	tr := &transport{}
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
		NumShards:        clusterShards,
		PullEvery:        clusterPullEvery,
		HeartbeatTimeout: time.Hour,
		Client:           &http.Client{Transport: tr},
	})
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	coord.RegisterHandlers(mux)
	var w recorder
	for s, sh := range cb.shards {
		body, err := json.Marshal(map[string]any{
			"id": sh.id, "shard": s, "shards": clusterShards,
			"addr": "http://shard" + strconv.Itoa(s) + ".perfbench", "cars": sh.cars,
		})
		if err != nil {
			return err
		}
		req, err := http.NewRequest(http.MethodPost, "/v1/cluster/register", bytes.NewReader(body))
		if err != nil {
			return err
		}
		w.reset()
		mux.ServeHTTP(&w, req)
		if w.status != http.StatusOK {
			return fmt.Errorf("register %s: status %d: %s", sh.id, w.status, w.body.Bytes())
		}
	}
	cb.p, cb.tr, cb.coord = p, tr, coord
	cb.api = serve.NewAPI(coord, nil).
		WithPredictor(predict.NewPredictor(p.Graph, p.Router)).
		WithAnomalies(predict.NewAnomalyDetector(predict.AnomalyConfig{})).
		WithCluster(coord.WorkerHealth)
	return nil
}

// publishRound advances every fake worker to its next cycled epoch.
func (cb *clusterBench) publishRound() (<-chan struct{}, [clusterShards]uint64) {
	var parts [clusterShards]*blob
	var epochs [clusterShards]uint64
	k := cb.round % clusterCycle
	for s := range cb.shards {
		parts[s] = &blob{data: cb.shards[s].cycle[k], epoch: cb.shards[s].epochs[k]}
		epochs[s] = parts[s].epoch
	}
	cb.round++
	return cb.tr.publish(parts), epochs
}

// clusterPhase is one measured interval of rounds.
type clusterPhase struct {
	elapsed     time.Duration
	rounds      int
	latNs       []int64
	doneNs      []int64 // one entry per folded partial, at its round's end
	waitNs      []int64
	waitFirstNs int64 // Σ per round of the wait for its first pull
	busyNs      int64 // Σ round latencies
	pulls       int
	useful      int
	merges      uint64 // served epochs advanced
}

// phase runs rounds back to back for seconds, and on until at least
// minRounds, checking each one.
func (cb *clusterBench) phase(seconds float64, minRounds int, r *report) (clusterPhase, error) {
	runtime.GC()
	var ph clusterPhase
	tr := cb.tr
	tr.mu.Lock()
	pulls0, useful0, wait0 := tr.pulls, tr.useful, len(tr.waitNs)
	tr.mu.Unlock()
	watchdog := time.NewTimer(clusterRoundLimit)
	defer watchdog.Stop()
	start := time.Now()
	for time.Since(start).Seconds() < seconds || ph.rounds < minRounds {
		epoch0 := cb.coord.Snapshot().Epoch
		watchdog.Stop()
		watchdog.Reset(clusterRoundLimit)
		done, epochs := cb.publishRound()
		t0 := time.Now()
		sp := tr.tracer.Load().StartSpan("cluster.round", cb.round)
		select {
		case <-done:
		case err := <-cb.runErr:
			return ph, fmt.Errorf("coordinator stopped mid-round: %v", err)
		case <-watchdog.C:
			return ph, fmt.Errorf("round %d not served within %v", cb.round, clusterRoundLimit)
		}
		lat := time.Since(t0)
		sp.End()
		end := time.Since(start).Nanoseconds()
		ph.rounds++
		ph.latNs = append(ph.latNs, lat.Nanoseconds())
		ph.busyNs += lat.Nanoseconds()
		for range epochs {
			ph.doneNs = append(ph.doneNs, end)
		}
		ph.merges += cb.coord.Snapshot().Epoch - epoch0
		r.Attempted += clusterShards
		for _, w := range cb.coord.WorkerHealth() {
			if w.LastMergeEpoch != epochs[w.Shard] {
				r.Failed++
				r.check(false, "round %d: worker %s merged epoch %d, want %d", cb.round, w.ID, w.LastMergeEpoch, epochs[w.Shard])
			}
		}
	}
	ph.elapsed = time.Since(start)
	tr.mu.Lock()
	ph.pulls, ph.useful = tr.pulls-pulls0, tr.useful-useful0
	ph.waitNs = append([]int64(nil), tr.waitNs[wait0:]...)
	tr.mu.Unlock()
	for i := 0; i+clusterShards <= len(ph.waitNs); i += clusterShards {
		first := ph.waitNs[i]
		for _, w := range ph.waitNs[i : i+clusterShards] {
			first = min(first, w)
		}
		ph.waitFirstNs += first
	}
	wait := quantile(durationsMs(ph.waitNs), 0.5)
	round := quantile(durationsMs(ph.latNs), 0.5)
	r.check(wait <= clusterWaitShare*round, "median pull wait %.3f ms is more than %.0f%% of the median round %.3f ms",
		wait, 100*clusterWaitShare, round)
	return ph, nil
}

// seal serves the sealed partials, waits for the coordinator to finish
// and checks the final view against sink.MergeSnapshots over them.
func (cb *clusterBench) seal(r *report) error {
	var parts [clusterShards]*blob
	var want []*sink.Snapshot
	for s := range cb.shards {
		p, err := cluster.DecodePartial(cb.shards[s].sealed)
		if err != nil {
			return fmt.Errorf("decode sealed partial: %w", err)
		}
		parts[s] = &blob{data: cb.shards[s].sealed, epoch: p.Snapshot.Epoch}
		want = append(want, p.Snapshot)
	}
	cb.tr.publish(parts)
	select {
	case err := <-cb.runErr:
		r.check(err == nil, "coordinator run ended with %v", err)
	case <-time.After(clusterRoundLimit):
		return fmt.Errorf("the coordinator did not seal within %v", clusterRoundLimit)
	}
	merged, err := sink.MergeSnapshots(want...)
	if err != nil {
		return fmt.Errorf("merge sealed partials: %w", err)
	}
	got := cb.coord.Snapshot()
	r.check(got.Complete, "the served view did not seal")
	r.check(got.CarsIngested == clusterCars, "the sealed view counts %d cars, the fleet has %d", got.CarsIngested, clusterCars)
	if err := compareSnapshots(got, merged); err != nil {
		r.check(false, "sealed view differs from MergeSnapshots over the sealed partials: %v", err)
	}
	return nil
}
