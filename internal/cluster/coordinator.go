package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/sink"
)

// CoordinatorConfig assembles the merge/serve side of a cluster.
type CoordinatorConfig struct {
	// NumShards fixes the cluster geometry; a worker registering with
	// a different shard count is rejected (409), the cluster analogue
	// of sink.ErrFrameMismatch.
	NumShards int
	// PullEvery paces the partial-pull loop (default 100ms).
	PullEvery time.Duration
	// HeartbeatTimeout is the staleness bound: a worker whose last
	// register, heartbeat or drain is older than this is lost (default
	// 2s). Partial pulls do not count as being heard from.
	HeartbeatTimeout time.Duration
	// MaxFailures / MaxFailureFrac budget worker losses with
	// runner.Config semantics, resolved against NumShards via
	// runner.Config.Budget — the same arithmetic the in-process fleet
	// runner applies to failed cars. Zero values tolerate any number
	// of losses (a replacement can always re-register); MaxFailures<0
	// aborts on the first loss.
	MaxFailures    int
	MaxFailureFrac float64
	// TopCars caps the merged lineage's per-car table (default 10).
	TopCars int
	Metrics *obs.Registry
	Log     *slog.Logger
	Client  *http.Client
	// Now is the staleness clock (default time.Now; injectable for
	// tests).
	Now func() time.Time
}

func (c CoordinatorConfig) withDefaults() (CoordinatorConfig, error) {
	if c.NumShards <= 0 {
		return c, fmt.Errorf("cluster: coordinator needs NumShards >= 1, got %d", c.NumShards)
	}
	if c.PullEvery <= 0 {
		c.PullEvery = 100 * time.Millisecond
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 2 * time.Second
	}
	if c.TopCars == 0 {
		c.TopCars = 10
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 5 * time.Second}
	}
	if c.Log == nil {
		c.Log = slog.New(discardHandler{})
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c, nil
}

// workerState is the coordinator's book-keeping for one registration.
type workerState struct {
	id       string
	shard    int
	addr     string
	cars     int
	lastSeen time.Time
	epoch    uint64 // worker-reported current epoch
	sealed   bool   // worker-reported
	merged   uint64 // this worker's epoch last folded into the view
	lost     bool
	drained  bool
}

// shardState holds the latest partial accepted for one shard slot.
type shardState struct {
	owner   string
	epoch   uint64
	snap    *sink.Snapshot
	lineage obs.LineageSnapshot
}

// mergedView is the immutable serving value: the merged snapshot plus
// the merged lineage table, swapped atomically so /v1 readers never
// see a half-merged state.
type mergedView struct {
	snap    *sink.Snapshot
	lineage obs.LineageSnapshot
}

// Coordinator pulls per-epoch partial snapshots from registered
// workers, merges them into the global serving snapshot, and exposes
// the cluster control endpoints. It implements serve.Source, so the
// existing /v1 query API mounts directly on the merged view.
type Coordinator struct {
	cfg CoordinatorConfig

	mu      sync.Mutex
	workers map[string]*workerState
	shards  []shardState
	// losses counts every lost-worker transition; recovered counts the
	// lost workers that came back (heartbeat, or re-registration under
	// the same id). The loss budget is charged the OUTSTANDING losses
	// (losses - recovered): a worker that blips out and returns is not a
	// permanently spent failure, so repeated blips must not accumulate
	// into a spurious budget abort. A superseding registration under a
	// NEW id recovers nothing — the original worker really died.
	losses      int
	recovered   int
	registered  int    // registrations ever accepted
	mergeSeq    uint64 // serving epoch: bumped on every view rebuild
	fatal       error  // merge-algebra violation; Run aborts with it
	sealedShard int    // shards whose accepted partial is sealed

	view atomic.Pointer[mergedView]

	met coordinatorMetrics
}

type coordinatorMetrics struct {
	workers    *obs.Gauge
	losses     *obs.Counter
	merges     *obs.Counter
	pullErrors *obs.Counter
	mergeTime  *obs.Histogram
}

// NewCoordinator builds a coordinator; call RegisterHandlers to mount
// its control endpoints and Run to start the pull/merge loop.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:     cfg,
		workers: map[string]*workerState{},
		shards:  make([]shardState, cfg.NumShards),
		met: coordinatorMetrics{
			workers:    cfg.Metrics.Gauge("cluster_workers"),
			losses:     cfg.Metrics.Counter("cluster_worker_losses_total"),
			merges:     cfg.Metrics.Counter("cluster_merges_total"),
			pullErrors: cfg.Metrics.Counter("cluster_pull_errors_total"),
			mergeTime:  cfg.Metrics.Histogram("cluster_merge_seconds"),
		},
	}
	c.view.Store(&mergedView{snap: &sink.Snapshot{}, lineage: obs.LineageSnapshot{Conserved: true}})
	return c, nil
}

// Snapshot implements serve.Source: the latest merged view. Its Epoch
// is the coordinator's own merge sequence (monotonic even across
// worker restarts, which reset worker-local epochs), so the /v1 ETag
// contract — equal epochs imply equal answers — holds cluster-wide.
func (c *Coordinator) Snapshot() *sink.Snapshot { return c.view.Load().snap }

// LineageSnapshot returns the merged drop-reason ledger: the workers'
// stage rows summed by MergeLineageSnapshots plus the coordinator's
// own "cluster" row accounting workers in = alive/drained + lost.
func (c *Coordinator) LineageSnapshot() obs.LineageSnapshot { return c.view.Load().lineage }

// Sealed reports whether every shard's accepted partial is sealed —
// the merged snapshot is the complete fleet aggregate.
func (c *Coordinator) Sealed() bool { return c.Snapshot().Complete }

// WorkerHealth lists the per-worker admin view, sorted by shard then
// id — the payload behind GET /v1/cluster/workers and the coordinator
// healthz.
func (c *Coordinator) WorkerHealth() []WorkerHealth {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Now()
	out := make([]WorkerHealth, 0, len(c.workers))
	for _, w := range c.workers {
		out = append(out, WorkerHealth{
			ID:             w.id,
			Shard:          w.shard,
			Addr:           w.addr,
			Epoch:          w.epoch,
			LastMergeEpoch: w.merged,
			StalenessS:     now.Sub(w.lastSeen).Seconds(),
			Sealed:         w.sealed,
			Lost:           w.lost,
			Drained:        w.drained,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Shard != out[j].Shard {
			return out[i].Shard < out[j].Shard
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// RegisterHandlers mounts the cluster control endpoints on mux.
func (c *Coordinator) RegisterHandlers(mux *http.ServeMux) {
	mux.HandleFunc("/v1/cluster/register", c.handleRegister)
	mux.HandleFunc("/v1/cluster/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("/v1/cluster/drain", c.handleDrain)
	mux.HandleFunc("/v1/cluster/workers", c.handleWorkers)
}

func decodeBody(rw http.ResponseWriter, r *http.Request, into any) bool {
	if r.Method != http.MethodPost {
		http.Error(rw, "method not allowed", http.StatusMethodNotAllowed)
		return false
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err == nil {
		err = json.Unmarshal(data, into)
	}
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(rw http.ResponseWriter, v any) {
	rw.Header().Set("Content-Type", "application/json")
	json.NewEncoder(rw).Encode(v)
}

func (c *Coordinator) handleRegister(rw http.ResponseWriter, r *http.Request) {
	var req registerRequest
	if !decodeBody(rw, r, &req) {
		return
	}
	if req.Shards != c.cfg.NumShards {
		http.Error(rw, fmt.Sprintf("cluster runs %d shards, worker built for %d",
			c.cfg.NumShards, req.Shards), http.StatusConflict)
		return
	}
	if req.Shard < 0 || req.Shard >= c.cfg.NumShards || req.ID == "" {
		http.Error(rw, "bad shard or empty id", http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	// Last registration wins the shard: a replacement (same or new id)
	// supersedes the previous owner, whose later partials are ignored.
	for _, w := range c.workers {
		if w.shard == req.Shard && w.id != req.ID && !w.lost && !w.drained {
			w.drained = true
		}
	}
	// The same worker re-registering after being swept as lost is a
	// recovery: its earlier loss is no longer outstanding.
	if old := c.workers[req.ID]; old != nil && old.lost && !old.drained {
		c.recovered++
	}
	c.workers[req.ID] = &workerState{
		id:       req.ID,
		shard:    req.Shard,
		addr:     req.Addr,
		cars:     req.Cars,
		lastSeen: c.cfg.Now(),
	}
	c.registered++
	c.met.workers.Set(int64(c.liveLocked()))
	c.mu.Unlock()
	c.cfg.Log.Info("cluster worker registered", "worker", req.ID, "shard", req.Shard, "addr", req.Addr)
	writeJSON(rw, registerResponse{OK: true})
}

func (c *Coordinator) handleHeartbeat(rw http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if !decodeBody(rw, r, &req) {
		return
	}
	c.mu.Lock()
	w, ok := c.workers[req.ID]
	if !ok {
		c.mu.Unlock()
		http.Error(rw, "unknown worker (re-register)", http.StatusNotFound)
		return
	}
	w.lastSeen = c.cfg.Now()
	w.epoch = req.Epoch
	w.sealed = req.Sealed
	if w.lost {
		// A worker presumed dead is talking again: it resumes serving
		// and its loss is no longer outstanding. The cumulative
		// cluster_worker_losses_total metric keeps the transition — only
		// the budget charge is released.
		w.lost = false
		c.recovered++
		c.met.workers.Set(int64(c.liveLocked()))
	}
	merged := w.merged
	c.mu.Unlock()
	writeJSON(rw, heartbeatResponse{MergedEpoch: merged})
}

func (c *Coordinator) handleDrain(rw http.ResponseWriter, r *http.Request) {
	var req drainRequest
	if !decodeBody(rw, r, &req) {
		return
	}
	c.mu.Lock()
	if w, ok := c.workers[req.ID]; ok {
		w.drained = true
		w.lastSeen = c.cfg.Now()
	}
	c.met.workers.Set(int64(c.liveLocked()))
	c.mu.Unlock()
	writeJSON(rw, registerResponse{OK: true})
}

func (c *Coordinator) handleWorkers(rw http.ResponseWriter, r *http.Request) {
	writeJSON(rw, c.WorkerHealth())
}

// liveLocked counts workers currently serving (registered, not lost,
// not drained). Callers hold c.mu.
func (c *Coordinator) liveLocked() int {
	n := 0
	for _, w := range c.workers {
		if !w.lost && !w.drained {
			n++
		}
	}
	return n
}

// Run drives the pull/merge loop until the merged view seals (every
// shard's final partial folded — returns nil), the context ends, or
// the worker-loss budget is spent (returns an error wrapping
// runner.ErrBudgetExceeded). The serving view stays available after
// Run returns.
func (c *Coordinator) Run(ctx context.Context) error {
	tick := time.NewTicker(c.cfg.PullEvery)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
		if err := c.sweep(); err != nil {
			return err
		}
		c.pullAll(ctx)
		c.mu.Lock()
		fatal, sealed := c.fatal, c.sealedShard == c.cfg.NumShards
		c.mu.Unlock()
		if fatal != nil {
			return fatal
		}
		if sealed {
			c.cfg.Log.Info("cluster sealed", "epoch", c.Snapshot().Epoch)
			return nil
		}
	}
}

// sweep detects lost workers by heartbeat staleness and charges them
// to the loss budget. A lost worker's shard keeps its last accepted
// partial, so the serving view degrades to stale-but-correct until a
// replacement re-registers and overwrites the slot.
func (c *Coordinator) sweep() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Now()
	for _, w := range c.workers {
		if w.lost || w.drained {
			continue
		}
		if now.Sub(w.lastSeen) > c.cfg.HeartbeatTimeout {
			w.lost = true
			c.losses++
			c.met.losses.Inc()
			c.met.workers.Set(int64(c.liveLocked()))
			c.cfg.Log.Warn("cluster worker lost", "worker", w.id, "shard", w.shard,
				"staleness", now.Sub(w.lastSeen), "losses", c.losses)
		}
	}
	budget := runner.Config{MaxFailures: c.cfg.MaxFailures, MaxFailureFrac: c.cfg.MaxFailureFrac}.
		Budget(c.cfg.NumShards)
	if outstanding := c.losses - c.recovered; budget >= 0 && outstanding > budget {
		return fmt.Errorf("cluster: %d workers lost (%d in total, %d recovered), budget %d: %w",
			outstanding, c.losses, c.recovered, budget, runner.ErrBudgetExceeded)
	}
	return nil
}

// pullAll fetches partials from every serving worker and folds fresh
// ones into the view.
func (c *Coordinator) pullAll(ctx context.Context) {
	c.mu.Lock()
	targets := make([]*workerState, 0, len(c.workers))
	for _, w := range c.workers {
		if !w.lost && !w.drained {
			targets = append(targets, w)
		}
	}
	c.mu.Unlock()
	for _, w := range targets {
		c.pullOne(ctx, w.id, w.addr)
	}
}

func (c *Coordinator) pullOne(ctx context.Context, id, addr string) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/v1/cluster/partial", nil)
	if err != nil {
		return
	}
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		c.met.pullErrors.Inc()
		return
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<28))
	if err != nil || resp.StatusCode != http.StatusOK {
		c.met.pullErrors.Inc()
		return
	}
	p, err := DecodePartial(data)
	if err != nil {
		c.met.pullErrors.Inc()
		c.cfg.Log.Warn("cluster partial rejected", "worker", id, "err", err)
		return
	}
	c.accept(id, p)
}

// accept folds a pulled partial into the shard table and rebuilds the
// serving view if it changed anything. The view is always rebuilt from
// scratch over the latest partial per shard, which is what makes
// acceptance at-most-once per (worker, epoch): re-pulling the same
// epoch is a no-op, a newer epoch replaces — never double-counts — its
// shard slot, and a restarted worker's fresh run replaces the slot
// wholesale.
func (c *Coordinator) accept(pulledFrom string, p *Partial) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p.NumShards != c.cfg.NumShards || p.Shard < 0 || p.Shard >= c.cfg.NumShards {
		c.cfg.Log.Warn("cluster partial for wrong geometry", "worker", p.WorkerID,
			"shard", p.Shard, "shards", p.NumShards)
		return
	}
	w, ok := c.workers[p.WorkerID]
	if !ok || w.lost || w.drained || p.WorkerID != pulledFrom {
		return // superseded owner; ignore its late partials
	}
	cur := &c.shards[p.Shard]
	if cur.owner == p.WorkerID && cur.epoch == p.Snapshot.Epoch {
		if w.merged < p.Snapshot.Epoch {
			w.merged = p.Snapshot.Epoch
		}
		return // already folded this (worker, epoch)
	}
	cur.owner = p.WorkerID
	cur.epoch = p.Snapshot.Epoch
	cur.snap = p.Snapshot
	cur.lineage = p.Lineage
	if err := c.rebuildLocked(); err != nil {
		// A merge-algebra violation (frame or histogram-layout skew) is
		// a deployment bug, not a transient: poison the run but keep
		// the last good view serving.
		c.fatal = fmt.Errorf("cluster: merging partial from %s: %w", p.WorkerID, err)
		c.cfg.Log.Error("cluster merge failed", "worker", p.WorkerID, "err", err)
		return
	}
	w.merged = p.Snapshot.Epoch
}

// rebuildLocked recomputes the merged view from the latest partial of
// every populated shard. Callers hold c.mu.
func (c *Coordinator) rebuildLocked() error {
	start := time.Now()
	snaps := make([]*sink.Snapshot, 0, len(c.shards))
	lineages := make([]obs.LineageSnapshot, 0, len(c.shards))
	sealed := 0
	for i := range c.shards {
		if c.shards[i].snap == nil {
			continue
		}
		snaps = append(snaps, c.shards[i].snap)
		lineages = append(lineages, c.shards[i].lineage)
		if c.shards[i].snap.Complete {
			sealed++
		}
	}
	merged, err := sink.MergeSnapshots(snaps...)
	if err != nil {
		return err
	}
	// Sealed means the whole fleet is in: every shard populated and
	// final, not merely every pulled shard.
	if len(snaps) < c.cfg.NumShards {
		merged.Complete = false
	}
	c.sealedShard = 0
	if merged.Complete {
		c.sealedShard = sealed
	}
	c.mergeSeq++
	merged.Epoch = c.mergeSeq
	merged.PublishedAt = c.cfg.Now()

	lineage := obs.MergeLineageSnapshots(c.cfg.TopCars, lineages...)
	lineage.Stages = append(lineage.Stages, c.clusterRowLocked())
	c.view.Store(&mergedView{snap: merged, lineage: lineage})
	c.met.merges.Inc()
	c.met.mergeTime.Observe(time.Since(start).Seconds())
	return nil
}

// clusterRowLocked is the coordinator's own lineage row, counting
// workers rather than points: every registration either still serves
// (or drained deliberately, or recovered from a blip) or remains lost
// to staleness, so conservation (in = out + dropped) holds by
// construction at every instant. Only OUTSTANDING losses are dropped —
// a recovered worker is back in the out column, which also keeps the
// subtraction from underflowing when one worker blips repeatedly.
func (c *Coordinator) clusterRowLocked() obs.StageSnapshot {
	outstanding := c.losses - c.recovered
	row := obs.StageSnapshot{
		Stage:     "cluster",
		Unit:      "workers",
		In:        uint64(c.registered),
		Out:       uint64(c.registered - outstanding),
		Dropped:   uint64(outstanding),
		Conserved: true,
	}
	if outstanding > 0 {
		row.Reasons = []obs.ReasonCount{{Reason: "worker_lost", N: uint64(outstanding)}}
	}
	return row
}
