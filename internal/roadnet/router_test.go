package roadnet

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/digiroad"
	"repro/internal/geo"
)

// refWeight wraps DistanceWeight in a closure so the router classifies
// it as custom and runs the historical unidirectional Dijkstra — the
// reference the bidirectional search is checked against.
func refWeight(e *Edge, forward bool) float64 { return DistanceWeight(e, forward) }

func TestBidirectionalMatchesDijkstra(t *testing.T) {
	g, err := Build(gridDB(t, 8))
	if err != nil {
		t.Fatal(err)
	}
	r := g.Router()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		from := NodeID(rng.Intn(len(g.Nodes)))
		to := NodeID(rng.Intn(len(g.Nodes)))
		bi, errB := r.bidirectional(from, to, DistanceWeight) // bypass the cache: always search
		uni, errU := r.ShortestPath(from, to, refWeight)
		if (errB == nil) != (errU == nil) {
			t.Fatalf("trial %d (%d->%d): error mismatch %v vs %v", trial, from, to, errB, errU)
		}
		if errB != nil {
			continue
		}
		if !almostEq(bi.Cost, uni.Cost, 1e-9) {
			t.Fatalf("trial %d (%d->%d): bidirectional %f vs dijkstra %f", trial, from, to, bi.Cost, uni.Cost)
		}
		// The stitched path must be a connected walk of the right cost.
		var walked float64
		cur := from
		for _, s := range bi.Steps {
			if s.Forward && s.Edge.From != cur {
				t.Fatalf("trial %d: disconnected step at %d", trial, cur)
			}
			if !s.Forward && s.Edge.To != cur {
				t.Fatalf("trial %d: disconnected step at %d", trial, cur)
			}
			walked += DistanceWeight(s.Edge, s.Forward)
			cur = s.Edge.Other(cur)
		}
		if cur != to || !almostEq(walked, bi.Cost, 1e-9) {
			t.Fatalf("trial %d: walk ends at %d (want %d), cost %f vs %f", trial, cur, to, walked, bi.Cost)
		}
	}
}

func TestBidirectionalRespectsOneWay(t *testing.T) {
	// Same layout as TestShortestPathRespectsOneWay, driven through the
	// bidirectional kernel directly so the search itself is exercised:
	// the backward frontier must expand one-way edges in their legal
	// travel direction only.
	db := buildDB(t, []digiroad.TrafficElement{
		el(1, 40, digiroad.FlowBackward, 0, 0, 100, 0), // B->A only
		el(2, 40, digiroad.FlowBoth, 0, 0, 0, 80),
		el(3, 40, digiroad.FlowBoth, 0, 80, 100, 0),
		el(4, 40, digiroad.FlowBoth, 0, 0, -50, 0),
		el(5, 40, digiroad.FlowBoth, 100, 0, 150, 0),
	})
	g, err := Build(db)
	if err != nil {
		t.Fatal(err)
	}
	r := g.Router()
	a := nodeAt(t, g, geo.V(0, 0))
	b := nodeAt(t, g, geo.V(100, 0))
	pab, err := r.bidirectional(a, b, DistanceWeight)
	if err != nil {
		t.Fatal(err)
	}
	if pab.Length < 150 {
		t.Fatalf("A->B must detour, got length %f", pab.Length)
	}
	pba, err := r.bidirectional(b, a, DistanceWeight)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(pba.Length, 100, 1e-9) {
		t.Fatalf("B->A must use the one-way, got length %f", pba.Length)
	}
}

func TestRouterPathCache(t *testing.T) {
	g, err := Build(gridDB(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	r := g.Router()
	from := nodeAt(t, g, geo.V(100, 100))
	to := nodeAt(t, g, geo.V(400, 300))

	p1, err := r.ShortestPath(from, to, DistanceWeight)
	if err != nil {
		t.Fatal(err)
	}
	s := r.CacheStats()
	if s.Misses != 1 || s.Hits != 0 || s.Entries != 1 {
		t.Fatalf("after first query: %+v", s)
	}
	p2, err := r.ShortestPath(from, to, DistanceWeight)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("cached query must return the memoised path")
	}
	if s := r.CacheStats(); s.Hits != 1 {
		t.Fatalf("after second query: %+v", s)
	}

	// Distinct weight kinds are distinct cache keys.
	if _, err := r.ShortestPath(from, to, TravelTimeWeight); err != nil {
		t.Fatal(err)
	}
	if s := r.CacheStats(); s.Misses != 2 || s.Entries != 2 {
		t.Fatalf("after travel-time query: %+v", s)
	}

	// Custom weights bypass the cache entirely.
	if _, err := r.ShortestPath(from, to, refWeight); err != nil {
		t.Fatal(err)
	}
	if s := r.CacheStats(); s.Misses != 2 || s.Hits != 1 {
		t.Fatalf("custom weight touched the cache: %+v", s)
	}
}

func TestRouterCachesNoPath(t *testing.T) {
	db := buildDB(t, []digiroad.TrafficElement{
		el(1, 40, digiroad.FlowBoth, 0, 0, 100, 0),
		el(2, 40, digiroad.FlowBoth, 1000, 0, 1100, 0),
	})
	g, err := Build(db)
	if err != nil {
		t.Fatal(err)
	}
	r := g.Router()
	from := nodeAt(t, g, geo.V(0, 0))
	to := nodeAt(t, g, geo.V(1100, 0))
	for i := 0; i < 2; i++ {
		if _, err := r.ShortestPath(from, to, DistanceWeight); err != ErrNoPath {
			t.Fatalf("attempt %d: err = %v, want ErrNoPath", i, err)
		}
	}
	if s := r.CacheStats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("unreachable pair must be cached: %+v", s)
	}
}

func TestRouterCacheEviction(t *testing.T) {
	g, err := Build(gridDB(t, 6))
	if err != nil {
		t.Fatal(err)
	}
	// Tiny cache: one path per shard.
	r := newRouter(g)
	r.cache = newPathCache(16)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		from := NodeID(rng.Intn(len(g.Nodes)))
		to := NodeID(rng.Intn(len(g.Nodes)))
		if _, err := r.ShortestPath(from, to, DistanceWeight); err != nil && err != ErrNoPath {
			t.Fatal(err)
		}
	}
	s := r.CacheStats()
	if s.Entries > 16 {
		t.Fatalf("cache exceeded its capacity: %+v", s)
	}
	// With 500 random pairs through a 16-path cache, evictions must have
	// happened, and the counter must reconcile with what is left:
	// insertions (= misses) minus evictions equals live entries.
	if s.Evictions == 0 {
		t.Fatalf("expected evictions on an overflowing cache: %+v", s)
	}
	if got := s.Misses - s.Evictions; got != uint64(s.Entries) {
		t.Fatalf("misses(%d) - evictions(%d) = %d, want Entries = %d",
			s.Misses, s.Evictions, got, s.Entries)
	}
	// Per-shard occupancy must sum to the total and respect the
	// per-shard cap (16 paths over 16 shards = 1 each).
	sum := 0
	for i := range r.cache.shards {
		n := len(r.cache.shards[i].entries)
		sum += n
		if n > 1 {
			t.Fatalf("shard %d holds %d entries, per-shard cap is 1", i, n)
		}
	}
	if sum != s.Entries {
		t.Fatalf("shard occupancy sums to %d, Entries = %d", sum, s.Entries)
	}
}

// TestDistanceBatchMatchesShortestDistances checks bounded
// one-to-many trees against point-to-point queries: a node is in a
// source's tree exactly when its shortest distance is within the bound,
// and at that distance.
func TestDistanceBatchMatchesShortestDistances(t *testing.T) {
	g, err := Build(gridDB(t, 6))
	if err != nil {
		t.Fatal(err)
	}
	r := g.Router()
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		bound := 150 + rng.Float64()*400
		batch := r.NewDistanceBatch(DistanceWeight, bound)
		sources := []NodeID{
			NodeID(rng.Intn(len(g.Nodes))),
			NodeID(rng.Intn(len(g.Nodes))),
			NodeID(rng.Intn(len(g.Nodes))),
		}
		for _, s := range sources {
			batch.AddSource(s)
			batch.AddSource(s) // idempotent
		}
		for _, s := range sources {
			reached := 0
			for n := range g.Nodes {
				to := NodeID(n)
				p, err := r.ShortestPath(s, to, DistanceWeight)
				if err != nil {
					t.Fatalf("point query %d->%d on a connected grid: %v", s, to, err)
				}
				d, ok := batch.Dist(s, to)
				if ok != (p.Cost <= bound) {
					t.Fatalf("trial %d %d->%d: in tree = %v, point query cost %f, bound %f", trial, s, to, ok, p.Cost, bound)
				}
				if !ok {
					continue
				}
				reached++
				if !almostEq(d, p.Cost, 1e-9) {
					t.Fatalf("trial %d %d->%d: tree %f vs point query %f", trial, s, to, d, p.Cost)
				}
			}
			// Every grid node has a neighbour 100 m away, and the bound
			// is at least 150 m.
			if reached < 2 {
				t.Fatalf("trial %d source %d: tree too small (%d nodes)", trial, s, reached)
			}
		}
		if _, ok := batch.Dist(NodeID(len(g.Nodes)+5), 0); ok {
			t.Fatal("unknown source must report !ok")
		}
		batch.Release()
	}
}

func TestDistanceBatchInvalid(t *testing.T) {
	g, err := Build(gridDB(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	r := g.Router()
	b := r.NewDistanceBatch(nil, 100)
	defer b.Release()
	b.AddSource(NodeID(-1))
	b.AddSource(NodeID(len(g.Nodes)))
	if len(b.sources) != 0 {
		t.Fatalf("out-of-range sources must be ignored, got %v", b.sources)
	}
	if _, ok := b.Dist(NodeID(-1), 0); ok {
		t.Fatal("invalid source must report !ok")
	}

	unbounded := r.NewDistanceBatch(nil, 0)
	defer unbounded.Release()
	unbounded.AddSource(0)
	for n := range g.Nodes {
		if _, ok := unbounded.Dist(0, NodeID(n)); !ok {
			t.Fatalf("non-positive bound must mean unbounded: node %d unreached", n)
		}
	}
}

func TestRouterConcurrentUse(t *testing.T) {
	g, err := Build(gridDB(t, 7))
	if err != nil {
		t.Fatal(err)
	}
	// A small cache, so evictions race with lookups.
	r := newRouter(g)
	r.cache = newPathCache(64)
	const workers = 8

	// Reference answers computed serially first.
	type query struct{ from, to NodeID }
	rng := rand.New(rand.NewSource(23))
	queries := make([]query, 64)
	want := make([]float64, len(queries))
	for i := range queries {
		queries[i] = query{NodeID(rng.Intn(len(g.Nodes))), NodeID(rng.Intn(len(g.Nodes)))}
		p, err := r.ShortestPath(queries[i].from, queries[i].to, DistanceWeight)
		if err != nil {
			want[i] = -1
		} else {
			want[i] = p.Cost
		}
	}

	var wg sync.WaitGroup
	errs := make(chan string, workers*len(queries))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				for i, q := range queries {
					p, err := r.ShortestPath(q.from, q.to, DistanceWeight)
					switch {
					case err != nil && want[i] >= 0,
						err == nil && want[i] < 0,
						err == nil && !almostEq(p.Cost, want[i], 1e-9):
						errs <- "concurrent result diverged"
						return
					}
					// Interleave batch queries to stress the scratch pool.
					if i%16 == 0 {
						b := r.NewDistanceBatch(DistanceWeight, 300)
						b.AddSource(q.from)
						b.Dist(q.from, q.to)
						b.Release()
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

func TestGraphRouterIsShared(t *testing.T) {
	g, err := Build(gridDB(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	if g.Router() != g.Router() {
		t.Fatal("Graph.Router must return one shared engine")
	}
}
