package roadnet

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
)

// Router is the reusable shortest-path engine over one Graph. It is the
// hot core of the whole pipeline: incremental map-matching gap filling,
// the HMM matcher's one-to-many searches, fleet-simulator route choice
// and the driving-coach reference routes all run through it, millions
// of times per city-scale run.
//
// Compared with the naive per-call Dijkstra it replaces, the Router
//
//   - keeps per-goroutine search scratch in a sync.Pool: dense
//     dist/prev/visited arrays indexed by node ordinal and validated by
//     an epoch stamp, so a new search costs one integer increment
//     instead of fresh map allocations;
//   - pools the priority queues inside that scratch;
//   - answers point-to-point queries with bidirectional Dijkstra,
//     touching roughly the square root of the nodes plain Dijkstra
//     settles;
//   - memoises paths for the canonical weights (DistanceWeight,
//     TravelTimeWeight) in a sharded LRU cache of pathCachePaths paths
//     keyed by (from, to, weight-kind), with hit/miss counters.
//
// Each Graph has exactly one Router, returned by Graph.Router, so every
// stage routing over the graph shares its scratch pools and path cache.
// A Router is safe for concurrent use. Returned *Path values may be
// shared between goroutines and must be treated as immutable.
type Router struct {
	g       *Graph
	scratch sync.Pool // *searchScratch
	batches sync.Pool // *DistanceBatch
	cache   *pathCache
	hits    atomic.Uint64
	misses  atomic.Uint64
}

// pathCachePaths caps the number of memoised paths across all cache
// shards.
const pathCachePaths = 8192

// newRouter builds g's routing engine. Use Graph.Router, which builds
// it once per graph.
func newRouter(g *Graph) *Router {
	r := &Router{g: g, cache: newPathCache(pathCachePaths)}
	r.scratch.New = func() interface{} { return newSearchScratch(len(g.Nodes)) }
	r.batches.New = func() interface{} { return &DistanceBatch{} }
	return r
}

// CacheStats reports the path-cache hit/miss/eviction counters and the
// number of paths currently cached.
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Entries   int
}

// HitRate returns hits/(hits+misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// CacheStats returns a snapshot of the path-cache counters.
func (r *Router) CacheStats() CacheStats {
	return CacheStats{
		Hits:      r.hits.Load(),
		Misses:    r.misses.Load(),
		Evictions: r.cache.evictions.Load(),
		Entries:   r.cache.len(),
	}
}

// --- weight classification -------------------------------------------------

// weightKind classifies a WeightFunc for cache keying. Only the two
// canonical weights are cacheable; arbitrary closures (e.g. the fleet
// simulator's per-driver preference noise) are not.
type weightKind uint8

const (
	weightCustom weightKind = iota
	weightDistance
	weightTravelTime
)

var (
	distanceWeightPtr   = reflect.ValueOf(DistanceWeight).Pointer()
	travelTimeWeightPtr = reflect.ValueOf(TravelTimeWeight).Pointer()
)

func classifyWeight(w WeightFunc) (WeightFunc, weightKind) {
	if w == nil {
		return DistanceWeight, weightDistance
	}
	switch reflect.ValueOf(w).Pointer() {
	case distanceWeightPtr:
		return w, weightDistance
	case travelTimeWeightPtr:
		return w, weightTravelTime
	}
	return w, weightCustom
}

// --- search scratch --------------------------------------------------------

// searchScratch is the reusable state of one search: dense arrays
// indexed by node ordinal, validated by an epoch counter so that reuse
// costs a single increment instead of clearing. Two banks (forward and
// backward) serve the bidirectional search; unidirectional searches use
// the forward bank only.
type searchScratch struct {
	epoch uint32

	fwd, bwd scratchBank
}

type scratchBank struct {
	seen     []uint32 // epoch stamp: entry valid iff seen[n] == epoch
	done     []uint32 // epoch stamp: node settled
	dist     []float64
	prevEdge []EdgeID
	prevNode []NodeID
	touched  []NodeID // nodes stamped this epoch, for result extraction
	pq       priorityQueue
}

func newSearchScratch(n int) *searchScratch {
	s := &searchScratch{}
	s.fwd = newScratchBank(n)
	s.bwd = newScratchBank(n)
	return s
}

func newScratchBank(n int) scratchBank {
	return scratchBank{
		seen:     make([]uint32, n),
		done:     make([]uint32, n),
		dist:     make([]float64, n),
		prevEdge: make([]EdgeID, n),
		prevNode: make([]NodeID, n),
	}
}

// next advances the epoch, clearing the stamp arrays only on the
// (practically unreachable) uint32 wraparound.
func (s *searchScratch) next() uint32 {
	s.epoch++
	if s.epoch == 0 {
		for i := range s.fwd.seen {
			s.fwd.seen[i], s.fwd.done[i] = 0, 0
			s.bwd.seen[i], s.bwd.done[i] = 0, 0
		}
		s.epoch = 1
	}
	s.fwd.pq = s.fwd.pq[:0]
	s.bwd.pq = s.bwd.pq[:0]
	s.fwd.touched = s.fwd.touched[:0]
	s.bwd.touched = s.bwd.touched[:0]
	return s.epoch
}

func (b *scratchBank) relax(epoch uint32, v NodeID, d float64, via EdgeID, from NodeID) bool {
	if b.seen[v] == epoch && b.dist[v] <= d {
		return false
	}
	if b.seen[v] != epoch {
		b.seen[v] = epoch
		b.touched = append(b.touched, v)
	}
	b.dist[v] = d
	b.prevEdge[v] = via
	b.prevNode[v] = from
	return true
}

func (r *Router) getScratch() *searchScratch { return r.scratch.Get().(*searchScratch) }
func (r *Router) putScratch(s *searchScratch) {
	// Keep pooled banks sized to the graph (a Router is bound to one
	// graph, so this only matters for the zero value safety).
	r.scratch.Put(s)
}

// --- public API ------------------------------------------------------------

// ShortestPath returns the least-cost path from one node to another
// under the given weight (nil selects DistanceWeight). Canonical
// weights are answered from the sharded path cache when possible and
// computed with bidirectional Dijkstra otherwise; custom weights run
// plain Dijkstra (identical relaxation order to the historical
// implementation, so seeded generators reproduce byte-identical
// routes).
func (r *Router) ShortestPath(from, to NodeID, weight WeightFunc) (*Path, error) {
	if err := r.checkNodes(from, to); err != nil {
		return nil, err
	}
	weight, kind := classifyWeight(weight)
	if kind == weightCustom {
		return r.dijkstra(from, to, weight)
	}
	key := pathKey{from: from, to: to, kind: kind}
	if p, ok := r.cache.get(key); ok {
		r.hits.Add(1)
		if p == nil {
			return nil, ErrNoPath
		}
		return p, nil
	}
	r.misses.Add(1)
	p, err := r.bidirectional(from, to, weight)
	if err != nil && err != ErrNoPath {
		return nil, err
	}
	r.cache.put(key, p) // nil records unreachability
	if p == nil {
		return nil, ErrNoPath
	}
	return p, nil
}

func (r *Router) checkNodes(from, to NodeID) error {
	if int(from) < 0 || int(from) >= len(r.g.Nodes) || int(to) < 0 || int(to) >= len(r.g.Nodes) {
		return fmt.Errorf("%w (from=%d, to=%d, n=%d)", ErrNodeOutOfRange, from, to, len(r.g.Nodes))
	}
	return nil
}

// --- unidirectional Dijkstra -----------------------------------------------

// dijkstra mirrors the historical map-based implementation on dense
// scratch: identical relaxation and pop order, so results (including
// tie-breaks and the edge order seen by stateful custom weights) are
// byte-identical to the pre-Router code.
func (r *Router) dijkstra(from, to NodeID, weight WeightFunc) (*Path, error) {
	g := r.g
	s := r.getScratch()
	defer r.putScratch(s)
	epoch := s.next()
	b := &s.fwd

	b.seen[from] = epoch
	b.dist[from] = 0
	b.prevNode[from] = from
	b.touched = append(b.touched, from)

	b.pq.push(pqItem{node: from, cost: 0})

	for len(b.pq) > 0 {
		it := b.pq.pop()
		u := it.node
		if b.done[u] == epoch {
			continue
		}
		b.done[u] = epoch
		if u == to {
			break
		}
		du := b.dist[u]
		for _, eid := range g.Nodes[u].Edges {
			e := &g.Edges[eid]
			if e.From == e.To {
				continue // self-loops never shorten a path
			}
			forward := e.From == u
			if !e.CanTraverse(forward) {
				continue
			}
			w := weight(e, forward)
			if math.IsInf(w, 1) || w < 0 {
				continue
			}
			v := e.Other(u)
			if b.relax(epoch, v, du+w, eid, u) {
				b.pq.push(pqItem{node: v, cost: du + w})
			}
		}
	}
	if b.done[to] != epoch && from != to {
		if b.seen[to] != epoch {
			return nil, ErrNoPath
		}
	}
	return b.reconstruct(g, from, to, epoch), nil
}

// reconstruct walks the forward prev chain from `to` back to `from` and
// materialises a Path (travel order).
func (b *scratchBank) reconstruct(g *Graph, from, to NodeID, epoch uint32) *Path {
	path := &Path{Cost: 0}
	if b.seen[to] == epoch {
		path.Cost = b.dist[to]
	}
	at := to
	for at != from {
		eid := b.prevEdge[at]
		e := &g.Edges[eid]
		u := b.prevNode[at]
		path.Steps = append(path.Steps, PathStep{Edge: e, Forward: e.From == u})
		path.Length += e.Length
		at = u
	}
	for i, j := 0, len(path.Steps)-1; i < j; i, j = i+1, j-1 {
		path.Steps[i], path.Steps[j] = path.Steps[j], path.Steps[i]
	}
	path.Nodes = make([]NodeID, 0, len(path.Steps)+1)
	path.Nodes = append(path.Nodes, from)
	cur := from
	for _, s := range path.Steps {
		cur = s.Edge.Other(cur)
		path.Nodes = append(path.Nodes, cur)
	}
	return path
}

// --- bidirectional Dijkstra ------------------------------------------------

// bidirectional runs Dijkstra simultaneously from the origin (forward,
// respecting flow directions) and the destination (backward, traversing
// edges against travel direction) and stops once the frontiers prove
// the best meeting point optimal. Deterministic: ties are broken by the
// heap's stable pop order and strict improvement tests, so repeated
// queries return identical paths.
func (r *Router) bidirectional(from, to NodeID, weight WeightFunc) (*Path, error) {
	if from == to {
		return &Path{Nodes: []NodeID{from}}, nil
	}
	g := r.g
	s := r.getScratch()
	defer r.putScratch(s)
	epoch := s.next()
	f, bk := &s.fwd, &s.bwd

	f.seen[from] = epoch
	f.dist[from] = 0
	f.prevNode[from] = from
	f.touched = append(f.touched, from)
	f.pq.push(pqItem{node: from, cost: 0})

	bk.seen[to] = epoch
	bk.dist[to] = 0
	bk.prevNode[to] = to
	bk.touched = append(bk.touched, to)
	bk.pq.push(pqItem{node: to, cost: 0})

	best := math.Inf(1)
	meet := NodeID(-1)

	// consider updates the best meeting point through node v.
	consider := func(v NodeID) {
		if f.seen[v] == epoch && bk.seen[v] == epoch {
			if c := f.dist[v] + bk.dist[v]; c < best {
				best = c
				meet = v
			}
		}
	}

	// expand settles the top of one bank's queue. dir=true expands the
	// forward search.
	expand := func(b *scratchBank, forwardSearch bool) {
		it := b.pq.pop()
		u := it.node
		if b.done[u] == epoch {
			return
		}
		b.done[u] = epoch
		du := b.dist[u]
		for _, eid := range g.Nodes[u].Edges {
			e := &g.Edges[eid]
			if e.From == e.To {
				continue
			}
			v := e.Other(u)
			// Travel orientation of the traversal this relaxation
			// models: forward search drives u->v; backward search
			// extends paths that drive v->u.
			var travelForward bool
			if forwardSearch {
				travelForward = e.From == u
			} else {
				travelForward = e.From == v
			}
			if !e.CanTraverse(travelForward) {
				continue
			}
			w := weight(e, travelForward)
			if math.IsInf(w, 1) || w < 0 {
				continue
			}
			if b.relax(epoch, v, du+w, eid, u) {
				b.pq.push(pqItem{node: v, cost: du + w})
				consider(v)
			}
		}
	}

	for len(f.pq) > 0 || len(bk.pq) > 0 {
		topF, topB := math.Inf(1), math.Inf(1)
		if len(f.pq) > 0 {
			topF = f.pq[0].cost
		}
		if len(bk.pq) > 0 {
			topB = bk.pq[0].cost
		}
		if topF+topB >= best {
			break // the best meeting point is provably optimal
		}
		// Expand the cheaper frontier (ties: forward) — the classic
		// alternation that keeps both balls of equal radius.
		if topF <= topB {
			expand(f, true)
		} else {
			expand(bk, false)
		}
	}
	if meet < 0 {
		return nil, ErrNoPath
	}

	// Stitch: forward half from->meet, then backward half meet->to.
	path := &Path{Cost: best}
	at := meet
	for at != from {
		eid := f.prevEdge[at]
		e := &g.Edges[eid]
		u := f.prevNode[at]
		path.Steps = append(path.Steps, PathStep{Edge: e, Forward: e.From == u})
		at = u
	}
	for i, j := 0, len(path.Steps)-1; i < j; i, j = i+1, j-1 {
		path.Steps[i], path.Steps[j] = path.Steps[j], path.Steps[i]
	}
	at = meet
	for at != to {
		eid := bk.prevEdge[at]
		e := &g.Edges[eid]
		u := bk.prevNode[at] // next node toward the destination
		path.Steps = append(path.Steps, PathStep{Edge: e, Forward: e.From == at})
		at = u
	}
	for _, st := range path.Steps {
		path.Length += st.Edge.Length
	}
	path.Nodes = make([]NodeID, 0, len(path.Steps)+1)
	path.Nodes = append(path.Nodes, from)
	cur := from
	for _, st := range path.Steps {
		cur = st.Edge.Other(cur)
		path.Nodes = append(path.Nodes, cur)
	}
	return path, nil
}

// bounded runs Dijkstra from `from` into bank b, stopping at maxCost.
func (r *Router) bounded(b *scratchBank, epoch uint32, from NodeID, weight WeightFunc, maxCost float64) {
	g := r.g
	b.seen[from] = epoch
	b.dist[from] = 0
	b.prevNode[from] = from
	b.touched = append(b.touched, from)
	b.pq.push(pqItem{node: from, cost: 0})
	for len(b.pq) > 0 {
		it := b.pq.pop()
		u := it.node
		if b.done[u] == epoch {
			continue
		}
		du := b.dist[u]
		if du > maxCost {
			continue
		}
		b.done[u] = epoch
		for _, eid := range g.Nodes[u].Edges {
			e := &g.Edges[eid]
			if e.From == e.To {
				continue
			}
			forward := e.From == u
			if !e.CanTraverse(forward) {
				continue
			}
			w := weight(e, forward)
			if math.IsInf(w, 1) || w < 0 {
				continue
			}
			if nd := du + w; nd <= maxCost {
				v := e.Other(u)
				if b.relax(epoch, v, nd, eid, u) {
					b.pq.push(pqItem{node: v, cost: nd})
				}
			}
		}
	}
}

// --- one-to-many batches ---------------------------------------------------

// nodeDist is one settled node of a distance tree.
type nodeDist struct {
	node NodeID
	dist float64
}

// DistanceBatch answers many (source, target) network-distance lookups
// sharing a small set of sources — the HMM matcher's per-layer access
// pattern. Each source's bounded Dijkstra runs through the router's
// pooled scratch and is stored as a compact sorted slice, so the batch
// allocates no per-query maps. Release returns the batch to the pool.
//
// A DistanceBatch is NOT safe for concurrent use; each goroutine should
// obtain its own.
type DistanceBatch struct {
	r       *Router
	weight  WeightFunc
	maxCost float64
	sources []NodeID
	lists   [][]nodeDist
}

// NewDistanceBatch starts a batch of bounded one-to-many queries under
// one weight (nil selects DistanceWeight) and bound (<= 0 = unbounded).
func (r *Router) NewDistanceBatch(weight WeightFunc, maxCost float64) *DistanceBatch {
	weight, _ = classifyWeight(weight)
	if maxCost <= 0 {
		maxCost = math.Inf(1)
	}
	b := r.batches.Get().(*DistanceBatch)
	b.r = r
	b.weight = weight
	b.maxCost = maxCost
	return b
}

// AddSource computes (or reuses) the distance tree rooted at n.
func (b *DistanceBatch) AddSource(n NodeID) {
	if int(n) < 0 || int(n) >= len(b.r.g.Nodes) {
		return
	}
	for _, s := range b.sources {
		if s == n {
			return
		}
	}
	s := b.r.getScratch()
	epoch := s.next()
	b.r.bounded(&s.fwd, epoch, n, b.weight, b.maxCost)

	var list []nodeDist
	if len(b.lists) > len(b.sources) { // reuse a released slice
		list = b.lists[len(b.sources)][:0]
		b.lists = b.lists[:len(b.sources)]
	}
	for _, v := range s.fwd.touched {
		if s.fwd.done[v] == epoch && s.fwd.dist[v] <= b.maxCost {
			list = append(list, nodeDist{node: v, dist: s.fwd.dist[v]})
		}
	}
	b.r.putScratch(s)
	sort.Slice(list, func(i, j int) bool { return list[i].node < list[j].node })
	b.sources = append(b.sources, n)
	b.lists = append(b.lists, list)
}

// Dist returns the network distance from a previously added source to a
// node; ok is false when the source is unknown or the node lies beyond
// the batch bound.
func (b *DistanceBatch) Dist(source, to NodeID) (float64, bool) {
	for i, s := range b.sources {
		if s != source {
			continue
		}
		list := b.lists[i]
		lo, hi := 0, len(list)
		for lo < hi {
			mid := (lo + hi) / 2
			if list[mid].node < to {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(list) && list[lo].node == to {
			return list[lo].dist, true
		}
		return 0, false
	}
	return 0, false
}

// Release returns the batch (and its backing slices) to the router's
// pool. The batch must not be used afterwards.
func (b *DistanceBatch) Release() {
	r := b.r
	b.r = nil
	b.weight = nil
	b.sources = b.sources[:0]
	// Keep lists' backing arrays for reuse; AddSource re-slices them.
	if r != nil {
		r.batches.Put(b)
	}
}

// --- sharded LRU path cache ------------------------------------------------

const pathCacheShards = 16

type pathKey struct {
	from, to NodeID
	kind     weightKind
}

// pathCache is a sharded LRU keyed by (from, to, weight-kind). A nil
// value records a proven "no path" so unreachable pairs are not
// re-searched.
type pathCache struct {
	shards    [pathCacheShards]cacheShard
	evictions atomic.Uint64
}

type cacheShard struct {
	mu      sync.Mutex
	cap     int
	entries map[pathKey]*cacheEntry
	head    *cacheEntry // most recently used
	tail    *cacheEntry // least recently used
}

type cacheEntry struct {
	key        pathKey
	path       *Path
	prev, next *cacheEntry
}

func newPathCache(totalCap int) *pathCache {
	perShard := (totalCap + pathCacheShards - 1) / pathCacheShards
	if perShard < 1 {
		perShard = 1
	}
	c := &pathCache{}
	for i := range c.shards {
		c.shards[i].cap = perShard
		c.shards[i].entries = make(map[pathKey]*cacheEntry, perShard)
	}
	return c
}

func (c *pathCache) shard(k pathKey) *cacheShard {
	h := uint64(k.from)*0x9e3779b97f4a7c15 ^ uint64(k.to)*0xbf58476d1ce4e5b9 ^ uint64(k.kind)
	h ^= h >> 29
	return &c.shards[h%pathCacheShards]
}

func (c *pathCache) get(k pathKey) (*Path, bool) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[k]
	if !ok {
		return nil, false
	}
	s.moveToFront(e)
	return e.path, true
}

func (c *pathCache) put(k pathKey, p *Path) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[k]; ok {
		e.path = p
		s.moveToFront(e)
		return
	}
	e := &cacheEntry{key: k, path: p}
	s.entries[k] = e
	s.pushFront(e)
	if len(s.entries) > s.cap {
		lru := s.tail
		s.unlink(lru)
		delete(s.entries, lru.key)
		c.evictions.Add(1)
	}
}

func (c *pathCache) len() int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += len(c.shards[i].entries)
		c.shards[i].mu.Unlock()
	}
	return n
}

func (s *cacheShard) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *cacheShard) unlink(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *cacheShard) moveToFront(e *cacheEntry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}
