package roadnet

// Router micro-benchmarks over the seed-42 synthetic Oulu city; `make
// bench-router` snapshots them into results/BENCH_router.json.

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/digiroad"
)

var (
	benchGraphOnce sync.Once
	benchGraph     *Graph
	benchGraphErr  error
)

// benchCity builds the bench city's road graph once per test binary.
func benchCity(b *testing.B) *Graph {
	b.Helper()
	benchGraphOnce.Do(func() {
		city := digiroad.SynthesizeOulu(digiroad.SynthConfig{Seed: 42})
		benchGraph, benchGraphErr = Build(city.DB)
	})
	if benchGraphErr != nil {
		b.Fatalf("bench city: %v", benchGraphErr)
	}
	return benchGraph
}

// routerBenchPairs picks random connected node pairs over the bench
// city, reused by the router micro-benchmarks. The searches bypass the
// path cache, so no benchmark starts warm.
func routerBenchPairs(b *testing.B, g *Graph, n int) [][2]NodeID {
	b.Helper()
	r := g.Router()
	rng := rand.New(rand.NewSource(19))
	pairs := make([][2]NodeID, 0, n)
	for len(pairs) < n {
		from := NodeID(rng.Intn(len(g.Nodes)))
		to := NodeID(rng.Intn(len(g.Nodes)))
		if _, err := r.bidirectional(from, to, DistanceWeight); err != nil {
			continue
		}
		pairs = append(pairs, [2]NodeID{from, to})
	}
	return pairs
}

// BenchmarkShortestPath measures uncached point-to-point routing: the
// bidirectional Dijkstra kernel on pooled scratch.
func BenchmarkShortestPath(b *testing.B) {
	g := benchCity(b)
	pairs := routerBenchPairs(b, g, 64)
	r := g.Router()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		if _, err := r.bidirectional(p[0], p[1], DistanceWeight); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShortestPathCached measures the same queries answered from
// the sharded LRU path cache.
func BenchmarkShortestPathCached(b *testing.B) {
	g := benchCity(b)
	pairs := routerBenchPairs(b, g, 64)
	// A router of its own, so the hit-rate metric counts these queries only.
	r := newRouter(g)
	for _, p := range pairs { // warm the cache
		if _, err := r.ShortestPath(p[0], p[1], DistanceWeight); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		if _, err := r.ShortestPath(p[0], p[1], DistanceWeight); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(r.CacheStats().HitRate(), "hit-rate")
}

// BenchmarkShortestDistancesBatch measures the HMM matcher's one-to-many
// primitive: a pooled batch of bounded Dijkstra trees plus lookups.
func BenchmarkShortestDistancesBatch(b *testing.B) {
	g := benchCity(b)
	pairs := routerBenchPairs(b, g, 64)
	r := g.Router()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		batch := r.NewDistanceBatch(DistanceWeight, 800)
		batch.AddSource(p[0])
		batch.AddSource(p[1])
		batch.Dist(p[0], p[1])
		batch.Dist(p[1], p[0])
		batch.Release()
	}
}
