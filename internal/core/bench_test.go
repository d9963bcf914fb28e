package core

import "testing"

// BenchmarkNewPipeline measures map preparation for one pipeline: the
// seed-42 city with its road and object indexes, the road graph, the
// fleet generator, the OD selector, the matcher and the attribute
// fetcher.
func BenchmarkNewPipeline(b *testing.B) {
	cfg := determinismConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewPipeline(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
