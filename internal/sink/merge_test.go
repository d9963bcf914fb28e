package sink

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/roadnet"
)

// shardSnapshot runs a slice of cars through a fresh sink on the
// standard test frame and seals it — one cluster worker's output.
func shardSnapshot(t *testing.T, cars []core.CarResult) *Snapshot {
	t.Helper()
	g, err := grid.New(geo.R(0, 0, 2000, 2000), 200)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Grid: g, PublishEvery: 1, Gates: []string{"T", "S"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, cr := range cars {
		s.AbsorbEvent(core.CarEvent{Car: cr.Car, Result: cr})
	}
	return s.Seal()
}

// snapshotsEquivalent compares two snapshots value-for-value with the
// differential test's tolerance: integers, extrema and histogram
// buckets exactly; means and variances to within accumulation-order
// rounding (feq).
func snapshotsEquivalent(t *testing.T, got, want *Snapshot) {
	t.Helper()
	if got.CarsIngested != want.CarsIngested || got.CarsFailed != want.CarsFailed ||
		got.Points != want.Points || got.Complete != want.Complete {
		t.Fatalf("counter mismatch:\n got %+v\nwant %+v", got, want)
	}
	if len(got.Cells) != len(want.Cells) {
		t.Fatalf("cell count %d vs %d", len(got.Cells), len(want.Cells))
	}
	for id, w := range want.Cells {
		g, ok := got.Cells[id]
		if !ok {
			t.Fatalf("cell %v missing", id)
		}
		if g.N != w.N || g.MinKmh != w.MinKmh || g.MaxKmh != w.MaxKmh {
			t.Fatalf("cell %v: got %+v want %+v", id, g, w)
		}
		if !feq(g.MeanKmh, w.MeanKmh) || !feq(g.VarKmh, w.VarKmh) {
			t.Fatalf("cell %v moments: got %+v want %+v", id, g, w)
		}
	}
	if len(got.EdgeProfiles) != len(want.EdgeProfiles) {
		t.Fatalf("profile count %d vs %d", len(got.EdgeProfiles), len(want.EdgeProfiles))
	}
	for key, w := range want.EdgeProfiles {
		g, ok := got.EdgeProfiles[key]
		if !ok {
			t.Fatalf("profile %v missing", key)
		}
		if g.N != w.N || g.MinSPerKm != w.MinSPerKm || g.MaxSPerKm != w.MaxSPerKm {
			t.Fatalf("profile %v: got %+v want %+v", key, g, w)
		}
		if !feq(g.MeanSPerKm, w.MeanSPerKm) || !feq(g.VarSPerKm, w.VarSPerKm) {
			t.Fatalf("profile %v moments: got %+v want %+v", key, g, w)
		}
	}
	if len(got.OD) != len(want.OD) {
		t.Fatalf("OD count %d vs %d", len(got.OD), len(want.OD))
	}
	for key, w := range want.OD {
		g, ok := got.OD[key]
		if !ok {
			t.Fatalf("direction %v missing", key)
		}
		if g.Trips != w.Trips || g.Attrs != w.Attrs {
			t.Fatalf("direction %v: got %+v want %+v", key, g, w)
		}
		if !g.TravelTimeS.Equal(w.TravelTimeS) {
			t.Fatalf("direction %v travel-time histograms differ", key)
		}
		for _, m := range []struct {
			name     string
			got, wnt MetricStats
		}{
			{"dist", g.DistKm, w.DistKm},
			{"fuel", g.FuelMl, w.FuelMl},
			{"low-speed", g.LowSpeedPct, w.LowSpeedPct},
			{"normal-speed", g.NormalSpeedPct, w.NormalSpeedPct},
		} {
			if m.got.N != m.wnt.N || m.got.Min != m.wnt.Min || m.got.Max != m.wnt.Max || !feq(m.got.Mean, m.wnt.Mean) {
				t.Fatalf("direction %v metric %s: got %+v want %+v", key, m.name, m.got, m.wnt)
			}
		}
	}
}

// mergeFleet builds a deterministic 12-car fleet split across 4 shards
// plus the whole-fleet single-sink reference.
func mergeFleet(t *testing.T) (shards []*Snapshot, whole *Snapshot) {
	t.Helper()
	dirs := []string{"T-S", "S-T"}
	var all []core.CarResult
	byShard := make([][]core.CarResult, 4)
	for car := 1; car <= 12; car++ {
		var cr core.CarResult
		if car%3 == 0 {
			// A third of the fleet carries a matched route, so the merge
			// algebra is exercised over edge profiles too.
			cr = matchedCar(car, roadnet.EdgeID(car%2), 8+car%2, 100+float64(car)*10, 4)
		} else {
			cr = synthCar(car, dirs[car%2],
				10+float64(car), 25+float64(car%5)*3, 40+float64(car%3)*7, 55)
		}
		all = append(all, cr)
		byShard[car%4] = append(byShard[car%4], cr)
	}
	for _, cars := range byShard {
		shards = append(shards, shardSnapshot(t, cars))
	}
	return shards, shardSnapshot(t, all)
}

// TestMergeSnapshotsPermutationInvariance is the merge-algebra property
// test: folding the shard snapshots in any order yields the single-sink
// fleet aggregate, covering Welford cell moments, grid coverage, OD
// histograms and metric moments.
func TestMergeSnapshotsPermutationInvariance(t *testing.T) {
	shards, whole := mergeFleet(t)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 10; trial++ {
		perm := rng.Perm(len(shards))
		ordered := make([]*Snapshot, len(shards))
		for i, p := range perm {
			ordered[i] = shards[p]
		}
		merged, err := MergeSnapshots(ordered...)
		if err != nil {
			t.Fatalf("perm %v: %v", perm, err)
		}
		snapshotsEquivalent(t, merged, whole)
		if merged.Grid == nil || !sameFrame(merged.Grid, whole.Grid) {
			t.Fatalf("perm %v: frame lost in merge", perm)
		}
		if !merged.Complete {
			t.Fatalf("perm %v: all shards sealed, merge must be sealed", perm)
		}
	}
}

// TestMergeSnapshotsEmptyIdentity: the sealed empty snapshot is the
// merge identity, and merging is left- and right-identical.
func TestMergeSnapshotsEmptyIdentity(t *testing.T) {
	_, whole := mergeFleet(t)
	empty := shardSnapshot(t, nil)
	if empty.Points != 0 || len(empty.Cells) != 0 {
		t.Fatalf("empty shard not empty: %+v", empty)
	}
	for _, order := range [][]*Snapshot{{whole, empty}, {empty, whole}, {empty, whole, empty}} {
		merged, err := MergeSnapshots(order...)
		if err != nil {
			t.Fatal(err)
		}
		snapshotsEquivalent(t, merged, whole)
	}
	// Nil snapshots are skipped outright.
	merged, err := MergeSnapshots(nil, whole, nil)
	if err != nil {
		t.Fatal(err)
	}
	snapshotsEquivalent(t, merged, whole)
}

func TestMergeSnapshotsFlags(t *testing.T) {
	shards, _ := mergeFleet(t)
	unsealed := *shards[0]
	unsealed.Complete = false
	merged, err := MergeSnapshots(shards[1], &unsealed)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Complete {
		t.Fatal("one unsealed shard must keep the fleet unsealed")
	}
	if merged.Epoch != max(shards[0].Epoch, shards[1].Epoch) {
		t.Fatalf("epoch must be the max, got %d", merged.Epoch)
	}
	if m, err := MergeSnapshots(); err != nil || m.Complete || m.Points != 0 {
		t.Fatalf("zero-input merge: %+v, %v", m, err)
	}
}

func TestMergeSnapshotsRejectsFrameMismatch(t *testing.T) {
	shards, _ := mergeFleet(t)

	other, err := grid.New(geo.R(0, 0, 1000, 1000), 100)
	if err != nil {
		t.Fatal(err)
	}
	foreign := *shards[0]
	foreign.Grid = other
	if _, err := MergeSnapshots(shards[1], &foreign); !errors.Is(err, ErrFrameMismatch) {
		t.Fatalf("want ErrFrameMismatch, got %v", err)
	}

	regates := *shards[0]
	regates.Gates = []string{"T", "S", "K"}
	if _, err := MergeSnapshots(shards[1], &regates); !errors.Is(err, ErrFrameMismatch) {
		t.Fatalf("want ErrFrameMismatch for gate skew, got %v", err)
	}
}

func TestMergeSnapshotsRejectsLayoutMismatch(t *testing.T) {
	_, whole := mergeFleet(t)

	// Re-decode the fleet snapshot with a tampered histogram layout
	// stamp: the cross-layout rejection must survive the wire. Merging
	// with the untampered original overlaps on every direction, so the
	// foreign layout is guaranteed to meet a native one.
	blob := EncodeSnapshot(whole)
	key := ODKey{From: "T", To: "S"}
	hist, err := whole.OD[key].TravelTimeS.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(blob, hist)
	if i < 0 {
		t.Fatal("histogram bytes not found in snapshot encoding")
	}
	blob[i+1]++ // SubBits of the embedded layout stamp
	foreign, err := DecodeSnapshot(blob)
	if err != nil {
		t.Fatalf("tampered layout still decodes (rejection happens at merge): %v", err)
	}
	if _, err := MergeSnapshots(whole, foreign); !errors.Is(err, obs.ErrLayoutMismatch) {
		t.Fatalf("want ErrLayoutMismatch, got %v", err)
	}
}
