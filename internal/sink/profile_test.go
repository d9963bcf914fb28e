package sink

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/mapmatch"
	"repro/internal/roadnet"
	"repro/internal/stats"
)

// matchedCar builds a synthCar whose transition carries a match: every
// span point assigned to the given edge, paced at paceSPerKm, starting
// at the given hour of day.
func matchedCar(car int, edge roadnet.EdgeID, hour int, paceSPerKm float64, points int) core.CarResult {
	cr := synthCar(car, "T-S", make([]float64, points)...)
	rec := cr.Transitions[0]
	base := time.Date(2022, 3, 1, hour, 0, 0, 0, time.UTC)
	match := &mapmatch.Result{}
	const stepM = 100.0
	stepS := paceSPerKm * stepM / 1000
	for i := range rec.Transition.Seg.Points {
		rec.Transition.Seg.Points[i].Time = base.Add(time.Duration(float64(i) * stepS * float64(time.Second)))
		match.Points = append(match.Points, mapmatch.MatchedPoint{
			Index: i, Edge: edge,
			Proj: geo.ProjectResult{Along: float64(i) * stepM},
		})
	}
	rec.Match = match
	return cr
}

func TestSinkLearnsEdgeProfiles(t *testing.T) {
	s := testSink(t, 1)
	s.AbsorbEvent(core.CarEvent{Car: 1, Result: matchedCar(1, 7, 8, 120, 4)})
	s.AbsorbEvent(core.CarEvent{Car: 2, Result: matchedCar(2, 7, 8, 180, 4)})
	s.AbsorbEvent(core.CarEvent{Car: 3, Result: matchedCar(3, 9, 17, 90, 4)})
	// An unmatched car contributes cells and OD but no profile.
	s.AbsorbEvent(core.CarEvent{Car: 4, Result: synthCar(4, "T-S", 30, 40)})
	snap := s.Seal()

	if len(snap.EdgeProfiles) != 2 {
		t.Fatalf("profiles = %+v, want buckets (7,8) and (9,17)", snap.EdgeProfiles)
	}
	rush := snap.EdgeProfiles[EdgeProfileKey{Edge: 7, Hour: 8}]
	if rush.N != 2 || math.Abs(rush.MeanSPerKm-150) > 1e-9 {
		t.Fatalf("bucket (7,8) = %+v, want n=2 mean=150", rush)
	}
	if rush.MinSPerKm >= rush.MaxSPerKm {
		t.Fatalf("bucket (7,8) extrema not ordered: %+v", rush)
	}
	evening := snap.EdgeProfiles[EdgeProfileKey{Edge: 9, Hour: 17}]
	if evening.N != 1 || math.Abs(evening.MeanSPerKm-90) > 1e-9 || evening.VarSPerKm != 0 {
		t.Fatalf("bucket (9,17) = %+v, want n=1 mean=90 var=0", evening)
	}
}

// profileFixture is a snapshot carrying only edge profiles — the
// codec's new v2 section in isolation.
func profileFixture(epoch uint64) *Snapshot {
	return &Snapshot{
		Epoch: epoch, Points: 4,
		EdgeProfiles: map[EdgeProfileKey]EdgeProfileStats{
			{Edge: 3, Hour: 8}:  {N: 4, MeanSPerKm: 140, VarSPerKm: 25, MinSPerKm: 130, MaxSPerKm: 150},
			{Edge: 3, Hour: 17}: {N: 2, MeanSPerKm: 200, VarSPerKm: 50, MinSPerKm: 195, MaxSPerKm: 205},
			{Edge: 11, Hour: 8}: {N: 1, MeanSPerKm: 90, MinSPerKm: 90, MaxSPerKm: 90},
		},
	}
}

func TestSnapshotCodecProfileRoundTrip(t *testing.T) {
	// Both a profiles-only snapshot and a full sealed fleet snapshot
	// that actually learned profiles must survive the wire byte-exactly.
	s := testSink(t, 1)
	s.AbsorbEvent(core.CarEvent{Car: 1, Result: matchedCar(1, 7, 8, 120, 4)})
	s.AbsorbEvent(core.CarEvent{Car: 2, Result: matchedCar(2, 9, 9, 150, 4)})
	sealed := s.Seal()
	sealed.PublishedAt = time.Unix(1646130000, 123456789)

	for name, want := range map[string]*Snapshot{
		"profiles only": profileFixture(5),
		"sealed fleet":  sealed,
	} {
		t.Run(name, func(t *testing.T) {
			got, err := DecodeSnapshot(EncodeSnapshot(want))
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(got.EdgeProfiles, want.EdgeProfiles) {
				t.Fatalf("profiles round-trip mismatch:\n got %+v\nwant %+v", got.EdgeProfiles, want.EdgeProfiles)
			}
		})
	}
}

// asV1 rewrites a v2 blob of a profile-less snapshot into its exact v1
// encoding: same bytes minus the trailing nProfiles=0 uvarint, with the
// version byte set back to 1.
func asV1(t *testing.T, blob []byte) []byte {
	t.Helper()
	if blob[len(blob)-1] != 0 {
		t.Fatal("fixture must encode zero profiles to be rewritable as v1")
	}
	v1 := append([]byte(nil), blob[:len(blob)-1]...)
	v1[8] = snapshotVersionV1
	return v1
}

func TestSnapshotCodecDecodesV1(t *testing.T) {
	want := codecFixture(t, 6)
	v1 := asV1(t, EncodeSnapshot(want))

	got, err := DecodeSnapshot(v1)
	if err != nil {
		t.Fatalf("v1 blob must stay decodable: %v", err)
	}
	if got.EdgeProfiles != nil {
		t.Fatalf("v1 blob decoded with profiles: %+v", got.EdgeProfiles)
	}
	if got.Epoch != want.Epoch || got.Points != want.Points || !reflect.DeepEqual(got.OD, want.OD) {
		t.Fatalf("v1 decode drift:\n got %+v\nwant %+v", got, want)
	}
	// Re-encoding upgrades to the current version and stays decodable.
	blob := EncodeSnapshot(got)
	if blob[8] != snapshotVersion {
		t.Fatalf("re-encode version = %d, want %d", blob[8], snapshotVersion)
	}
	if _, err := DecodeSnapshot(blob); err != nil {
		t.Fatalf("upgraded blob must decode: %v", err)
	}

	t.Run("v1 truncations rejected", func(t *testing.T) {
		for cut := 0; cut < len(v1); cut++ {
			if _, err := DecodeSnapshot(v1[:cut]); !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("cut=%d: want ErrBadSnapshot, got %v", cut, err)
			}
		}
	})
	t.Run("v1 with trailing profile section rejected", func(t *testing.T) {
		// The old format has no profile section: leftover bytes where v2
		// would put one must fail as trailing garbage, not silently parse.
		if _, err := DecodeSnapshot(append(append([]byte(nil), v1...), 0)); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("want ErrBadSnapshot, got %v", err)
		}
	})
}

func TestMergeSnapshotsProfiles(t *testing.T) {
	a := &Snapshot{Epoch: 1, EdgeProfiles: map[EdgeProfileKey]EdgeProfileStats{
		{Edge: 3, Hour: 8}: newEdgeProfileStatsOf(100, 120, 140),
		{Edge: 5, Hour: 8}: newEdgeProfileStatsOf(200),
	}}
	b := &Snapshot{Epoch: 2, EdgeProfiles: map[EdgeProfileKey]EdgeProfileStats{
		{Edge: 3, Hour: 8}: newEdgeProfileStatsOf(160, 180),
		{Edge: 7, Hour: 9}: newEdgeProfileStatsOf(90, 95),
	}}
	m, err := MergeSnapshots(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.EdgeProfiles) != 3 {
		t.Fatalf("merged profiles = %+v, want 3 buckets", m.EdgeProfiles)
	}
	// The overlapping bucket must equal one accumulator over the union.
	want := newEdgeProfileStatsOf(100, 120, 140, 160, 180)
	got := m.EdgeProfiles[EdgeProfileKey{Edge: 3, Hour: 8}]
	if got.N != want.N || math.Abs(got.MeanSPerKm-want.MeanSPerKm) > 1e-9 ||
		math.Abs(got.VarSPerKm-want.VarSPerKm) > 1e-6 ||
		got.MinSPerKm != want.MinSPerKm || got.MaxSPerKm != want.MaxSPerKm {
		t.Fatalf("merged bucket = %+v, want %+v", got, want)
	}
	// Disjoint buckets pass through untouched.
	if m.EdgeProfiles[EdgeProfileKey{Edge: 5, Hour: 8}] != a.EdgeProfiles[EdgeProfileKey{Edge: 5, Hour: 8}] {
		t.Fatal("disjoint bucket from a mutated by merge")
	}
	if m.EdgeProfiles[EdgeProfileKey{Edge: 7, Hour: 9}] != b.EdgeProfiles[EdgeProfileKey{Edge: 7, Hour: 9}] {
		t.Fatal("disjoint bucket from b mutated by merge")
	}
}

func newEdgeProfileStatsOf(xs ...float64) EdgeProfileStats {
	var w stats.Welford
	for _, x := range xs {
		w.Add(x)
	}
	return newEdgeProfileStats(&w)
}
