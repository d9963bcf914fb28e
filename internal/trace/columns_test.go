package trace

import (
	"errors"
	"math"
	"testing"
	"time"
)

func TestArenaAppendTripRoundTrip(t *testing.T) {
	a := NewArena(0)
	orig := mkTrip(7, 0, 0, 100, 0, 100, 50)
	orig.CarID = 3
	v, err := a.AppendTrip(orig)
	if err != nil {
		t.Fatalf("AppendTrip: %v", err)
	}
	if v.ID != 7 || v.CarID != 3 || v.Len() != 3 {
		t.Fatalf("view = %+v", v)
	}
	for i := range orig.Points {
		p := &orig.Points[i]
		if int(v.PointID(i)) != p.PointID || v.Pos(i) != p.Pos ||
			!v.Time(i).Equal(p.Time) || v.Time(i).Location() != time.UTC ||
			v.Speed(i) != p.SpeedKmh || v.Fuel(i) != p.FuelMl || v.Dist(i) != p.DistM {
			t.Fatalf("point %d: view %+v != %+v", i, v.Point(i), *p)
		}
	}
	if got, want := v.PathLength(), PathLength(orig.Points); got != want {
		t.Fatalf("PathLength = %v, want %v", got, want)
	}

	back := v.Materialize(false)
	if back.ID != orig.ID || back.CarID != orig.CarID || len(back.Points) != len(orig.Points) {
		t.Fatalf("materialised header mismatch: %+v", back)
	}
	for i := range back.Points {
		if back.Points[i] != orig.Points[i] {
			t.Fatalf("point %d: %+v != %+v", i, back.Points[i], orig.Points[i])
		}
	}
	if back.TimeSorted() {
		t.Fatal("Materialize(false) must not mark time-sorted")
	}
	if !v.Materialize(true).TimeSorted() {
		t.Fatal("Materialize(true) must mark time-sorted")
	}
}

func TestArenaAppendTripRejections(t *testing.T) {
	a := NewArena(0)
	cases := map[string]func(tr *Trip){
		"point id overflow": func(tr *Trip) { tr.Points[1].PointID = 1 << 40 },
		"zero time":         func(tr *Trip) { tr.Points[0].Time = time.Time{} },
		"pre-epoch time":    func(tr *Trip) { tr.Points[0].Time = time.Date(1600, 1, 1, 0, 0, 0, 0, time.UTC) },
		"non-UTC time":      func(tr *Trip) { tr.Points[2].Time = tr.Points[2].Time.In(time.FixedZone("X", 3600)) },
		"foreign trip id":   func(tr *Trip) { tr.Points[1].TripID = 99 },
	}
	for name, corrupt := range cases {
		tr := mkTrip(1, 0, 0, 10, 0, 20, 0)
		corrupt(tr)
		if _, err := a.AppendTrip(tr); !errors.Is(err, ErrUnrepresentable) {
			t.Errorf("%s: err = %v, want ErrUnrepresentable", name, err)
		}
		if a.Len() != 0 {
			t.Fatalf("%s: rejection left %d rows in the arena", name, a.Len())
		}
	}
	// 64-bit PointID values that fit int32 must survive.
	ok := mkTrip(2, 0, 0, 10, 0)
	if _, err := a.AppendTrip(ok); err != nil {
		t.Fatalf("valid trip rejected: %v", err)
	}
}

func TestArenaResetAndReuse(t *testing.T) {
	a := NewArena(4)
	if a.Len() != 0 {
		t.Fatalf("fresh arena has %d rows", a.Len())
	}
	a.AppendTrip(mkTrip(1, 0, 0, 10, 0))
	a.AppendTrip(mkTrip(2, 5, 5, 6, 6, 7, 7))
	if a.Len() != 5 {
		t.Fatalf("arena rows = %d, want 5", a.Len())
	}
	a.Reset()
	if a.Len() != 0 {
		t.Fatalf("reset arena has %d rows", a.Len())
	}
	v, err := a.AppendTrip(mkTrip(3, 1, 1, 2, 2))
	if err != nil || v.Off != 0 || v.Len() != 2 {
		t.Fatalf("reuse after reset: v=%+v err=%v", v, err)
	}
}

func TestColTripSub(t *testing.T) {
	a := NewArena(0)
	v, _ := a.AppendTrip(mkTrip(1, 0, 0, 10, 0, 20, 0, 30, 0))
	s := v.Sub(1, 3)
	if s.Len() != 2 || s.PointID(0) != 2 || s.PointID(1) != 3 || s.ID != v.ID {
		t.Fatalf("Sub(1,3) = %+v", s)
	}
	ss := s.Sub(1, 2)
	if ss.Len() != 1 || ss.PointID(0) != 3 {
		t.Fatalf("nested Sub = %+v", ss)
	}
	for _, bad := range [][2]int{{-1, 2}, {2, 1}, {0, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Sub(%d,%d) did not panic", bad[0], bad[1])
				}
			}()
			v.Sub(bad[0], bad[1])
		}()
	}
}

func TestMaterializeAll(t *testing.T) {
	a := NewArena(0)
	v1, _ := a.AppendTrip(mkTrip(1, 0, 0, 10, 0))
	v2, _ := a.AppendTrip(mkTrip(2, 5, 5, 6, 6, 7, 7))
	trips := MaterializeAll([]ColTrip{v1, v2.Sub(1, 3)}, true)
	if len(trips) != 2 {
		t.Fatalf("got %d trips", len(trips))
	}
	if len(trips[0].Points) != 2 || len(trips[1].Points) != 2 {
		t.Fatalf("point counts %d/%d", len(trips[0].Points), len(trips[1].Points))
	}
	if trips[1].Points[0].PointID != 2 {
		t.Fatalf("subview materialised wrong points: %+v", trips[1].Points)
	}
	for _, tr := range trips {
		if !tr.TimeSorted() {
			t.Fatal("MaterializeAll(true) must mark trips time-sorted")
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	// The shared slab must not alias across trips: appending to one
	// trip's Points (full slice capacity) must not clobber the next.
	trips[0].Points = append(trips[0].Points, trips[0].Points[0])
	if trips[1].Points[0].PointID != 2 {
		t.Fatal("slab aliasing: growing trip 0 clobbered trip 1")
	}

	if got := MaterializeAll(nil, true); len(got) != 0 {
		t.Fatalf("MaterializeAll(nil) = %v", got)
	}
}

func TestTimeSortedStartEnd(t *testing.T) {
	tr := mkTrip(1, 0, 0, 10, 0, 20, 0)
	want0, want2 := tr.Points[0].Time, tr.Points[2].Time
	// Out of order and unmarked: scan finds the true min/max.
	tr.Points[0], tr.Points[2] = tr.Points[2], tr.Points[0]
	if tr.StartTime() != want0 || tr.EndTime() != want2 {
		t.Fatal("unmarked trip must scan for start/end")
	}
	// Sorted and marked: O(1) endpoints agree with the scan.
	tr.Points[0], tr.Points[2] = tr.Points[2], tr.Points[0]
	tr.MarkTimeSorted()
	if !tr.TimeSorted() || tr.StartTime() != want0 || tr.EndTime() != want2 {
		t.Fatal("marked trip endpoints diverge from scan")
	}
	if !tr.Clone().TimeSorted() {
		t.Fatal("Clone must preserve the time-sorted mark")
	}
}

// BenchmarkStartEndTime demonstrates the satellite win: endpoint
// queries on cleaned (marked) trips are O(1) instead of O(n).
func BenchmarkStartEndTime(b *testing.B) {
	coords := make([]float64, 0, 2000)
	for i := 0; i < 1000; i++ {
		coords = append(coords, float64(i), 0)
	}
	tr := mkTrip(1, coords...)
	run := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if tr.StartTime().After(tr.EndTime()) {
				b.Fatal("impossible")
			}
		}
	}
	b.Run("scan", run)
	tr.MarkTimeSorted()
	b.Run("marked", run)
}

// TestColTripTimeSub compares TimeSub with time.Time.Sub at the
// column's time extremes, where the int64 difference overflows and
// must saturate to the Duration range the way Sub does.
func TestColTripTimeSub(t *testing.T) {
	const maxNs, minNs = math.MaxInt64, math.MinInt64
	cases := []struct{ j, i int64 }{
		{0, 0},
		{1_000, 0},
		{0, 1_000},
		{maxNs, 0},
		{0, maxNs},
		{minNs, 0},
		{0, minNs},
		{maxNs, -1},     // one past MaxInt64: saturates
		{-1, maxNs},     // MinInt64 exactly
		{-2, maxNs},     // one past MinInt64: saturates
		{maxNs, minNs},  // the widest span, forwards
		{minNs, maxNs},  // and backwards
		{maxNs, maxNs},  // equal extremes
		{minNs + 1, 1},  // MinInt64 exactly
		{minNs + 1, 2},  // one past MinInt64: saturates
		{maxNs - 1, -1}, // MaxInt64 exactly
	}
	all := NewArena(0).Alloc(0, 0, 2*len(cases))
	for k, tc := range cases {
		all.Cols.TimesNs[2*k], all.Cols.TimesNs[2*k+1] = tc.j, tc.i
	}
	for k, tc := range cases {
		v := all.Sub(2*k, 2*k+2)
		want := v.Time(0).Sub(v.Time(1))
		if got := v.TimeSub(0, 1); got != want {
			t.Errorf("TimeSub(%d ns, %d ns) = %d, time.Time.Sub gives %d", tc.j, tc.i, got, want)
		}
	}
}
