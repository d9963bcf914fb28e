package segment_test

import (
	"fmt"
	"time"

	"repro/internal/geo"
	"repro/internal/segment"
	"repro/internal/trace"
)

func ExampleSplitColumns() {
	// An engine-on trip: drive east, wait 5 minutes at a stand
	// (heartbeat points), drive on — rule 1 splits it in two.
	t0 := time.Date(2012, 10, 1, 8, 0, 0, 0, time.UTC)
	tr := &trace.Trip{ID: 1, CarID: 1}
	add := func(x float64, at time.Time) {
		tr.Points = append(tr.Points, trace.RoutePoint{
			PointID: len(tr.Points) + 1, TripID: 1,
			Pos: geo.V(x, 0), Time: at,
		})
	}
	at := t0
	for i := 0; i < 6; i++ { // customer run 1
		add(float64(i)*200, at)
		at = at.Add(30 * time.Second)
	}
	for w := 0; w < 4; w++ { // stand: no movement for 5 minutes
		at = at.Add(75 * time.Second)
		add(1000, at)
	}
	for i := 0; i < 6; i++ { // customer run 2
		add(1000+float64(i)*200, at)
		at = at.Add(30 * time.Second)
	}

	// The kernel reads an arena-backed view; the segments it returns
	// are subviews of it.
	arena := trace.NewArena(len(tr.Points))
	v, err := arena.AppendTrip(tr)
	if err != nil {
		panic(err)
	}
	segs := segment.SplitColumns(v, segment.DefaultRules(), nil, nil)
	for i, s := range segs {
		fmt.Printf("segment %d: %d points, %.1f km\n",
			i+1, s.Len(), s.PathLength()/1000)
	}
	// Output:
	// segment 1: 6 points, 1.0 km
	// segment 2: 6 points, 1.0 km
}
