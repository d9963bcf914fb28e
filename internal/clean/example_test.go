package clean_test

import (
	"fmt"
	"time"

	"repro/internal/clean"
	"repro/internal/geo"
	"repro/internal/trace"
)

func ExampleRepairColumns() {
	// Points of an eastbound drive arrive with two device ids swapped:
	// sorting by id would zigzag, so the min-total-distance rule picks
	// the timestamp ordering (paper section IV-B).
	t0 := time.Date(2012, 10, 1, 8, 0, 0, 0, time.UTC)
	trip := &trace.Trip{ID: 1, CarID: 1}
	for i := 0; i < 5; i++ {
		trip.Points = append(trip.Points, trace.RoutePoint{
			PointID: i + 1, TripID: 1,
			Pos:  geo.V(float64(i)*100, 0),
			Time: t0.Add(time.Duration(i) * 30 * time.Second),
		})
	}
	trip.Points[1].PointID, trip.Points[2].PointID = trip.Points[2].PointID, trip.Points[1].PointID

	// The kernel reads an arena-backed view and appends the cleaned
	// points to the same arena.
	arena := trace.NewArena(len(trip.Points))
	v, err := arena.AppendTrip(trip)
	if err != nil {
		panic(err)
	}
	var scratch clean.Scratch
	r := clean.RepairColumns(v, clean.Config{}, arena, &scratch)
	fmt.Printf("chose %s order: %.0f m by id vs %.0f m by timestamp; %d points kept\n",
		r.ChosenOrder, r.LengthByID, r.LengthByTime, r.Trip.Len())
	// Output:
	// chose timestamp order: 600 m by id vs 400 m by timestamp; 5 points kept
}
