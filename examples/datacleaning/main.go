// Data cleaning: the paper's §IV-B stage in isolation. Builds a trip
// whose route points arrive shuffled with corrupted metadata and a GPS
// spike, then shows how the min-total-distance rule and the validity
// filters recover a reliable trajectory.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/internal/clean"
	"repro/internal/geo"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	rng := rand.New(rand.NewSource(4))
	t0 := time.Date(2012, 11, 3, 14, 0, 0, 0, time.UTC)

	// Ground truth: an L-shaped drive, one point every 20 s.
	truth := geo.Line(0, 0, 1200, 0, 1200, 800)
	var tr trace.Trip
	tr.ID, tr.CarID = 101, 1
	for i, d := 0, 0.0; d <= truth.Length(); i, d = i+1, d+160 {
		p := truth.PointAt(d)
		tr.Points = append(tr.Points, trace.RoutePoint{
			PointID: i + 1, TripID: 101,
			Pos:      geo.V(p.X+rng.NormFloat64()*4, p.Y+rng.NormFloat64()*4),
			Time:     t0.Add(time.Duration(i) * 20 * time.Second),
			SpeedKmh: 30,
			FuelMl:   float64(i) * 14,
			DistM:    d,
		})
	}
	wantLen := trace.PathLength(tr.Points)
	fmt.Printf("ground truth: %d points, %.0f m\n\n", len(tr.Points), wantLen)

	// Corruption, as the paper describes for the Driveco data:
	// 1. two points swap their device ids (counter glitch);
	tr.Points[3].PointID, tr.Points[4].PointID = tr.Points[4].PointID, tr.Points[3].PointID
	// 2. a GPS spike throws one position 5 km off;
	spike := tr.Points[7]
	spike.PointID = 99
	spike.Pos = geo.V(spike.Pos.X+5000, spike.Pos.Y-3000)
	spike.Time = tr.Points[7].Time.Add(3 * time.Second)
	tr.Points = append(tr.Points, spike)
	// 3. one record is lost in transmission, leaving a 40 s hole (the
	//    cleaner keeps holes as they are);
	tr.Points = append(tr.Points[:10], tr.Points[11:]...)
	// 4. transmission latency shuffles the arrival order.
	rng.Shuffle(len(tr.Points), func(i, j int) {
		tr.Points[i], tr.Points[j] = tr.Points[j], tr.Points[i]
	})

	fmt.Printf("as received : %d points, path length in arrival order %.0f m\n",
		len(tr.Points), trace.PathLength(tr.Points))

	// The stage's kernel reads an arena-backed view of the trip and
	// appends the cleaned points to the same arena.
	arena := trace.NewArena(len(tr.Points))
	v, err := arena.AppendTrip(&tr)
	if err != nil {
		log.Fatal(err)
	}
	var scratch clean.Scratch
	r := clean.RepairColumns(v, clean.Config{}, arena, &scratch)
	cleaned := r.Trip.Materialize(true)
	fmt.Printf("\ncleaning chose the %s ordering\n", r.ChosenOrder)
	fmt.Printf("  length sorted by id:        %.0f m\n", r.LengthByID)
	fmt.Printf("  length sorted by timestamp: %.0f m\n", r.LengthByTime)
	fmt.Printf("  dropped %d invalid point(s) (the spike)\n", r.Dropped)
	fmt.Printf("  cleaned length %.0f m vs truth %.0f m\n",
		trace.PathLength(cleaned.Points), wantLen)

	for i := 1; i < len(cleaned.Points); i++ {
		a, b := cleaned.Points[i-1], cleaned.Points[i]
		if b.PointID != a.PointID+1 || b.Time.Before(a.Time) || b.FuelMl < a.FuelMl || b.DistM < a.DistM {
			log.Fatal("monotonicity violated — cleaning failed")
		}
	}
	fmt.Println("all ids, timestamps and cumulative measurements increase monotonically")
}
