package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/odselect"
	"repro/internal/sink"
	"repro/internal/trace"
)

// pairedCar builds a car carrying exactly one T-S and one S-T
// transition with three speed points each. Because a car is absorbed
// atomically, every published epoch must hold equally many trips in
// both directions and a point total divisible by six — the invariants
// the readers below check for torn snapshots.
func pairedCar(car int) core.CarResult {
	mk := func(dir string, row float64) *core.TransitionRecord {
		tr := &trace.Trip{ID: int64(car), CarID: car}
		base := time.Date(2022, 6, 1, 9, 0, 0, 0, time.UTC)
		for i := 0; i < 3; i++ {
			tr.Points = append(tr.Points, trace.RoutePoint{
				PointID: i, TripID: tr.ID,
				Pos:      geo.V(float64(100+200*i), row),
				Time:     base.Add(time.Duration(i) * time.Minute),
				SpeedKmh: 30 + float64(car%20),
			})
		}
		return &core.TransitionRecord{
			Car: car,
			Transition: &odselect.Transition{
				Seg: tr, From: dir[:1], To: dir[2:], Direction: dir,
				FromCross: geo.Crossing{EntryIndex: 0},
				ToCross:   geo.Crossing{ExitIndex: 2},
			},
			RouteTimeH: 0.05, RouteDistKm: 2, FuelMl: 100,
		}
	}
	row := float64(100 + 200*(car%9))
	return core.CarResult{Car: car, Transitions: []*core.TransitionRecord{
		mk("T-S", row), mk("S-T", row),
	}}
}

// TestConcurrentQueriesDuringIngest hammers the API with parallel
// readers while writers absorb cars, asserting no reader ever observes
// a torn snapshot: each response is internally consistent with a
// single epoch, epochs advance monotonically per reader, and the body
// epoch always matches the ETag. Run under -race.
func TestConcurrentQueriesDuringIngest(t *testing.T) {
	g, err := grid.New(geo.R(0, 0, 2000, 2000), 200)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sink.New(sink.Config{Grid: g, PublishEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	api := NewAPI(s, nil)

	const (
		writers    = 4
		carsPerW   = 150
		readers    = 4
		totalCars  = writers * carsPerW
		ptsPerCar  = 6 // 2 transitions x 3 points, all inside the grid
		tripsPerTR = 1
	)

	var wg sync.WaitGroup
	var ingestDone atomic.Bool

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < carsPerW; i++ {
				car := w*carsPerW + i
				s.AbsorbEvent(core.CarEvent{Car: car, Result: pairedCar(car)})
			}
		}(w)
	}

	readerErr := make(chan error, readers)
	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			var lastEpoch uint64
			var lastTrips int
			for !ingestDone.Load() {
				// /v1/od: both directions must always hold the same trip
				// count — a torn snapshot (half a car) would break this.
				var od struct {
					Epoch      uint64 `json:"epoch"`
					Directions []struct {
						Direction string `json:"direction"`
						Trips     int    `json:"trips"`
					} `json:"directions"`
				}
				rec := httptest.NewRecorder()
				api.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/od", nil))
				if rec.Code != http.StatusOK {
					readerErr <- fmt.Errorf("od status %d", rec.Code)
					return
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &od); err != nil {
					readerErr <- fmt.Errorf("od json: %v", err)
					return
				}
				if want := fmt.Sprintf("\"v%d\"", od.Epoch); rec.Header().Get("ETag") != want {
					readerErr <- fmt.Errorf("etag %q != body epoch %d", rec.Header().Get("ETag"), od.Epoch)
					return
				}
				if len(od.Directions) == 2 && od.Directions[0].Trips != od.Directions[1].Trips {
					readerErr <- fmt.Errorf("torn snapshot at epoch %d: trips %d vs %d",
						od.Epoch, od.Directions[0].Trips, od.Directions[1].Trips)
					return
				}
				trips := 0
				for _, d := range od.Directions {
					trips += d.Trips
				}
				if od.Epoch < lastEpoch {
					readerErr <- fmt.Errorf("epoch went backwards: %d after %d", od.Epoch, lastEpoch)
					return
				}
				if od.Epoch > lastEpoch && trips < lastTrips {
					readerErr <- fmt.Errorf("trips shrank across epochs: %d@%d after %d@%d",
						trips, od.Epoch, lastTrips, lastEpoch)
					return
				}
				lastEpoch, lastTrips = od.Epoch, trips

				// /v1/grid: whole cars only, so the point total is always
				// a multiple of the per-car contribution.
				var gr struct {
					Epoch uint64 `json:"epoch"`
					Cells []struct {
						N int `json:"n"`
					} `json:"cells"`
				}
				rec = httptest.NewRecorder()
				api.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/grid", nil))
				if err := json.Unmarshal(rec.Body.Bytes(), &gr); err != nil {
					readerErr <- fmt.Errorf("grid json: %v", err)
					return
				}
				pts := 0
				for _, c := range gr.Cells {
					pts += c.N
				}
				if pts%ptsPerCar != 0 {
					readerErr <- fmt.Errorf("torn snapshot at epoch %d: %d points not divisible by %d",
						gr.Epoch, pts, ptsPerCar)
					return
				}
			}
			readerErr <- nil
		}()
	}

	wg.Wait()
	s.Seal()
	ingestDone.Store(true)
	rwg.Wait()
	close(readerErr)
	for err := range readerErr {
		if err != nil {
			t.Fatal(err)
		}
	}

	// The sealed snapshot holds the whole fleet.
	final := s.Snapshot()
	if !final.Complete || final.CarsIngested != totalCars {
		t.Fatalf("final snapshot: complete=%v cars=%d want %d",
			final.Complete, final.CarsIngested, totalCars)
	}
	for dir, od := range final.OD {
		if od.Trips != totalCars*tripsPerTR {
			t.Fatalf("%s trips = %d, want %d", dir, od.Trips, totalCars)
		}
	}
	if final.Points != totalCars*ptsPerCar {
		t.Fatalf("points = %d, want %d", final.Points, totalCars*ptsPerCar)
	}
}
