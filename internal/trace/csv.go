package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"repro/internal/geo"
)

// CSV layout, one route point per row, grouped by trip:
//
//	car_id,trip_id,point_id,unix_ms,lon,lat,speed_kmh,fuel_ml,dist_m
//
// Rows preserve arrival order within a trip.

var csvHeader = []string{"car_id", "trip_id", "point_id", "unix_ms", "lon", "lat", "speed_kmh", "fuel_ml", "dist_m"}

// WriteCSV serialises trips to w using proj to convert positions to
// WGS84.
func WriteCSV(w io.Writer, trips []*Trip, proj *geo.Projection) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	for _, t := range trips {
		for i := range t.Points {
			p := &t.Points[i]
			ll := proj.ToPoint(p.Pos)
			rec := []string{
				strconv.Itoa(t.CarID),
				strconv.FormatInt(t.ID, 10),
				strconv.Itoa(p.PointID),
				strconv.FormatInt(p.Time.UnixMilli(), 10),
				strconv.FormatFloat(ll.Lon, 'f', 7, 64),
				strconv.FormatFloat(ll.Lat, 'f', 7, 64),
				strconv.FormatFloat(p.SpeedKmh, 'f', 2, 64),
				strconv.FormatFloat(p.FuelMl, 'f', 1, 64),
				strconv.FormatFloat(p.DistM, 'f', 1, 64),
			}
			if err := cw.Write(rec); err != nil {
				return fmt.Errorf("trace: write point %d/%d: %w", t.ID, p.PointID, err)
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses trips from r, grouping rows by trip id and keeping row
// order within each trip. Trips are returned ordered by (car, trip id).
func ReadCSV(r io.Reader, proj *geo.Projection) ([]*Trip, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(csvHeader)
	// Fields are copied into RoutePoint values before the next Read, so
	// the record slice and its backing string can be reused — one
	// allocation per row instead of two.
	cr.ReuseRecord = true
	head, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: read header: %w", err)
	}
	if len(head) != len(csvHeader) || head[0] != csvHeader[0] {
		return nil, fmt.Errorf("trace: unexpected header %v", head)
	}
	byTrip := map[int64]*Trip{}
	line := 1
	totalPts := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: csv read: %w", err)
		}
		line++
		pt, carID, err := parsePointRecord(rec, proj)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		t := byTrip[pt.TripID]
		if t == nil {
			t = &Trip{ID: pt.TripID, CarID: carID}
			// Presize from the running mean trip size: rows arrive
			// grouped by trip, so by the time a later trip starts the
			// mean is a good estimate and append growth is avoided.
			est := 16
			if len(byTrip) > 0 {
				if avg := totalPts / len(byTrip); avg > est {
					est = avg
				}
			}
			t.Points = make([]RoutePoint, 0, est)
			byTrip[pt.TripID] = t
		}
		t.Points = append(t.Points, pt)
		totalPts++
	}
	out := make([]*Trip, 0, len(byTrip))
	for _, t := range byTrip {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].CarID != out[j].CarID {
			return out[i].CarID < out[j].CarID
		}
		return out[i].ID < out[j].ID
	})
	return out, nil
}

func parsePointRecord(rec []string, proj *geo.Projection) (RoutePoint, int, error) {
	carID, err := strconv.Atoi(rec[0])
	if err != nil {
		return RoutePoint{}, 0, fmt.Errorf("car_id: %w", err)
	}
	tripID, err := strconv.ParseInt(rec[1], 10, 64)
	if err != nil {
		return RoutePoint{}, 0, fmt.Errorf("trip_id: %w", err)
	}
	pointID, err := strconv.Atoi(rec[2])
	if err != nil {
		return RoutePoint{}, 0, fmt.Errorf("point_id: %w", err)
	}
	unixMs, err := strconv.ParseInt(rec[3], 10, 64)
	if err != nil {
		return RoutePoint{}, 0, fmt.Errorf("unix_ms: %w", err)
	}
	lon, err := strconv.ParseFloat(rec[4], 64)
	if err != nil {
		return RoutePoint{}, 0, fmt.Errorf("lon: %w", err)
	}
	lat, err := strconv.ParseFloat(rec[5], 64)
	if err != nil {
		return RoutePoint{}, 0, fmt.Errorf("lat: %w", err)
	}
	speed, err := strconv.ParseFloat(rec[6], 64)
	if err != nil {
		return RoutePoint{}, 0, fmt.Errorf("speed_kmh: %w", err)
	}
	fuel, err := strconv.ParseFloat(rec[7], 64)
	if err != nil {
		return RoutePoint{}, 0, fmt.Errorf("fuel_ml: %w", err)
	}
	dist, err := strconv.ParseFloat(rec[8], 64)
	if err != nil {
		return RoutePoint{}, 0, fmt.Errorf("dist_m: %w", err)
	}
	if err := checkCarID(tripID, carID); err != nil {
		return RoutePoint{}, 0, err
	}
	if err := checkPointID(tripID, pointID); err != nil {
		return RoutePoint{}, 0, err
	}
	if err := checkTimeMs(tripID, unixMs); err != nil {
		return RoutePoint{}, 0, err
	}
	return RoutePoint{
		PointID:  pointID,
		TripID:   tripID,
		Pos:      proj.ToXY(geo.Point{Lon: lon, Lat: lat}),
		Time:     time.UnixMilli(unixMs).UTC(),
		SpeedKmh: speed,
		FuelMl:   fuel,
		DistM:    dist,
	}, carID, nil
}
