package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
)

var t0 = time.Date(2012, 10, 1, 8, 0, 0, 0, time.UTC)

func mkTrip(id int64, coords ...float64) *Trip {
	t := &Trip{ID: id, CarID: 1}
	for i := 0; i+1 < len(coords); i += 2 {
		n := len(t.Points)
		t.Points = append(t.Points, RoutePoint{
			PointID:  n + 1,
			TripID:   id,
			Pos:      geo.V(coords[i], coords[i+1]),
			Time:     t0.Add(time.Duration(n) * 30 * time.Second),
			SpeedKmh: 30,
			FuelMl:   float64(n) * 10,
			DistM:    float64(n) * 100,
		})
	}
	return t
}

func TestValidate(t *testing.T) {
	tr := mkTrip(1, 0, 0, 100, 0)
	if err := tr.Validate(); err != nil {
		t.Fatalf("valid trip rejected: %v", err)
	}
	if err := (&Trip{ID: 2}).Validate(); err == nil {
		t.Fatal("empty trip accepted")
	}
	tr.Points[1].TripID = 99
	if err := tr.Validate(); err == nil {
		t.Fatal("foreign point accepted")
	}
}

func TestCloneIndependence(t *testing.T) {
	tr := mkTrip(1, 0, 0, 100, 0)
	cl := tr.Clone()
	cl.Points[0].Pos = geo.V(999, 999)
	if tr.Points[0].Pos == cl.Points[0].Pos {
		t.Fatal("Clone shares point storage")
	}
}

func TestGeometryAndPathLength(t *testing.T) {
	tr := mkTrip(1, 0, 0, 100, 0, 100, 50)
	g := tr.Geometry()
	if len(g) != 3 || g.Length() != 150 {
		t.Fatalf("geometry = %v (len %f)", g, g.Length())
	}
	if got := PathLength(tr.Points); got != 150 {
		t.Fatalf("PathLength = %f", got)
	}
	if got := PathLength(nil); got != 0 {
		t.Fatalf("PathLength(nil) = %f", got)
	}
}

func TestTimesAndDuration(t *testing.T) {
	tr := mkTrip(1, 0, 0, 100, 0, 200, 0)
	if tr.StartTime() != t0 {
		t.Fatalf("StartTime = %v", tr.StartTime())
	}
	if want := t0.Add(time.Minute); tr.EndTime() != want {
		t.Fatalf("EndTime = %v, want %v", tr.EndTime(), want)
	}
	if tr.Duration() != time.Minute {
		t.Fatalf("Duration = %v", tr.Duration())
	}
	// Start/End scan all points even when out of order.
	tr.Points[0], tr.Points[2] = tr.Points[2], tr.Points[0]
	if tr.StartTime() != t0 || tr.EndTime() != t0.Add(time.Minute) {
		t.Fatal("StartTime/EndTime must be order-independent")
	}
	empty := &Trip{}
	if !empty.StartTime().IsZero() || !empty.EndTime().IsZero() || empty.Duration() != 0 {
		t.Fatal("empty trip times must be zero")
	}
}

func TestKey(t *testing.T) {
	tr := mkTrip(42, 0, 0, 1, 1)
	k := tr.Key()
	if k.TripID != 42 || !k.Start.Equal(t0) {
		t.Fatalf("Key = %+v", k)
	}
	if !strings.Contains(k.String(), "42") {
		t.Fatalf("Key.String = %q", k.String())
	}
}

func TestCSVRoundTrip(t *testing.T) {
	proj := geo.NewProjection(geo.Point{Lon: 25.47, Lat: 65.01})
	trips := []*Trip{
		mkTrip(1, 0, 0, 100, 0, 100, 100),
		mkTrip(2, 50, 50, 60, 60),
	}
	trips[1].CarID = 3
	var buf bytes.Buffer
	if err := WriteCSV(&buf, trips, proj); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	back, err := ReadCSV(bytes.NewReader(buf.Bytes()), proj)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if len(back) != 2 {
		t.Fatalf("got %d trips", len(back))
	}
	for i, tr := range back {
		orig := trips[i]
		if tr.ID != orig.ID || tr.CarID != orig.CarID || len(tr.Points) != len(orig.Points) {
			t.Fatalf("trip %d header mismatch", i)
		}
		for k := range tr.Points {
			if tr.Points[k].Pos.Dist(orig.Points[k].Pos) > 0.02 {
				t.Fatalf("trip %d point %d moved", i, k)
			}
			if !tr.Points[k].Time.Equal(orig.Points[k].Time) {
				t.Fatalf("trip %d point %d time mismatch", i, k)
			}
			if tr.Points[k].SpeedKmh != orig.Points[k].SpeedKmh {
				t.Fatalf("trip %d point %d speed mismatch", i, k)
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	proj := geo.NewProjection(geo.Point{Lon: 25.47, Lat: 65.01})
	cases := []string{
		"",                             // no header
		"bogus,header,x,x,x,x,x,x,x\n", // wrong header
		"car_id,trip_id,point_id,unix_ms,lon,lat,speed_kmh,fuel_ml,dist_m\nx,1,1,0,25,65,0,0,0\n",  // bad car
		"car_id,trip_id,point_id,unix_ms,lon,lat,speed_kmh,fuel_ml,dist_m\n1,1,1,0,bad,65,0,0,0\n", // bad lon
		"car_id,trip_id,point_id,unix_ms,lon,lat,speed_kmh,fuel_ml,dist_m\n1,1,1\n",                // short row
	}
	for i, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in), proj); err == nil {
			t.Errorf("case %d accepted malformed input", i)
		}
	}
}

// TestReadCSVSharesBinaryBounds: ReadCSV refuses the values the
// binary format cannot carry — car and point ids outside int32, a
// unix_ms outside the nanosecond window ReadBinary enforces — with the
// binary format's error, and accepts the extremes both formats carry.
func TestReadCSVSharesBinaryBounds(t *testing.T) {
	proj := geo.NewProjection(geo.Point{Lon: 25.47, Lat: 65.01})
	header := "car_id,trip_id,point_id,unix_ms,lon,lat,speed_kmh,fuel_ml,dist_m\n"
	cases := map[string]struct{ row, want string }{
		"point id overflow": {"1,7,4294967296,1000,25.47,65.01,0,0,0", "trip 7 point id 4294967296 overflows int32"},
		"negative point id": {"1,7,-2147483649,1000,25.47,65.01,0,0,0", "trip 7 point id -2147483649 overflows int32"},
		"car id overflow":   {"2147483648,7,1,1000,25.47,65.01,0,0,0", "trip 7 car id 2147483648 overflows int32"},
		"time overflow":     {"1,7,1,9000000000000000000,25.47,65.01,0,0,0", "trip 7 time 9000000000000000000ms out of range"},
		"past the window":   {"1,7,1,9223372036855,25.47,65.01,0,0,0", "trip 7 time 9223372036855ms out of range"},
		"before it":         {"1,7,1,-9223372036855,25.47,65.01,0,0,0", "trip 7 time -9223372036855ms out of range"},
	}
	for name, tc := range cases {
		_, err := ReadCSV(strings.NewReader(header+"1,7,0,1000,25.47,65.01,0,0,0\n"+tc.row+"\n"), proj)
		if err == nil || err.Error() != "trace: line 3: trace: "+tc.want {
			t.Errorf("%s: err = %v, want line 3: %q", name, err, tc.want)
		}
	}

	// The extremes both formats carry survive a CSV → binary → read
	// round trip unchanged.
	in := header + "2147483647,7,2147483647,9223372036854,25.47,65.01,0,0,0\n" +
		"-2147483648,8,-2147483648,-9223372036854,25.47,65.01,0,0,0\n"
	trips, err := ReadCSV(strings.NewReader(in), proj)
	if err != nil || len(trips) != 2 {
		t.Fatalf("extremes: %d trips, err %v", len(trips), err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, trips, proj); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf, proj)
	if err != nil || len(back) != 2 {
		t.Fatalf("binary round trip: %d trips, err %v", len(back), err)
	}
	for i := range trips {
		if back[i].CarID != trips[i].CarID || back[i].Points[0].PointID != trips[i].Points[0].PointID ||
			!back[i].Points[0].Time.Equal(trips[i].Points[0].Time) {
			t.Fatalf("trip %d: binary %+v, csv %+v", i, back[i].Points[0], trips[i].Points[0])
		}
	}
}

func TestWriteGeoJSON(t *testing.T) {
	proj := geo.NewProjection(geo.Point{Lon: 25.47, Lat: 65.01})
	trips := []*Trip{mkTrip(7, 0, 0, 100, 0, 100, 100)}
	var buf bytes.Buffer
	if err := WriteGeoJSON(&buf, trips, proj); err != nil {
		t.Fatalf("WriteGeoJSON: %v", err)
	}
	var parsed map[string]any
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	features := parsed["features"].([]any)
	if len(features) != 1 {
		t.Fatalf("features = %d", len(features))
	}
	f := features[0].(map[string]any)
	props := f["properties"].(map[string]any)
	if props["trip_id"].(float64) != 7 || props["points"].(float64) != 3 {
		t.Fatalf("props = %v", props)
	}
	coords := f["geometry"].(map[string]any)["coordinates"].([]any)
	if len(coords) != 3 {
		t.Fatalf("coordinates = %d", len(coords))
	}
}
