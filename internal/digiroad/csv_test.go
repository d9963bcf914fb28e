package digiroad

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/geo"
)

// TestReadCSVRejectsNonFinite: a record carrying NaN or ±Inf in a
// coordinate, a speed limit or a speed range, or a finite coordinate
// that projects off the plane, fails ReadCSV with an error naming the
// record. Accepted, one NaN object coordinate gave the object R-tree
// NaN bounds, and the seed-42 city read back with the row found none
// of its objects.
func TestReadCSVRejectsNonFinite(t *testing.T) {
	var city bytes.Buffer
	if err := SynthesizeOulu(SynthConfig{Seed: 42}).DB.WriteCSV(&city); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(city.String(), "\n")
	for _, tc := range []struct{ row, want string }{
		{"O,9999,1,NaN,65.01,1", `object 9999: lon: "NaN" is not finite`},
		{"O,9999,1,25.47,-Inf,1", `object 9999: lat: "-Inf" is not finite`},
		{"O,9999,1,1e308,65.01,1", "object 9999: position 1e308 65.01 projects outside the plane"},
		{"E,9999,1,0,40,street,25.47 65.01;NaN 65.02", `element 9999: geometry lon: "NaN" is not finite`},
		{"E,9999,1,0,40,street,25.47 65.01;25.48 +Inf", `element 9999: geometry lat: "+Inf" is not finite`},
		{"E,9999,1,0,NaN,street,25.47 65.01;25.48 65.01", `element 9999 speed limit: "NaN" is not finite`},
		{"E,9999,1,0,40,street,25.47 65.01;25.48 65.01,0:Inf:30", `element 9999: speed range to: "Inf" is not finite`},
		{"E,9999,1,0,40,street,25.47 65.01;25.48 65.01,0:10:nan", `element 9999: speed range kmh: "nan" is not finite`},
	} {
		db := NewDatabase(OuluOrigin)
		err := db.ReadCSV(strings.NewReader(city.String() + tc.row + "\n"))
		want := "digiroad: line " + strconv.Itoa(lines+1) + ": " + tc.want
		if err == nil || err.Error() != want {
			t.Errorf("%s: err = %v, want %q", tc.row, err, want)
		}
	}

	// The city itself, and an object on the plane, read back whole.
	db := NewDatabase(OuluOrigin)
	if err := db.ReadCSV(strings.NewReader(city.String() + "O,9999,1,25.47,65.01,1\n")); err != nil {
		t.Fatal(err)
	}
	all := geo.Rect{MinX: -math.MaxFloat64, MinY: -math.MaxFloat64, MaxX: math.MaxFloat64, MaxY: math.MaxFloat64}
	if got, want := len(db.ObjectsInRect(all)), db.NumObjects(); got != want || want < 2 {
		t.Fatalf("ObjectsInRect over the plane finds %d of %d objects", got, want)
	}
}
