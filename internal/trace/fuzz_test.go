package trace

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/geo"
)

// FuzzReadCSV: the trace parser must reject arbitrary input with an
// error, never a panic. The seed corpus covers the header, valid rows,
// and assorted malformations.
func FuzzReadCSV(f *testing.F) {
	header := "car_id,trip_id,point_id,unix_ms,lon,lat,speed_kmh,fuel_ml,dist_m\n"
	f.Add(header)
	f.Add(header + "1,1,1,1349078400000,25.4700000,65.0100000,30.00,10.0,100.0\n")
	f.Add(header + "1,1,1,notanumber,25.47,65.01,30,10,100\n")
	f.Add(header + "1,1\n")
	f.Add("garbage")
	f.Add(header + strings.Repeat("1,1,1,0,25.47,65.01,0,0,0\n", 3))
	f.Add(header + "1,1,1,0,1e309,65.01,0,0,0\n")

	proj := geo.NewProjection(geo.Point{Lon: 25.47, Lat: 65.01})
	f.Fuzz(func(t *testing.T, in string) {
		trips, err := ReadCSV(strings.NewReader(in), proj)
		if err != nil {
			return
		}
		// On success every trip must be internally consistent.
		for _, tr := range trips {
			if err := tr.Validate(); err != nil {
				t.Fatalf("accepted inconsistent trip: %v", err)
			}
		}
	})
}

// FuzzReadBinary: the binary reader must reject arbitrary bytes with an
// error — never a panic, and never an allocation sized by a lying
// length prefix. Accepted input must decode to consistent trips that
// re-encode and re-decode identically.
func FuzzReadBinary(f *testing.F) {
	proj := geo.NewProjection(geo.Point{Lon: 25.47, Lat: 65.01})

	valid := func(trips []*Trip) []byte {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, trips, proj); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	whole := valid([]*Trip{mkTrip(1, 0, 0, 103.4, -42.9), mkTrip(2, 5, 5, 6, 6, 7, 7)})
	f.Add([]byte(nil))
	f.Add([]byte("garbage"))
	f.Add(whole)
	f.Add(whole[:10])                               // truncated header
	f.Add(whole[:binaryHeaderLen])                  // header only
	f.Add(whole[:len(whole)-3])                     // truncated record body
	f.Add(append([]byte("XAXITRCB"), whole[8:]...)) // bad magic
	badVer := append([]byte(nil), whole...)
	binary.LittleEndian.PutUint32(badVer[8:12], 2)
	f.Add(badVer)
	huge := append([]byte(nil), whole...)
	binary.LittleEndian.PutUint32(huge[binaryHeaderLen:], 1<<31-1) // overflowing length prefix
	f.Add(huge)
	weird := append([]byte(nil), whole...)
	for i := binaryHeaderLen + 4 + binaryTripHead; i < len(weird); i++ {
		weird[i] = 0xff // all-ones columns: NaN-ish bit patterns, max ints
	}
	f.Add(weird)

	f.Fuzz(func(t *testing.T, in []byte) {
		trips, err := ReadBinary(bytes.NewReader(in), proj)
		if err != nil {
			return
		}
		for _, tr := range trips {
			if err := tr.Validate(); err != nil {
				t.Fatalf("accepted inconsistent trip: %v", err)
			}
		}
		// Accepted data must survive a re-encode cycle structurally.
		// (Byte-level fixpoint is asserted on realistic values in
		// TestBinaryRoundTripStable; adversarial coordinates sitting
		// exactly on a rounding boundary may legitimately move one
		// quantum through the projection inverse, or overflow the
		// int32 mantissa and be refused — an error, never a panic.)
		var out bytes.Buffer
		if err := WriteBinary(&out, trips, proj); err != nil {
			return
		}
		back, err := ReadBinary(bytes.NewReader(out.Bytes()), proj)
		if err != nil {
			t.Fatalf("re-encoded trips failed to decode: %v", err)
		}
		if len(back) != len(trips) {
			t.Fatalf("re-encode changed trip count: %d != %d", len(back), len(trips))
		}
		for i := range trips {
			if back[i].ID != trips[i].ID || back[i].CarID != trips[i].CarID ||
				len(back[i].Points) != len(trips[i].Points) {
				t.Fatalf("re-encode changed trip %d identity", i)
			}
			for k := range trips[i].Points {
				if back[i].Points[k].PointID != trips[i].Points[k].PointID ||
					!back[i].Points[k].Time.Equal(trips[i].Points[k].Time) {
					t.Fatalf("re-encode changed trip %d point %d", i, k)
				}
			}
		}
	})
}
