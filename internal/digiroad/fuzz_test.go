package digiroad

import (
	"math"
	"strings"
	"testing"

	"repro/internal/geo"
)

// FuzzReadCSV: the road-database parser must reject arbitrary input
// with an error, never a panic, and never store degenerate elements or
// a vertex or object position that is not finite.
func FuzzReadCSV(f *testing.F) {
	f.Add("E,1,1,0,40,street,25.47 65.01;25.48 65.01\n")
	f.Add("E,1,1,0,40,street,25.47 65.01;25.48 65.01,0.00:10.00:30.0\n")
	f.Add("O,1,1,25.4700000,65.0100000,1\n")
	f.Add("X,unknown\n")
	f.Add("E,1,1,0,40,street,banana\n")
	f.Add("E,1,1,0,40,street,25.47 65.01;25.48 65.01,bad:ranges\n")
	f.Add("")
	f.Add("E,1,1,0,1e309,street,25.47 65.01;25.48 65.01\n")
	f.Add("O,9999,1,NaN,65.01,1\n")
	f.Add("E,1,1,0,40,street,25.47 65.01;Inf 65.01\n")

	f.Fuzz(func(t *testing.T, in string) {
		db := NewDatabase(OuluOrigin)
		if err := db.ReadCSV(strings.NewReader(in)); err != nil {
			return
		}
		finite := func(p geo.XY) bool {
			return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) && !math.IsNaN(p.Y) && !math.IsInf(p.Y, 0)
		}
		for _, e := range db.Elements() {
			if len(e.Geom) < 2 {
				t.Fatalf("accepted degenerate element %d", e.ID)
			}
			for _, v := range e.Geom {
				if !finite(v) {
					t.Fatalf("element %d: accepted vertex %v", e.ID, v)
				}
			}
		}
		for _, o := range db.Objects() {
			if !finite(o.Pos) {
				t.Fatalf("object %d: accepted position %v", o.ID, o.Pos)
			}
		}
	})
}
