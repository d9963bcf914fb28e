package geo

import (
	"math"
	"testing"
)

// FuzzProjectionRoundTrip checks ToPoint∘ToXY ≈ identity for any
// projection origin and target point the pipeline could plausibly see.
// Latitudes are folded into ±85°: at the poles cos(lat)→0 degenerates
// the equirectangular longitude scale and no inverse exists, which is a
// documented limit of the projection, not a bug.
func FuzzProjectionRoundTrip(f *testing.F) {
	f.Add(25.47, 65.01, 25.48, 65.02) // Oulu, the paper's city
	f.Add(0.0, 0.0, 0.0, 0.0)
	f.Add(-179.9, -84.0, 179.9, 84.9)
	f.Add(13.4, 52.5, 13.5, 52.6)

	f.Fuzz(func(t *testing.T, oLon, oLat, lon, lat float64) {
		fold := func(v, lim float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, lim)
		}
		origin := Point{Lon: fold(oLon, 180), Lat: fold(oLat, 85)}
		p := Point{Lon: fold(lon, 180), Lat: fold(lat, 85)}

		pr := NewProjection(origin)
		xy := pr.ToXY(p)
		if math.IsNaN(xy.X) || math.IsNaN(xy.Y) || math.IsInf(xy.X, 0) || math.IsInf(xy.Y, 0) {
			t.Fatalf("ToXY(%v) from origin %v is not finite: %v", p, origin, xy)
		}
		back := pr.ToPoint(xy)

		// Tolerance in degrees scaled to the distance from the origin:
		// the round trip is two float multiply/divide pairs, so the
		// error is a few ulps of the coordinate span.
		tol := 1e-9 * (1 + math.Abs(p.Lon-origin.Lon) + math.Abs(p.Lat-origin.Lat))
		if math.Abs(back.Lon-p.Lon) > tol || math.Abs(back.Lat-p.Lat) > tol {
			t.Fatalf("round trip drifted: %v -> %v -> %v (origin %v)", p, xy, back, origin)
		}
	})
}

// FuzzPolylineWithin checks that Within decides exactly as the distance
// test it replaces, DistanceTo(p) <= r, for chains of 0–6 vertices and
// any point and radius, NaN and infinities included. Every input is
// also probed at r = DistanceTo(p) and at its two float neighbours,
// where any rounding difference between the two would flip the answer.
func FuzzPolylineWithin(f *testing.F) {
	f.Add(uint8(2), 0.0, 0.0, 10.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 5.0, 3.0, 3.0)
	f.Add(uint8(4), 0.0, 0.0, 7.0, 3.0, 7.0, 3.0, 11.0, -2.0, 0.0, 0.0, 0.0, 0.0, 2.5, 4.1, 20.0)

	f.Fuzz(func(t *testing.T, n uint8, x0, y0, x1, y1, x2, y2, x3, y3, x4, y4, x5, y5, px, py, r float64) {
		pl := Line(x0, y0, x1, y1, x2, y2, x3, y3, x4, y4, x5, y5)[:n%7]
		p := XY{px, py}
		d := pl.DistanceTo(p)
		for _, r := range []float64{r, d, math.Nextafter(d, math.Inf(-1)), math.Nextafter(d, math.Inf(1))} {
			if got, want := pl.Within(p, r), d <= r; got != want {
				t.Fatalf("%v.Within(%v, %v) = %v, but DistanceTo = %v", pl, p, r, got, d)
			}
		}
	})
}
