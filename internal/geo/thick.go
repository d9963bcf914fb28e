package geo

// ThickLine is a polyline artificially widened by a half-width buffer —
// the paper's "thick geometry" used to catch routes that deviate from
// the exact origin/destination road (§IV-D, Fig 2). A point is inside
// the thick line when its distance to the centre chain is at most
// HalfWidth.
type ThickLine struct {
	Center    Polyline
	HalfWidth float64

	bounds Rect
}

// NewThickLine buffers the centre line by width/2 on each side.
func NewThickLine(center Polyline, width float64) *ThickLine {
	return &ThickLine{
		Center:    center,
		HalfWidth: width / 2,
		bounds:    center.Bounds().Expand(width / 2),
	}
}

// Bounds returns the bounding box of the buffered geometry.
func (t *ThickLine) Bounds() Rect { return t.bounds }

// Contains reports whether p lies within the buffered geometry.
func (t *ThickLine) Contains(p XY) bool {
	return t.bounds.Contains(p) && t.Center.Within(p, t.HalfWidth)
}

// Crossing describes how a trajectory passes through a thick line.
type Crossing struct {
	EntryIndex int     // index of the first trajectory vertex inside
	ExitIndex  int     // index of the last consecutive vertex inside
	Angle      float64 // acute angle (degrees) between trajectory and road
	At         XY      // representative point of the crossing
	Along      float64 // metres along the centre line at the crossing
}

// Crossings returns every maximal run of consecutive trajectory vertices
// inside the thick line, with the acute crossing angle between the local
// trajectory direction and the road orientation at the crossing point.
// Runs are reported in trajectory order.
func (t *ThickLine) Crossings(traj Polyline) []Crossing {
	var out []Crossing
	i := 0
	for i < len(traj) {
		if !t.Contains(traj[i]) {
			i++
			continue
		}
		j := i
		for j+1 < len(traj) && t.Contains(traj[j+1]) {
			j++
		}
		out = append(out, t.crossingAt(traj, i, j))
		i = j + 1
	}
	return out
}

func (t *ThickLine) crossingAt(traj Polyline, i, j int) Crossing {
	mid := (i + j) / 2
	at := traj[mid]
	proj := t.Center.Project(at)

	// Local trajectory direction: from the vertex before the run to the
	// vertex after it when available, else across the run itself.
	a, b := i, j
	if i > 0 {
		a = i - 1
	}
	if j < len(traj)-1 {
		b = j + 1
	}
	var trajBearing float64
	if a != b && traj[a].Dist(traj[b]) > 0 {
		trajBearing = Bearing(traj[a], traj[b])
	}
	roadBearing := t.Center.BearingAt(proj.Along)
	return Crossing{
		EntryIndex: i,
		ExitIndex:  j,
		Angle:      AcuteAngleDiff(trajBearing, roadBearing),
		At:         at,
		Along:      proj.Along,
	}
}
