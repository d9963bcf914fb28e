package clean

import (
	"math"
	"slices"
	"time"

	"repro/internal/trace"
)

// Columnar mirror of Repair. RepairColumns performs the same §IV-B
// repair — validity filters, dual-ordering choice by total path
// length, realignment, spike fixpoint — directly on arena-backed
// columns, using index permutations instead of copying RoutePoints and
// a reusable Scratch instead of per-trip maps and slices. Its output
// is value-identical to Repair on the materialised trip: every float
// comparison and reduction below reuses the exact expression shape of
// the row-oriented code, sorts use the same stable/unstable choices,
// and realignment truncates timestamps to milliseconds exactly like
// time.Time.UnixMilli. Repair stays as the oracle: the kernel
// differentials here and in core assert bit equality.

// ColResult mirrors Result for a columnar repair. Trip.N == 0 means no
// points survived.
type ColResult struct {
	Trip         trace.ColTrip
	ChosenOrder  Order
	LengthByID   float64
	LengthByTime float64
	Reordered    bool
	Dropped      int       // == Drops.Total()
	Drops        DropStats // per-reason breakdown, identical to the row path's
}

// Scratch holds the reusable buffers for RepairColumns. One scratch
// serves one goroutine; the zero value is ready to use.
type Scratch struct {
	valid []int32 // surviving indices, arrival order
	byID  []int32 // surviving indices, id order (also dup-check order)
	byTM  []int32 // surviving indices, timestamp order
	bad   []bool  // per-index spike/dup mark
	ms    []int64 // realign: millisecond timestamps
	f64a  []float64
	f64b  []float64
}

func (s *Scratch) reset(n int) {
	s.valid = grow(s.valid, n)[:0]
	s.byID = grow(s.byID, n)[:0]
	s.byTM = grow(s.byTM, n)[:0]
	if cap(s.bad) < n {
		s.bad = make([]bool, n)
	}
	s.bad = s.bad[:n]
	clear(s.bad)
	s.ms = grow(s.ms, n)[:0]
	s.f64a = grow(s.f64a, n)[:0]
	s.f64b = grow(s.f64b, n)[:0]
}

func grow[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, 0, n)
	}
	return b[:0]
}

// subNs returns a-b as a Duration with the same saturation behaviour
// as time.Time.Sub.
func subNs(a, b int64) time.Duration {
	d := a - b
	switch {
	case a > b && d < 0:
		return time.Duration(math.MaxInt64)
	case a < b && d >= 0:
		return time.Duration(math.MinInt64)
	}
	return time.Duration(d)
}

// unixMilliOfNs truncates a unix-nanosecond timestamp to milliseconds
// exactly like time.Time.UnixMilli (floor division).
func unixMilliOfNs(ns int64) int64 {
	q := ns / int64(time.Millisecond)
	if ns%int64(time.Millisecond) != 0 && ns < 0 {
		q--
	}
	return q
}

// RepairColumns cleans one columnar trip, appending the cleaned points
// to the arena (which may be the view's own arena). The input rows are
// not modified.
func RepairColumns(v trace.ColTrip, cfg Config, a *trace.Arena, s *Scratch) ColResult {
	cfg = cfg.withDefaults()
	s.reset(v.Len())

	var drops DropStats
	filterValidCols(v, cfg, s, &drops)
	if len(s.valid) == 0 {
		return ColResult{Dropped: drops.Total(), Drops: drops}
	}

	// Candidate orderings of the surviving points. s.byTM already holds
	// the timestamp ordering from the spike filter (or is rebuilt here
	// for short trips that skipped it); removing spike points preserved
	// the relative order, which is exactly what a fresh stable sort of
	// the survivors would produce.
	s.byID = append(s.byID[:0], s.valid...)
	slices.SortStableFunc(s.byID, func(i, j int32) int {
		return int(v.PointID(int(i))) - int(v.PointID(int(j)))
	})
	if len(s.byTM) != len(s.valid) {
		s.byTM = append(s.byTM[:0], s.valid...)
		sortByTime(v, s.byTM)
	}

	lenID := pathLengthIdx(v, s.byID)
	lenTime := pathLengthIdx(v, s.byTM)
	chosen := s.byID
	order := OrderByID
	if lenTime < lenID {
		chosen = s.byTM
		order = OrderByTime
	}

	reordered := false
	for i := range s.valid {
		if v.PointID(int(s.valid[i])) != v.PointID(int(chosen[i])) {
			reordered = true
			break
		}
	}

	// Realign into fresh arena rows: positions and speeds ride with the
	// chosen sequence; ids are renumbered and the timestamp (truncated
	// to milliseconds), fuel and distance multisets are re-assigned in
	// ascending order.
	m := len(chosen)
	dst := a.Alloc(v.ID, v.CarID, m)
	s.ms = s.ms[:m]
	s.f64a = s.f64a[:m]
	s.f64b = s.f64b[:m]
	for k, idx := range chosen {
		i := int(idx)
		dst.Cols.Xs[dst.Off+k] = v.Pos(i).X
		dst.Cols.Ys[dst.Off+k] = v.Pos(i).Y
		dst.Cols.Speeds[dst.Off+k] = v.Speed(i)
		s.ms[k] = unixMilliOfNs(v.TimeNs(i))
		s.f64a[k] = v.Fuel(i)
		s.f64b[k] = v.Dist(i)
	}
	slices.Sort(s.ms)
	slices.Sort(s.f64a)
	slices.Sort(s.f64b)
	for k := 0; k < m; k++ {
		dst.Cols.PointIDs[dst.Off+k] = int32(k + 1)
		dst.Cols.TimesNs[dst.Off+k] = s.ms[k] * int64(time.Millisecond)
		dst.Cols.Fuels[dst.Off+k] = s.f64a[k]
		dst.Cols.Dists[dst.Off+k] = s.f64b[k]
	}

	res := ColResult{
		ChosenOrder:  order,
		LengthByID:   lenID,
		LengthByTime: lenTime,
		Reordered:    reordered,
	}

	// Fixpoint: realignment can create adjacencies that fail the spike
	// filter. After realignment position order is timestamp order and
	// ids are 1..m, so each re-filter pass reduces to the spike scan;
	// re-realignment after a drop reduces to renumbering (the remaining
	// sorted multisets stay sorted, and millisecond truncation is
	// idempotent). Fixpoint removals are spike drops by construction.
	for m >= 2 {
		spikes := spikeScan(dst.Sub(0, m), cfg, s.bad[:m])
		if spikes == 0 {
			break
		}
		drops.Spike += spikes
		w := 0
		for i := 0; i < m; i++ {
			if s.bad[i] {
				continue
			}
			dst.Cols.PointIDs[dst.Off+w] = int32(w + 1)
			dst.Cols.TimesNs[dst.Off+w] = dst.Cols.TimesNs[dst.Off+i]
			dst.Cols.Xs[dst.Off+w] = dst.Cols.Xs[dst.Off+i]
			dst.Cols.Ys[dst.Off+w] = dst.Cols.Ys[dst.Off+i]
			dst.Cols.Speeds[dst.Off+w] = dst.Cols.Speeds[dst.Off+i]
			dst.Cols.Fuels[dst.Off+w] = dst.Cols.Fuels[dst.Off+i]
			dst.Cols.Dists[dst.Off+w] = dst.Cols.Dists[dst.Off+i]
			w++
		}
		m = w
		if m == 0 {
			res.Dropped, res.Drops = drops.Total(), drops
			return res
		}
	}
	res.Trip = dst.Sub(0, m)
	res.Dropped, res.Drops = drops.Total(), drops
	return res
}

// filterValidCols mirrors filterValid: it fills s.valid with the
// arrival-order indices of points passing the finiteness, area,
// duplicate-id and spike filters, leaves the surviving timestamp order
// in s.byTM when the spike filter ran, and accumulates per-reason drop
// counts into drops (attributed exactly like the row path: finiteness
// before area before duplicates before spikes). Zero timestamps cannot
// occur in columnar storage (Arena.AppendTrip refuses them), so the
// IsZero test has no columnar counterpart.
func filterValidCols(v trace.ColTrip, cfg Config, s *Scratch, drops *DropStats) {
	n := v.Len()
	checkArea := cfg.Area.Area() > 0
	for i := 0; i < n; i++ {
		if !finite(v.Pos(i).X) || !finite(v.Pos(i).Y) || !finite(v.Speed(i)) ||
			!finite(v.Fuel(i)) || !finite(v.Dist(i)) {
			drops.NonFinite++
			continue
		}
		if checkArea && !cfg.Area.Contains(v.Pos(i)) {
			drops.OutOfArea++
			continue
		}
		s.valid = append(s.valid, int32(i))
	}

	// Duplicate ids: the first occurrence (in arrival order) of each id
	// among the points above wins. Detected by sorting (id, arrival)
	// instead of a per-trip map.
	if len(s.valid) > 1 {
		s.byID = append(s.byID[:0], s.valid...)
		slices.SortFunc(s.byID, func(i, j int32) int {
			a, b := v.PointID(int(i)), v.PointID(int(j))
			if a != b {
				if a < b {
					return -1
				}
				return 1
			}
			return int(i) - int(j)
		})
		dups := 0
		for k := 1; k < len(s.byID); k++ {
			if v.PointID(int(s.byID[k])) == v.PointID(int(s.byID[k-1])) {
				s.bad[s.byID[k]] = true
				dups++
			}
		}
		if dups > 0 {
			drops.DuplicateID += dups
			s.valid = compact(s.valid, s.bad)
		}
	}

	s.byTM = s.byTM[:0]
	if len(s.valid) < 2 {
		return
	}

	// Spike filter in timestamp order with anchor semantics: a point
	// whose implied speed from the last accepted point is impossible is
	// dropped, and the anchor does not advance.
	s.byTM = append(s.byTM, s.valid...)
	sortByTime(v, s.byTM)
	spikes := 0
	last := int(s.byTM[0])
	for _, pi := range s.byTM[1:] {
		p := int(pi)
		dt := subNs(v.TimeNs(p), v.TimeNs(last)).Seconds()
		if dt > 0.5 {
			vel := v.Pos(p).Dist(v.Pos(last)) / dt * 3.6
			if vel > cfg.MaxSpeedKmh {
				s.bad[p] = true
				spikes++
				continue
			}
		}
		last = p
	}
	if spikes > 0 {
		drops.Spike += spikes
		s.valid = compact(s.valid, s.bad)
		s.byTM = compact(s.byTM, s.bad)
	}
}

// spikeScan marks spike points of a realigned (position == timestamp
// ordered) view in bad and returns how many it marked.
func spikeScan(v trace.ColTrip, cfg Config, bad []bool) int {
	for i := range bad {
		bad[i] = false
	}
	drops := 0
	last := 0
	for p := 1; p < v.Len(); p++ {
		dt := subNs(v.TimeNs(p), v.TimeNs(last)).Seconds()
		if dt > 0.5 {
			vel := v.Pos(p).Dist(v.Pos(last)) / dt * 3.6
			if vel > cfg.MaxSpeedKmh {
				bad[p] = true
				drops++
				continue
			}
		}
		last = p
	}
	return drops
}

// sortByTime stable-sorts view indices by timestamp, preserving
// arrival order on ties exactly like sort.SliceStable with
// Time.Before.
func sortByTime(v trace.ColTrip, idx []int32) {
	slices.SortStableFunc(idx, func(i, j int32) int {
		a, b := v.TimeNs(int(i)), v.TimeNs(int(j))
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	})
}

// compact removes marked indices, clearing their marks, and preserves
// order.
func compact(idx []int32, bad []bool) []int32 {
	w := 0
	for _, i := range idx {
		if bad[i] {
			continue
		}
		idx[w] = i
		w++
	}
	return idx[:w]
}

// pathLengthIdx sums consecutive distances over the index sequence,
// floating-point-identical to trace.PathLength over points sorted the
// same way.
func pathLengthIdx(v trace.ColTrip, idx []int32) float64 {
	var total float64
	for k := 1; k < len(idx); k++ {
		total += v.Pos(int(idx[k-1])).Dist(v.Pos(int(idx[k])))
	}
	return total
}
