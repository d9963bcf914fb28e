package ingest

// The full-scan reference of the engine's admission and watermark
// step, kept for the tests alone: admission finds a point's trip by
// scanning the car's open trips, and every step sorts and walks the
// open trips of every active car. The engine reaches an open trip
// through the car's last-admitted trip and steps only the cars that can
// close one; it must admit, close and count exactly as this reference
// does.

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/geo"
	"repro/internal/obs"
)

// pushScan is PushBatch's admission, by admitScan, with no watermark
// step; the caller holds e.mu.
func (e *Engine) pushScan(pts []Point, recvNs int64) PushResult {
	res := PushResult{Received: len(pts)}
	for i := range pts {
		if reason, ok := e.admitScan(&pts[i], recvNs); ok {
			res.Admitted++
		} else {
			if res.Dropped == nil {
				res.Dropped = map[obs.DropReason]int{}
			}
			res.Dropped[reason]++
		}
	}
	e.received += uint64(len(pts))
	e.admitted += uint64(res.Admitted)
	e.met.bufPoints.Add(int64(res.Admitted))
	e.lin.ingest.Add(uint64(res.Admitted), uint64(res.Admitted))
	res.WatermarkMs = e.wm.Load()
	return res
}

// admitScan is admitLocked finding the point's open trip by a scan of
// the car's open trips.
func (e *Engine) admitScan(p *Point, recvNs int64) (obs.DropReason, bool) {
	pos := e.proj.ToXY(geo.Point{Lon: p.Lon, Lat: p.Lat})
	if checkBounds(*p) != nil || p.TimeMs == 0 || !finite(pos.X) || !finite(pos.Y) ||
		!finite(p.SpeedKmh) || !finite(p.FuelMl) || !finite(p.DistM) {
		return e.dropLocked(p.Car, obs.DropNonFinite, e.lin.inNonFinite), false
	}
	if e.area.Area() > 0 && !e.area.Contains(pos) {
		return e.dropLocked(p.Car, obs.DropOutOfArea, e.lin.inOutOfArea), false
	}
	cs := e.cars[p.Car]
	if cs == nil {
		cs = &carState{car: p.Car, closed: map[int64]struct{}{}}
		e.cars[p.Car] = cs
	}
	if wm := e.wm.Load(); wm != unsetWatermark && p.TimeMs < wm {
		reason, dc := e.staleReason(cs, p)
		return e.dropLocked(p.Car, reason, dc), false
	}
	var tb *tripBuf
	for _, o := range cs.open {
		if o.id == p.Trip {
			tb = o
			break
		}
	}
	if tb == nil {
		if _, done := cs.closed[p.Trip]; done {
			reason, dc := e.staleReason(cs, p)
			return e.dropLocked(p.Car, reason, dc), false
		}
		if len(cs.open) == 0 {
			e.active = append(e.active, cs)
		}
		tb = &tripBuf{id: p.Trip, minMs: p.TimeMs, maxMs: p.TimeMs}
		cs.open = append(cs.open, tb)
		e.met.openTrips.Add(1)
	}
	tb.add(p, pos, recvNs)
	if p.TimeMs < tb.minMs {
		tb.minMs = p.TimeMs
	}
	if p.TimeMs > tb.maxMs {
		tb.maxMs = p.TimeMs
	}
	if p.TimeMs > cs.maxMs || cs.maxMs == 0 {
		cs.maxMs = p.TimeMs
	}
	if p.TimeMs > e.globalMaxMs || !e.seenPoints {
		e.globalMaxMs = p.TimeMs
	}
	e.seenPoints = true
	return "", true
}

// advanceScan is advanceLocked sorting and walking the open trips of
// every active car; the caller holds e.mu.
func (e *Engine) advanceScan() []closedTrip {
	if !e.seenPoints {
		return nil
	}
	latenessMs := e.cfg.AllowedLateness.Milliseconds()
	idleMs := e.cfg.IdleTimeout.Milliseconds()

	var wm int64
	if e.closing {
		wm = math.MaxInt64
	} else {
		minActive := int64(math.MaxInt64)
		for _, cs := range e.active {
			if e.globalMaxMs-cs.maxMs > idleMs {
				continue
			}
			if cs.maxMs < minActive {
				minActive = cs.maxMs
			}
		}
		if minActive == math.MaxInt64 {
			wm = e.globalMaxMs - latenessMs
		} else {
			wm = minActive - latenessMs
		}
		if cur := e.wm.Load(); cur != unsetWatermark && wm < cur {
			wm = cur
		}
	}
	e.wm.Store(wm)
	if wm != math.MaxInt64 {
		e.met.watermark.Set(wm)
	}

	var out []closedTrip
	points := 0
	active := e.active[:0]
	for _, cs := range e.active {
		idle := e.closing || e.globalMaxMs-cs.maxMs > idleMs
		slices.SortFunc(cs.open, byStart)
		open := cs.open[:0]
		for i, tb := range cs.open {
			bound := tb.maxMs
			if i+1 < len(cs.open) {
				bound = max(tb.maxMs, cs.open[i+1].minMs)
			} else if !idle {
				open = append(open, tb)
				continue
			}
			if wm > bound {
				cs.closed[tb.id] = struct{}{}
				out = append(out, closedTrip{car: cs.car, tb: tb})
				points += tb.n
			} else {
				open = append(open, tb)
			}
		}
		clear(cs.open[len(open):])
		cs.open = open
		if len(open) > 0 {
			active = append(active, cs)
		}
	}
	clear(e.active[len(active):])
	e.active = active
	e.closedTrips += uint64(len(out))
	e.met.tripsClosed.Add(uint64(len(out)))
	e.met.openTrips.Add(-int64(len(out)))
	e.met.bufPoints.Add(-int64(points))
	slices.SortFunc(out, func(a, b closedTrip) int {
		if c := cmp.Compare(a.car, b.car); c != 0 {
			return c
		}
		return byStart(a.tb, b.tb)
	})
	return out
}
