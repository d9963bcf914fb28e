// Package ingest is the pipeline's event-time streaming front: a
// per-point firehose that replaces the batch assumption of whole
// per-car trace files arriving at once. Individual GPS/OBD events
// arrive out of order from many devices; per-car state machines run
// the paper's cleaning online (non-finite and out-of-area points are
// rejected at admission, ordering repair and spike/duplicate removal
// at trip close), a low watermark bounds the out-of-orderness the
// buffer absorbs, and trips the watermark passes are flushed through
// the existing segmentation → OD selection → map-matching stages into
// the serving layer's sink, so live snapshots advance as the watermark
// does.
//
// Watermark model: the low watermark is the minimum, over active cars,
// of that car's maximum seen event time minus the allowed lateness
// (cars silent for longer than the idle timeout stop holding the
// watermark back). A point below the watermark — or belonging to a
// trip that already closed — is dropped with the typed reason "late";
// everything else buffers until its trip closes. A trip closes when
// the watermark passes the first seen point of the car's next trip
// (all of the earlier trip must lie before it), or, for a car with no
// newer trip that has gone idle, when the watermark passes the trip's
// own maximum. Replaying a fleet whose event stream is in order — or
// shuffled within windows whose event-time span stays below the
// allowed lateness — therefore yields sink snapshots value-identical
// to the batch pipeline (see the differential tests).
//
// State model: each open trip buffers its admitted points, projected,
// in arrival order, in fixed blocks of 64 points with one array per
// field, so admitting a point writes one slot and a trip allocates a
// block per 64 points; the blocks go to the GC with the closed trip.
// A round's analysis worker copies each trip it claims into columns of
// an arena it reuses, and core.Pipeline.ProcessTrip reads that view;
// no row exists between admission and the stage driver. The engine
// keeps the set of cars with an open trip; the watermark step, the
// close scan and Stats walk that set, so their cost follows the active
// fleet rather than every car the stream has seen. Each car remembers
// the ids of its closed trips.
//
// Flush model: a watermark step runs on the caller's goroutine and
// decides the watermark, which trips close and every drop reason; the
// trips it closes flush in a round (the stages, one ordered fold into
// the ledger and the sink, one publish) on a goroutine of its own, so a
// push returns once its round has started. At most two rounds are in
// flight: the newer analyses its trips while the older finishes, and
// folds and publishes after it, so rounds publish in step order. A step
// that closes trips while two rounds run waits for the older first.
// Advance and Close return once every round in flight has published.
package ingest

import (
	"time"

	"repro/internal/geo"
	"repro/internal/trace"
)

// Point is one GPS/OBD event — the wire schema of the firehose. It
// carries the same measurements as a trace.RoutePoint, with positions
// in WGS84 degrees (the interchange convention of the CSV and binary
// trace formats) and event time in Unix milliseconds.
type Point struct {
	Car      int     `json:"car"`
	Trip     int64   `json:"trip"`
	Seq      int     `json:"seq"` // device sequence number within the trip
	TimeMs   int64   `json:"time_ms"`
	Lon      float64 `json:"lon"`
	Lat      float64 `json:"lat"`
	SpeedKmh float64 `json:"speed_kmh"`
	FuelMl   float64 `json:"fuel_ml"`
	DistM    float64 `json:"dist_m"`
}

// Time returns the event time (UTC); the zero TimeMs maps to the zero
// time, mirroring RoutePoint's "zero timestamp is invalid" convention.
func (p Point) Time() time.Time {
	if p.TimeMs == 0 {
		return time.Time{}
	}
	return time.UnixMilli(p.TimeMs).UTC()
}

// RoutePoint converts the event to the pipeline's in-memory point,
// projecting the WGS84 position onto the city plane.
func (p Point) RoutePoint(proj *geo.Projection) trace.RoutePoint {
	return trace.RoutePoint{
		PointID:  p.Seq,
		TripID:   p.Trip,
		Pos:      proj.ToXY(geo.Point{Lon: p.Lon, Lat: p.Lat}),
		Time:     p.Time(),
		SpeedKmh: p.SpeedKmh,
		FuelMl:   p.FuelMl,
		DistM:    p.DistM,
	}
}

// FromRoutePoint converts one in-memory point of car's trip to the
// wire schema, projecting the position back to WGS84 — the replay
// direction used by the firehose client and the differential tests.
func FromRoutePoint(car int, rp trace.RoutePoint, proj *geo.Projection) Point {
	ll := proj.ToPoint(rp.Pos)
	var ms int64
	if !rp.Time.IsZero() {
		ms = rp.Time.UnixMilli()
	}
	return Point{
		Car:      car,
		Trip:     rp.TripID,
		Seq:      rp.PointID,
		TimeMs:   ms,
		Lon:      ll.Lon,
		Lat:      ll.Lat,
		SpeedKmh: rp.SpeedKmh,
		FuelMl:   rp.FuelMl,
		DistM:    rp.DistM,
	}
}
