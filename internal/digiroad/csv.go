package digiroad

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"repro/internal/geo"
)

// CSV interchange for the road database. Two record types share one
// stream, tagged by the first column:
//
//	E,<id>,<class>,<flow>,<limit_kmh>,<name>,<lon lat;...>[,<from:to:kmh|...>]
//	O,<id>,<kind>,<lon>,<lat>,<element_id>
//
// Geometry is written in WGS84 so exported files are portable between
// databases with different projection origins. The optional eighth
// element field carries segmented speed-limit ranges.

// WriteCSV serialises the database to w.
func (db *Database) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	for _, e := range db.Elements() {
		var sb strings.Builder
		for i, xy := range e.Geom {
			if i > 0 {
				sb.WriteByte(';')
			}
			p := db.Proj.ToPoint(xy)
			fmt.Fprintf(&sb, "%.7f %.7f", p.Lon, p.Lat)
		}
		rec := []string{
			"E",
			strconv.Itoa(e.ID),
			strconv.Itoa(int(e.Class)),
			strconv.Itoa(int(e.Flow)),
			strconv.FormatFloat(e.SpeedLimitKmh, 'f', -1, 64),
			e.Name,
			sb.String(),
		}
		if len(e.Limits) > 0 {
			var lb strings.Builder
			for i, r := range e.Limits {
				if i > 0 {
					lb.WriteByte('|')
				}
				fmt.Fprintf(&lb, "%.2f:%.2f:%.1f", r.FromM, r.ToM, r.Kmh)
			}
			rec = append(rec, lb.String())
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("digiroad: write element %d: %w", e.ID, err)
		}
	}
	for _, o := range db.Objects() {
		p := db.Proj.ToPoint(o.Pos)
		rec := []string{
			"O",
			strconv.Itoa(o.ID),
			strconv.Itoa(int(o.Kind)),
			strconv.FormatFloat(p.Lon, 'f', 7, 64),
			strconv.FormatFloat(p.Lat, 'f', 7, 64),
			strconv.Itoa(o.ElementID),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("digiroad: write object %d: %w", o.ID, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV loads records produced by WriteCSV into db, then builds the
// spatial indexes its queries read.
func (db *Database) ReadCSV(r io.Reader) error {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			db.buildIndexes()
			return nil
		}
		if err != nil {
			return fmt.Errorf("digiroad: csv read: %w", err)
		}
		line++
		if len(rec) == 0 {
			continue
		}
		switch rec[0] {
		case "E":
			if err := db.readElementRecord(rec); err != nil {
				return fmt.Errorf("digiroad: line %d: %w", line, err)
			}
		case "O":
			if err := db.readObjectRecord(rec); err != nil {
				return fmt.Errorf("digiroad: line %d: %w", line, err)
			}
		default:
			return fmt.Errorf("digiroad: line %d: unknown record tag %q", line, rec[0])
		}
	}
}

func (db *Database) readElementRecord(rec []string) error {
	if len(rec) != 7 && len(rec) != 8 {
		return fmt.Errorf("element record needs 7 or 8 fields, got %d", len(rec))
	}
	id, err := strconv.Atoi(rec[1])
	if err != nil {
		return fmt.Errorf("element id: %w", err)
	}
	class, err := strconv.Atoi(rec[2])
	if err != nil {
		return fmt.Errorf("element class: %w", err)
	}
	flow, err := strconv.Atoi(rec[3])
	if err != nil {
		return fmt.Errorf("element flow: %w", err)
	}
	limit, err := parseFinite(rec[4])
	if err != nil {
		return fmt.Errorf("element %d speed limit: %w", id, err)
	}
	geom, err := db.parseGeom(rec[6])
	if err != nil {
		return fmt.Errorf("element %d: %w", id, err)
	}
	stored, err := db.AddElement(TrafficElement{
		ID:            id,
		Geom:          geom,
		Class:         FunctionalClass(class),
		Flow:          FlowDirection(flow),
		SpeedLimitKmh: limit,
		Name:          rec[5],
	})
	if err != nil {
		return err
	}
	if len(rec) == 8 && rec[7] != "" {
		ranges, err := parseSpeedRanges(rec[7])
		if err != nil {
			return fmt.Errorf("element %d: %w", id, err)
		}
		return db.SetSpeedLimits(stored.ID, ranges)
	}
	return nil
}

func parseSpeedRanges(s string) ([]SpeedLimitRange, error) {
	parts := strings.Split(s, "|")
	out := make([]SpeedLimitRange, 0, len(parts))
	for _, part := range parts {
		fields := strings.Split(part, ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("bad speed range %q", part)
		}
		from, err := parseFinite(fields[0])
		if err != nil {
			return nil, fmt.Errorf("speed range from: %w", err)
		}
		to, err := parseFinite(fields[1])
		if err != nil {
			return nil, fmt.Errorf("speed range to: %w", err)
		}
		kmh, err := parseFinite(fields[2])
		if err != nil {
			return nil, fmt.Errorf("speed range kmh: %w", err)
		}
		out = append(out, SpeedLimitRange{FromM: from, ToM: to, Kmh: kmh})
	}
	return out, nil
}

func (db *Database) readObjectRecord(rec []string) error {
	if len(rec) != 6 {
		return fmt.Errorf("object record needs 6 fields, got %d", len(rec))
	}
	id, err := strconv.Atoi(rec[1])
	if err != nil {
		return fmt.Errorf("object id: %w", err)
	}
	kind, err := strconv.Atoi(rec[2])
	if err != nil {
		return fmt.Errorf("object kind: %w", err)
	}
	pos, err := db.parsePosition(rec[3], rec[4])
	if err != nil {
		return fmt.Errorf("object %d: %w", id, err)
	}
	elemID, err := strconv.Atoi(rec[5])
	if err != nil {
		return fmt.Errorf("object element id: %w", err)
	}
	db.AddObject(PointObject{
		ID:        id,
		Kind:      ObjectKind(kind),
		Pos:       pos,
		ElementID: elemID,
	})
	return nil
}

// parseFinite parses a float field and refuses NaN and ±Inf, which
// strconv.ParseFloat accepts.
func parseFinite(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("%q is not finite", s)
	}
	return v, nil
}

// parsePosition parses a WGS84 longitude and latitude and projects
// them. It refuses a value or a projected coordinate that is not
// finite: a NaN bound poisons every R-tree node above its item, and
// the index then finds nothing.
func (db *Database) parsePosition(lonS, latS string) (geo.XY, error) {
	lon, err := parseFinite(lonS)
	if err != nil {
		return geo.XY{}, fmt.Errorf("lon: %w", err)
	}
	lat, err := parseFinite(latS)
	if err != nil {
		return geo.XY{}, fmt.Errorf("lat: %w", err)
	}
	xy := db.Proj.ToXY(geo.Point{Lon: lon, Lat: lat})
	if math.IsInf(xy.X, 0) || math.IsInf(xy.Y, 0) {
		return geo.XY{}, fmt.Errorf("position %s %s projects outside the plane", lonS, latS)
	}
	return xy, nil
}

func (db *Database) parseGeom(s string) (geo.Polyline, error) {
	parts := strings.Split(s, ";")
	pl := make(geo.Polyline, 0, len(parts))
	for _, part := range parts {
		fields := strings.Fields(part)
		if len(fields) != 2 {
			return nil, fmt.Errorf("bad geometry vertex %q", part)
		}
		xy, err := db.parsePosition(fields[0], fields[1])
		if err != nil {
			return nil, fmt.Errorf("geometry %w", err)
		}
		pl = append(pl, xy)
	}
	return pl, nil
}
