package sink

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/roadnet"
)

// TAXISNPB — the versioned snapshot wire format. This is the unit the
// cluster ships from worker to coordinator: one sealed (or in-flight)
// sink Snapshot with every mergeable sufficient statistic intact —
// Welford cell moments, OD trip counts, frozen travel-time histograms
// with their layout stamps, metric moments and attribute totals.
//
// Layout (little-endian; floats are fixed 8-byte IEEE 754 bits, counts
// are uvarints, cell indexes are signed varints):
//
//	[8]byte  magic "TAXISNPB"
//	u8       version (currently 2)
//	uvarint  epoch
//	u8       flags (bit0 Complete, bit1 grid present, bit2 publish time present)
//	uvarint  carsIngested, uvarint carsFailed, uvarint points
//	varint   publishedAt unix-nanos        (iff flag bit2)
//	f64 ×5   grid MinX,MinY,MaxX,MaxY,CellM (iff flag bit1)
//	uvarint  nGates, nGates × string        (uvarint len + bytes)
//	uvarint  nCells, nCells × cell
//	uvarint  nOD,    nOD × direction
//	uvarint  nProfiles, nProfiles × profile (version >= 2 only)
//
//	cell      = varint I, varint J, uvarint N, f64 mean, f64 var, f64 min, f64 max
//	direction = string from, string to, uvarint trips,
//	            frozen histogram (obs codec, self-delimiting),
//	            metric ×4 (dist, fuel, lowSpeed, normalSpeed), attrs ×4 uvarint
//	metric    = uvarint N, f64 mean, f64 min, f64 max
//	profile   = varint edge, uvarint hour, uvarint N,
//	            f64 mean, f64 var, f64 min, f64 max   (pace in s/km)
//
// Version history: v1 had no profile section; v2 (per-edge travel-time
// profiles) appends it after the directions. Decoding accepts both — a
// v1 blob yields a snapshot with nil EdgeProfiles, so a mixed-version
// cluster merges correctly (the old worker simply contributes no
// profiles) — and encoding always writes the current version.
//
// Decoding is strict: a wrong magic or unknown version is a typed
// error, every length is bounds-checked against the remaining input
// before any allocation, every float (embedded histogram sums and
// maxima included) must be finite, and embedded histograms go through
// the obs decoder so a corrupt or cross-layout blob can never silently
// enter a merge.
var snapshotMagic = [8]byte{'T', 'A', 'X', 'I', 'S', 'N', 'P', 'B'}

const (
	snapshotVersion = 2
	// snapshotVersionV1 is the oldest decodable format: identical up to
	// the directions, no profile section.
	snapshotVersionV1 = 1
)

const (
	snapFlagComplete  = 1 << 0
	snapFlagGrid      = 1 << 1
	snapFlagPublished = 1 << 2
)

// ErrUnknownSnapshotVersion marks a TAXISNPB blob whose version this
// build does not speak. The cluster treats it as a deployment-skew
// signal, never as mergeable data.
var ErrUnknownSnapshotVersion = errors.New("sink: unknown snapshot format version")

// ErrBadSnapshot marks a snapshot blob that fails structural
// validation: wrong magic, truncation, oversized lengths, a NaN or
// infinite float, or a corrupt embedded histogram.
var ErrBadSnapshot = errors.New("sink: bad snapshot encoding")

// AppendSnapshot appends s's TAXISNPB encoding to dst. The encoding is
// deterministic: cells in CellID order, directions in Directions
// order, so equal snapshots encode to equal bytes.
func AppendSnapshot(dst []byte, s *Snapshot) []byte {
	dst = append(dst, snapshotMagic[:]...)
	dst = append(dst, snapshotVersion)
	dst = binary.AppendUvarint(dst, s.Epoch)

	var flags byte
	if s.Complete {
		flags |= snapFlagComplete
	}
	if s.Grid != nil {
		flags |= snapFlagGrid
	}
	if !s.PublishedAt.IsZero() {
		flags |= snapFlagPublished
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(s.CarsIngested))
	dst = binary.AppendUvarint(dst, uint64(s.CarsFailed))
	dst = binary.AppendUvarint(dst, uint64(s.Points))
	if flags&snapFlagPublished != 0 {
		dst = binary.AppendVarint(dst, s.PublishedAt.UnixNano())
	}
	if s.Grid != nil {
		for _, f := range []float64{s.Grid.Area.MinX, s.Grid.Area.MinY, s.Grid.Area.MaxX, s.Grid.Area.MaxY, s.Grid.CellM} {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
		}
	}

	dst = binary.AppendUvarint(dst, uint64(len(s.Gates)))
	for _, g := range s.Gates {
		dst = appendString(dst, g)
	}

	cells := s.CellIDs()
	dst = binary.AppendUvarint(dst, uint64(len(cells)))
	for _, id := range cells {
		c := s.Cells[id]
		dst = binary.AppendVarint(dst, int64(id.I))
		dst = binary.AppendVarint(dst, int64(id.J))
		dst = binary.AppendUvarint(dst, uint64(c.N))
		for _, f := range []float64{c.MeanKmh, c.VarKmh, c.MinKmh, c.MaxKmh} {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
		}
	}

	dirs := s.Directions()
	dst = binary.AppendUvarint(dst, uint64(len(dirs)))
	for _, dir := range dirs {
		od := s.OD[dir]
		dst = appendString(dst, od.From)
		dst = appendString(dst, od.To)
		dst = binary.AppendUvarint(dst, uint64(od.Trips))
		dst = od.TravelTimeS.AppendBinary(dst)
		for _, m := range []MetricStats{od.DistKm, od.FuelMl, od.LowSpeedPct, od.NormalSpeedPct} {
			dst = binary.AppendUvarint(dst, uint64(m.N))
			for _, f := range []float64{m.Mean, m.Min, m.Max} {
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
			}
		}
		for _, a := range []int{od.Attrs.TrafficLights, od.Attrs.BusStops, od.Attrs.PedestrianCrossings, od.Attrs.Junctions} {
			dst = binary.AppendUvarint(dst, uint64(a))
		}
	}

	keys := s.EdgeProfileKeys()
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, key := range keys {
		ps := s.EdgeProfiles[key]
		dst = binary.AppendVarint(dst, int64(key.Edge))
		dst = binary.AppendUvarint(dst, uint64(key.Hour))
		dst = binary.AppendUvarint(dst, uint64(ps.N))
		for _, f := range []float64{ps.MeanSPerKm, ps.VarSPerKm, ps.MinSPerKm, ps.MaxSPerKm} {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
		}
	}
	return dst
}

// EncodeSnapshot returns s's TAXISNPB encoding.
func EncodeSnapshot(s *Snapshot) []byte { return AppendSnapshot(nil, s) }

// WriteSnapshot writes s's TAXISNPB encoding to w.
func WriteSnapshot(w io.Writer, s *Snapshot) error {
	_, err := w.Write(EncodeSnapshot(s))
	return err
}

// ReadSnapshot decodes one snapshot from r (reading to EOF).
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("sink: read snapshot: %w", err)
	}
	return DecodeSnapshot(data)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// snapDecoder walks a TAXISNPB body with bounds-checked reads.
type snapDecoder struct {
	data []byte
	off  int
	err  error
}

func (d *snapDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s (at byte %d)", ErrBadSnapshot, fmt.Sprintf(format, args...), d.off)
	}
}

func (d *snapDecoder) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.fail("truncated %s", what)
		return 0
	}
	d.off += n
	return v
}

func (d *snapDecoder) varint(what string) int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		d.fail("truncated %s", what)
		return 0
	}
	d.off += n
	return v
}

// count reads a collection length and validates it against the bytes
// actually remaining (each element needs at least minBytes), so a
// hostile length cannot drive a huge allocation.
func (d *snapDecoder) count(what string, minBytes int) int {
	v := d.uvarint(what)
	if d.err != nil {
		return 0
	}
	if v > uint64(len(d.data)-d.off)/uint64(minBytes)+1 {
		d.fail("%s count %d exceeds remaining input", what, v)
		return 0
	}
	return int(v)
}

func (d *snapDecoder) f64(what string) float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.data) {
		d.fail("truncated %s", what)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.data[d.off:]))
	if math.IsNaN(v) || math.IsInf(v, 0) {
		d.fail("non-finite %s %v", what, v)
		return 0
	}
	d.off += 8
	return v
}

func (d *snapDecoder) byte(what string) byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.data) {
		d.fail("truncated %s", what)
		return 0
	}
	b := d.data[d.off]
	d.off++
	return b
}

func (d *snapDecoder) string(what string) string {
	n := d.uvarint(what + " length")
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.data)-d.off) {
		d.fail("%s length %d exceeds remaining input", what, n)
		return ""
	}
	s := string(d.data[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

func (d *snapDecoder) metric(what string) MetricStats {
	m := MetricStats{N: int(d.uvarint(what + " n"))}
	m.Mean = d.f64(what + " mean")
	m.Min = d.f64(what + " min")
	m.Max = d.f64(what + " max")
	return m
}

func (d *snapDecoder) histogram(what string) *obs.FrozenHistogram {
	if d.err != nil {
		return nil
	}
	h, n, err := obs.DecodeFrozenHistogram(d.data[d.off:])
	if err != nil {
		d.fail("%s: %v", what, err)
		return nil
	}
	for _, v := range []float64{h.Sum(), h.Max()} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			d.fail("%s: non-finite sum or max %v", what, v)
			return nil
		}
	}
	d.off += n
	return h
}

// DecodeSnapshot decodes a TAXISNPB blob. Unknown versions return
// ErrUnknownSnapshotVersion; any structural violation returns an error
// wrapping ErrBadSnapshot. Trailing bytes are an error.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	if len(data) < len(snapshotMagic)+1 {
		return nil, fmt.Errorf("%w: %d bytes is too short for the header", ErrBadSnapshot, len(data))
	}
	if [8]byte(data[:8]) != snapshotMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadSnapshot, data[:8])
	}
	version := data[8]
	if version < snapshotVersionV1 || version > snapshotVersion {
		return nil, fmt.Errorf("%w: got version %d, this build speaks %d..%d",
			ErrUnknownSnapshotVersion, version, snapshotVersionV1, snapshotVersion)
	}

	d := &snapDecoder{data: data, off: 9}
	s := &Snapshot{Epoch: d.uvarint("epoch")}
	flags := d.byte("flags")
	s.Complete = flags&snapFlagComplete != 0
	s.CarsIngested = int(d.uvarint("carsIngested"))
	s.CarsFailed = int(d.uvarint("carsFailed"))
	s.Points = int(d.uvarint("points"))
	if flags&snapFlagPublished != 0 {
		s.PublishedAt = time.Unix(0, d.varint("publishedAt"))
	}
	if flags&snapFlagGrid != 0 {
		area := geo.Rect{
			MinX: d.f64("grid minX"), MinY: d.f64("grid minY"),
			MaxX: d.f64("grid maxX"), MaxY: d.f64("grid maxY"),
		}
		cellM := d.f64("grid cellM")
		if d.err == nil {
			g, err := grid.New(area, cellM)
			if err != nil {
				d.fail("grid frame: %v", err)
			} else {
				s.Grid = g
			}
		}
	}

	if n := d.count("gates", 1); n > 0 {
		s.Gates = make([]string, 0, n)
		for i := 0; i < n && d.err == nil; i++ {
			s.Gates = append(s.Gates, d.string("gate name"))
		}
	}

	if n := d.count("cells", 3+4*8); n > 0 || d.err == nil {
		s.Cells = make(map[grid.CellID]CellStats, n)
		for i := 0; i < n && d.err == nil; i++ {
			id := grid.CellID{I: int(d.varint("cell i")), J: int(d.varint("cell j"))}
			c := CellStats{N: int(d.uvarint("cell n"))}
			c.MeanKmh = d.f64("cell mean")
			c.VarKmh = d.f64("cell var")
			c.MinKmh = d.f64("cell min")
			c.MaxKmh = d.f64("cell max")
			if d.err == nil {
				if _, dup := s.Cells[id]; dup {
					d.fail("duplicate cell %v", id)
					break
				}
				s.Cells[id] = c
			}
		}
	}

	if n := d.count("directions", 2+4+4*(1+3*8)+4); n > 0 || d.err == nil {
		s.OD = make(map[ODKey]ODStats, n)
		for i := 0; i < n && d.err == nil; i++ {
			od := ODStats{From: d.string("od from"), To: d.string("od to")}
			od.Trips = int(d.uvarint("od trips"))
			od.TravelTimeS = d.histogram("od travel-time histogram")
			od.DistKm = d.metric("od dist")
			od.FuelMl = d.metric("od fuel")
			od.LowSpeedPct = d.metric("od low-speed")
			od.NormalSpeedPct = d.metric("od normal-speed")
			od.Attrs = AttrTotals{
				TrafficLights:       int(d.uvarint("od traffic lights")),
				BusStops:            int(d.uvarint("od bus stops")),
				PedestrianCrossings: int(d.uvarint("od crossings")),
				Junctions:           int(d.uvarint("od junctions")),
			}
			if d.err == nil {
				key := ODKey{From: od.From, To: od.To}
				if _, dup := s.OD[key]; dup {
					d.fail("duplicate direction %v", key)
					break
				}
				s.OD[key] = od
			}
		}
	}

	if version >= 2 {
		if n := d.count("profiles", 3+4*8); n > 0 {
			s.EdgeProfiles = make(map[EdgeProfileKey]EdgeProfileStats, n)
			for i := 0; i < n && d.err == nil; i++ {
				key := EdgeProfileKey{
					Edge: roadnet.EdgeID(d.varint("profile edge")),
					Hour: int(d.uvarint("profile hour")),
				}
				ps := EdgeProfileStats{N: int(d.uvarint("profile n"))}
				ps.MeanSPerKm = d.f64("profile mean")
				ps.VarSPerKm = d.f64("profile var")
				ps.MinSPerKm = d.f64("profile min")
				ps.MaxSPerKm = d.f64("profile max")
				if d.err == nil {
					if _, dup := s.EdgeProfiles[key]; dup {
						d.fail("duplicate profile %v", key)
						break
					}
					s.EdgeProfiles[key] = ps
				}
			}
		}
	}

	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadSnapshot, len(data)-d.off)
	}
	return s, nil
}
