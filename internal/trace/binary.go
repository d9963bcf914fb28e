package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"time"

	"repro/internal/geo"
)

// Binary trace format: a length-prefixed, fixed-width, little-endian
// columnar encoding of the same information as the CSV interchange
// format, ~2.2x smaller and parsed without any per-row string work.
//
//	file   := header record*
//	header := magic[8]="TAXITRCB" version:u32=1 flags:u32=0
//	record := recLen:u32 tripID:i64 carID:i32 nPoints:i32 columns
//	columns:= pointID[n]:i32 timeMs[n]:i64 lonE7[n]:i32 latE7[n]:i32
//	          speedCenti[n]:i32 fuelDeci[n]:i32 distDeci[n]:i32
//
// recLen counts every byte after itself (16 + 32*n), so a reader can
// skip records it does not want; columns are stored contiguously, so a
// memory-mapped file can be scanned column-wise without decoding.
//
// Quantisation matches the CSV writer digit for digit: each float
// column stores the integer mantissa of strconv.FormatFloat(x, 'f',
// prec, 64) at the CSV precision (lon/lat 7, speed 2, fuel/dist 1
// decimals), and decoding divides by the exact power of ten. Both are
// correctly rounded, so a value loaded from binary is bit-identical
// to the same value written to CSV and re-parsed — the pipeline
// differential tests rely on this. The one canonicalisation: values
// whose formatted form is "-0.0…" decode as +0.
//
// Unlike CSV (which groups rows by trip id across the whole file),
// each binary record is self-contained, and empty trips are skipped on
// write, exactly as an empty trip writes no CSV rows.

var binaryMagic = [8]byte{'T', 'A', 'X', 'I', 'T', 'R', 'C', 'B'}

const (
	binaryVersion    = 1
	binaryHeaderLen  = 16
	binaryTripHead   = 16 // tripID + carID + nPoints
	binaryPointWidth = 32 // 7 columns: i32 + i64 + 5*i32

	// maxBinaryPoints bounds nPoints so a corrupt or hostile length
	// prefix cannot demand an absurd record; reads are additionally
	// chunked so allocation tracks bytes actually present.
	maxBinaryPoints = 1 << 24
)

// Column precisions, mirroring WriteCSV's FormatFloat calls.
const (
	lonLatPrec = 7
	speedPrec  = 2
	fuelPrec   = 1
	distPrec   = 1
)

var pow10 = [8]float64{1, 10, 100, 1000, 10000, 100000, 1000000, 10000000}

// quantDecimal returns the integer mantissa m of x formatted with
// FormatFloat(x, 'f', prec, 64), so that float64(m)/10^prec equals
// ParseFloat of that formatted string. Errors on non-finite x.
func quantDecimal(buf []byte, x float64, prec int) (int64, error) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0, fmt.Errorf("non-finite value %v", x)
	}
	s := strconv.AppendFloat(buf[:0], x, 'f', prec, 64)
	neg := false
	if len(s) > 0 && s[0] == '-' {
		neg = true
		s = s[1:]
	}
	var m int64
	for _, c := range s {
		if c == '.' {
			continue
		}
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("unexpected digit %q formatting %v", c, x)
		}
		d := int64(c - '0')
		if m > (math.MaxInt64-d)/10 {
			return 0, fmt.Errorf("value %v overflows the quantiser", x)
		}
		m = m*10 + d
	}
	if neg {
		m = -m
	}
	return m, nil
}

func quantInt32(buf []byte, x float64, prec int, field string, tripID int64) (int32, error) {
	m, err := quantDecimal(buf, x, prec)
	if err != nil {
		return 0, fmt.Errorf("trace: trip %d %s: %w", tripID, field, err)
	}
	if m < math.MinInt32 || m > math.MaxInt32 {
		return 0, fmt.Errorf("trace: trip %d %s %v overflows int32 at %d decimals", tripID, field, x, prec)
	}
	return int32(m), nil
}

// WriteBinary serialises trips to w in the binary trace format, using
// proj to convert positions to WGS84 (the same lossy step as CSV).
// Trips without points are skipped.
func WriteBinary(w io.Writer, trips []*Trip, proj *geo.Projection) error {
	bw := bufio.NewWriter(w)
	var head [binaryHeaderLen]byte
	copy(head[:8], binaryMagic[:])
	binary.LittleEndian.PutUint32(head[8:12], binaryVersion)
	if _, err := bw.Write(head[:]); err != nil {
		return fmt.Errorf("trace: write binary header: %w", err)
	}

	var rec []byte
	var qbuf [32]byte
	for _, t := range trips {
		n := len(t.Points)
		if n == 0 {
			continue
		}
		if n > maxBinaryPoints {
			return fmt.Errorf("trace: trip %d has %d points, format limit %d", t.ID, n, maxBinaryPoints)
		}
		recLen := binaryTripHead + n*binaryPointWidth
		rec = slices.Grow(rec[:0], 4+recLen)[:4+recLen]
		binary.LittleEndian.PutUint32(rec[0:4], uint32(recLen))
		binary.LittleEndian.PutUint64(rec[4:12], uint64(t.ID))
		binary.LittleEndian.PutUint32(rec[12:16], uint32(int32(t.CarID)))
		if err := checkCarID(t.ID, t.CarID); err != nil {
			return err
		}
		binary.LittleEndian.PutUint32(rec[16:20], uint32(int32(n)))

		ids := rec[20:]
		times := ids[4*n:]
		lons := times[8*n:]
		lats := lons[4*n:]
		speeds := lats[4*n:]
		fuels := speeds[4*n:]
		dists := fuels[4*n:]
		for i := range t.Points {
			p := &t.Points[i]
			if err := checkPointID(t.ID, p.PointID); err != nil {
				return err
			}
			ll := proj.ToPoint(p.Pos)
			lon, err := quantInt32(qbuf[:], ll.Lon, lonLatPrec, "lon", t.ID)
			if err != nil {
				return err
			}
			lat, err := quantInt32(qbuf[:], ll.Lat, lonLatPrec, "lat", t.ID)
			if err != nil {
				return err
			}
			speed, err := quantInt32(qbuf[:], p.SpeedKmh, speedPrec, "speed_kmh", t.ID)
			if err != nil {
				return err
			}
			fuel, err := quantInt32(qbuf[:], p.FuelMl, fuelPrec, "fuel_ml", t.ID)
			if err != nil {
				return err
			}
			dist, err := quantInt32(qbuf[:], p.DistM, distPrec, "dist_m", t.ID)
			if err != nil {
				return err
			}
			binary.LittleEndian.PutUint32(ids[4*i:], uint32(int32(p.PointID)))
			binary.LittleEndian.PutUint64(times[8*i:], uint64(p.Time.UnixMilli()))
			binary.LittleEndian.PutUint32(lons[4*i:], uint32(lon))
			binary.LittleEndian.PutUint32(lats[4*i:], uint32(lat))
			binary.LittleEndian.PutUint32(speeds[4*i:], uint32(speed))
			binary.LittleEndian.PutUint32(fuels[4*i:], uint32(fuel))
			binary.LittleEndian.PutUint32(dists[4*i:], uint32(dist))
		}
		if _, err := bw.Write(rec); err != nil {
			return fmt.Errorf("trace: write trip %d: %w", t.ID, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: flush binary: %w", err)
	}
	return nil
}

// BinaryReader streams trip records from a binary trace file into an
// arena, one record per Next call, without materialising RoutePoints.
type BinaryReader struct {
	r       *bufio.Reader
	proj    *geo.Projection
	scratch []byte
}

// NewBinaryReader validates the file header and returns a streaming
// reader.
func NewBinaryReader(r io.Reader, proj *geo.Projection) (*BinaryReader, error) {
	br := &BinaryReader{proj: proj}
	if err := br.Reset(r, proj); err != nil {
		return nil, err
	}
	return br, nil
}

// Reset re-points the reader at a new stream, reusing its buffers, and
// validates the stream's header. A zero BinaryReader may be Reset.
func (br *BinaryReader) Reset(r io.Reader, proj *geo.Projection) error {
	if br.r == nil {
		br.r = bufio.NewReaderSize(r, 1<<16)
	} else {
		br.r.Reset(r)
	}
	br.proj = proj
	var head [binaryHeaderLen]byte
	if _, err := io.ReadFull(br.r, head[:]); err != nil {
		return fmt.Errorf("trace: read binary header: %w", err)
	}
	if [8]byte(head[:8]) != binaryMagic {
		return fmt.Errorf("trace: bad magic %q", head[:8])
	}
	if v := binary.LittleEndian.Uint32(head[8:12]); v != binaryVersion {
		return fmt.Errorf("trace: unsupported binary version %d", v)
	}
	return nil
}

// readBody reads need bytes into the reusable scratch buffer in
// bounded chunks, so a lying length prefix on a short input cannot
// force a large allocation.
func (br *BinaryReader) readBody(need int) ([]byte, error) {
	const chunk = 1 << 18
	br.scratch = br.scratch[:0]
	for len(br.scratch) < need {
		step := need - len(br.scratch)
		if step > chunk {
			step = chunk
		}
		off := len(br.scratch)
		br.scratch = slices.Grow(br.scratch, step)[:off+step]
		if _, err := io.ReadFull(br.r, br.scratch[off:]); err != nil {
			return nil, err
		}
	}
	return br.scratch, nil
}

// maxTimeMs bounds timestamps to the nanosecond-representable window
// used by the columnar store.
const maxTimeMs = math.MaxInt64 / int64(time.Millisecond)

// The per-value bounds every trace reader and writer enforces, so the
// CSV and binary formats accept exactly the same values: car and point
// ids fit int32 and timestamps fit the columnar store's window.

func checkCarID(tripID int64, car int) error {
	if int64(int32(car)) != int64(car) {
		return fmt.Errorf("trace: trip %d car id %d overflows int32", tripID, car)
	}
	return nil
}

func checkPointID(tripID int64, id int) error {
	if int64(int32(id)) != int64(id) {
		return fmt.Errorf("trace: trip %d point id %d overflows int32", tripID, id)
	}
	return nil
}

func checkTimeMs(tripID, ms int64) error {
	if ms < -maxTimeMs || ms > maxTimeMs {
		return fmt.Errorf("trace: trip %d time %dms out of range", tripID, ms)
	}
	return nil
}

// Next decodes the next trip record into the arena and returns its
// view. It returns io.EOF at a clean end of file.
func (br *BinaryReader) Next(a *Arena) (ColTrip, error) {
	var pre [4]byte
	if _, err := io.ReadFull(br.r, pre[:]); err != nil {
		if err == io.EOF {
			return ColTrip{}, io.EOF
		}
		return ColTrip{}, fmt.Errorf("trace: read record length: %w", err)
	}
	recLen := binary.LittleEndian.Uint32(pre[:])
	if recLen < binaryTripHead || (recLen-binaryTripHead)%binaryPointWidth != 0 {
		return ColTrip{}, fmt.Errorf("trace: invalid record length %d", recLen)
	}
	n := int(recLen-binaryTripHead) / binaryPointWidth
	if n == 0 {
		return ColTrip{}, fmt.Errorf("trace: empty trip record")
	}
	if n > maxBinaryPoints {
		return ColTrip{}, fmt.Errorf("trace: record claims %d points, limit %d", n, maxBinaryPoints)
	}
	body, err := br.readBody(int(recLen))
	if err != nil {
		return ColTrip{}, fmt.Errorf("trace: read record body: %w", err)
	}
	tripID := int64(binary.LittleEndian.Uint64(body[0:8]))
	carID := int32(binary.LittleEndian.Uint32(body[8:12]))
	if got := int32(binary.LittleEndian.Uint32(body[12:16])); int(got) != n {
		return ColTrip{}, fmt.Errorf("trace: trip %d declares %d points, record holds %d", tripID, got, n)
	}

	v := a.Alloc(tripID, int(carID), n)
	ids := body[16:]
	times := ids[4*n:]
	lons := times[8*n:]
	lats := lons[4*n:]
	speeds := lats[4*n:]
	fuels := speeds[4*n:]
	dists := fuels[4*n:]
	for i := 0; i < n; i++ {
		ms := int64(binary.LittleEndian.Uint64(times[8*i:]))
		if err := checkTimeMs(tripID, ms); err != nil {
			return ColTrip{}, err
		}
		j := v.Off + i
		v.Cols.PointIDs[j] = int32(binary.LittleEndian.Uint32(ids[4*i:]))
		v.Cols.TimesNs[j] = ms * int64(time.Millisecond)
		v.Cols.Xs[j], v.Cols.Ys[j] = posFromE7(br.proj,
			int32(binary.LittleEndian.Uint32(lons[4*i:])),
			int32(binary.LittleEndian.Uint32(lats[4*i:])))
		v.Cols.Speeds[j] = float64(int32(binary.LittleEndian.Uint32(speeds[4*i:]))) / pow10[speedPrec]
		v.Cols.Fuels[j] = float64(int32(binary.LittleEndian.Uint32(fuels[4*i:]))) / pow10[fuelPrec]
		v.Cols.Dists[j] = float64(int32(binary.LittleEndian.Uint32(dists[4*i:]))) / pow10[distPrec]
	}
	return v, nil
}

func posFromE7(proj *geo.Projection, lonE7, latE7 int32) (x, y float64) {
	p := proj.ToXY(geo.Point{
		Lon: float64(lonE7) / pow10[lonLatPrec],
		Lat: float64(latE7) / pow10[lonLatPrec],
	})
	return p.X, p.Y
}

// ReadBinary parses a whole binary trace file into row-oriented trips,
// ordered by (car, trip id) like ReadCSV. Use NewBinaryReader + an
// Arena to ingest without materialising.
func ReadBinary(r io.Reader, proj *geo.Projection) ([]*Trip, error) {
	br, err := NewBinaryReader(r, proj)
	if err != nil {
		return nil, err
	}
	a := NewArena(0)
	var views []ColTrip
	for {
		v, err := br.Next(a)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		views = append(views, v)
	}
	// Binary records, like raw CSV rows, are in arrival order: no
	// time-sortedness is implied. One slab materialises the whole file.
	out := MaterializeAll(views, false)
	slices.SortStableFunc(out, func(a, b *Trip) int {
		if a.CarID != b.CarID {
			if a.CarID < b.CarID {
				return -1
			}
			return 1
		}
		if a.ID != b.ID {
			if a.ID < b.ID {
				return -1
			}
			return 1
		}
		return 0
	})
	return out, nil
}
