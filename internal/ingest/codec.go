package ingest

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/trace"
)

// Wire framings of the point firehose. Two encodings carry the same
// Point schema:
//
//   - NDJSON: one JSON object per line — the debuggable default for
//     POST /v1/ingest.
//   - Binary: a length-prefixed, fixed-width, little-endian framing
//     ("TAXIPNTB") quantised exactly like the TAXITRCB trip format
//     (lon/lat E7, speed centi, fuel/dist deci via the exported
//     trace quantisers), ~4x smaller than NDJSON and parsed without
//     per-event string work.
//
//	stream := header record*
//	header := magic[8]="TAXIPNTB" version:u32=1 flags:u32=0
//	record := recLen:u32=44 carID:i32 tripID:i64 seq:i32 timeMs:i64
//	          lonE7:i32 latE7:i32 speedCenti:i32 fuelDeci:i32 distDeci:i32
//
// recLen counts every byte after itself, so a reader can skip records
// it does not understand; a value framed in binary decodes to the same
// float64 the same value written to a binary trace file would (the
// differential tests rely on this).

// binaryPointMagic identifies a binary point-event stream; the HTTP
// handler sniffs it to pick the decoder.
var binaryPointMagic = [8]byte{'T', 'A', 'X', 'I', 'P', 'N', 'T', 'B'}

const (
	binaryPointVersion = 1
	binaryHeaderLen    = 16
	binaryPointLen     = 44 // car:i32 trip:i64 seq:i32 time:i64 + 5*i32
)

// SniffBinary reports whether b (the first bytes of a stream) starts a
// binary point-event stream.
func SniffBinary(b []byte) bool {
	return len(b) >= len(binaryPointMagic) && bytes.Equal(b[:len(binaryPointMagic)], binaryPointMagic[:])
}

// --- NDJSON -----------------------------------------------------------------

// WriteNDJSON encodes points one JSON object per line.
func WriteNDJSON(w io.Writer, pts []Point) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw) // Encode appends the newline
	for i := range pts {
		if err := enc.Encode(&pts[i]); err != nil {
			return fmt.Errorf("ingest: encode point: %w", err)
		}
	}
	return bw.Flush()
}

// DecodeNDJSON streams points out of an NDJSON body, calling fn for
// each decoded event; blank lines are skipped. A callback error stops
// the scan and is returned verbatim.
func DecodeNDJSON(r io.Reader, fn func(Point) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		b := bytes.TrimSpace(sc.Bytes())
		if len(b) == 0 {
			continue
		}
		var p Point
		if err := json.Unmarshal(b, &p); err != nil {
			return fmt.Errorf("ingest: line %d: %w", line, err)
		}
		if err := checkBounds(p); err != nil {
			return fmt.Errorf("ingest: line %d: %w", line, err)
		}
		if err := fn(p); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("ingest: read ndjson: %w", err)
	}
	return nil
}

// --- Binary -----------------------------------------------------------------

// BinaryWriter frames points onto one binary stream. Construct with
// NewBinaryWriter (which writes the header) and Flush when done.
type BinaryWriter struct {
	w *bufio.Writer
}

// NewBinaryWriter writes the stream header and returns the framer.
func NewBinaryWriter(w io.Writer) (*BinaryWriter, error) {
	bw := &BinaryWriter{w: bufio.NewWriter(w)}
	var head [binaryHeaderLen]byte
	copy(head[:8], binaryPointMagic[:])
	binary.LittleEndian.PutUint32(head[8:12], binaryPointVersion)
	if _, err := bw.w.Write(head[:]); err != nil {
		return nil, fmt.Errorf("ingest: write binary header: %w", err)
	}
	return bw, nil
}

// checkBounds enforces the ranges the binary framing can carry — car
// id and seq within int32, |time_ms| within trace.MaxEventTimeMs — so
// both wire encodings accept exactly the same points.
func checkBounds(p Point) error {
	if int64(int32(p.Car)) != int64(p.Car) {
		return fmt.Errorf("ingest: car id %d overflows int32", p.Car)
	}
	if int64(int32(p.Seq)) != int64(p.Seq) {
		return fmt.Errorf("ingest: point seq %d overflows int32", p.Seq)
	}
	if p.TimeMs < -trace.MaxEventTimeMs || p.TimeMs > trace.MaxEventTimeMs {
		return fmt.Errorf("ingest: time %dms out of range", p.TimeMs)
	}
	return nil
}

// Write frames one point.
func (bw *BinaryWriter) Write(p Point) error {
	if err := checkBounds(p); err != nil {
		return err
	}
	lon, err := trace.QuantLonLat(p.Lon)
	if err != nil {
		return fmt.Errorf("ingest: lon: %w", err)
	}
	lat, err := trace.QuantLonLat(p.Lat)
	if err != nil {
		return fmt.Errorf("ingest: lat: %w", err)
	}
	speed, err := trace.QuantSpeedKmh(p.SpeedKmh)
	if err != nil {
		return fmt.Errorf("ingest: speed_kmh: %w", err)
	}
	fuel, err := trace.QuantFuelMl(p.FuelMl)
	if err != nil {
		return fmt.Errorf("ingest: fuel_ml: %w", err)
	}
	dist, err := trace.QuantDistM(p.DistM)
	if err != nil {
		return fmt.Errorf("ingest: dist_m: %w", err)
	}
	var rec [4 + binaryPointLen]byte
	binary.LittleEndian.PutUint32(rec[0:4], binaryPointLen)
	binary.LittleEndian.PutUint32(rec[4:8], uint32(int32(p.Car)))
	binary.LittleEndian.PutUint64(rec[8:16], uint64(p.Trip))
	binary.LittleEndian.PutUint32(rec[16:20], uint32(int32(p.Seq)))
	binary.LittleEndian.PutUint64(rec[20:28], uint64(p.TimeMs))
	binary.LittleEndian.PutUint32(rec[28:32], uint32(lon))
	binary.LittleEndian.PutUint32(rec[32:36], uint32(lat))
	binary.LittleEndian.PutUint32(rec[36:40], uint32(speed))
	binary.LittleEndian.PutUint32(rec[40:44], uint32(fuel))
	binary.LittleEndian.PutUint32(rec[44:48], uint32(dist))
	if _, err := bw.w.Write(rec[:]); err != nil {
		return fmt.Errorf("ingest: write point: %w", err)
	}
	return nil
}

// Flush drains the framer's buffer to the underlying writer.
func (bw *BinaryWriter) Flush() error { return bw.w.Flush() }

// WriteBinary frames a whole batch onto w.
func WriteBinary(w io.Writer, pts []Point) error {
	bw, err := NewBinaryWriter(w)
	if err != nil {
		return err
	}
	for _, p := range pts {
		if err := bw.Write(p); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// BinaryReader streams points out of a binary point-event stream.
type BinaryReader struct {
	r *bufio.Reader
	// Next's record buffers live here: as locals they would escape
	// through io.ReadFull's io.Reader and cost two heap allocations
	// per point.
	pre  [4]byte
	body [binaryPointLen]byte
}

// NewBinaryReader validates the stream header and returns the reader.
func NewBinaryReader(r io.Reader) (*BinaryReader, error) {
	br := &BinaryReader{r: bufio.NewReaderSize(r, 1<<16)}
	var head [binaryHeaderLen]byte
	if _, err := io.ReadFull(br.r, head[:]); err != nil {
		return nil, fmt.Errorf("ingest: read binary header: %w", err)
	}
	if !SniffBinary(head[:]) {
		return nil, fmt.Errorf("ingest: bad magic %q", head[:8])
	}
	if v := binary.LittleEndian.Uint32(head[8:12]); v != binaryPointVersion {
		return nil, fmt.Errorf("ingest: unsupported binary version %d", v)
	}
	return br, nil
}

// Next decodes the next point. It returns io.EOF at a clean end of
// stream.
func (br *BinaryReader) Next() (Point, error) {
	pre, body := &br.pre, &br.body
	if _, err := io.ReadFull(br.r, pre[:]); err != nil {
		if err == io.EOF {
			return Point{}, io.EOF
		}
		return Point{}, fmt.Errorf("ingest: read record length: %w", err)
	}
	recLen := binary.LittleEndian.Uint32(pre[:])
	if recLen != binaryPointLen {
		return Point{}, fmt.Errorf("ingest: invalid record length %d (want %d)", recLen, binaryPointLen)
	}
	if _, err := io.ReadFull(br.r, body[:]); err != nil {
		return Point{}, fmt.Errorf("ingest: read record body: %w", err)
	}
	p := Point{
		Car:      int(int32(binary.LittleEndian.Uint32(body[0:4]))),
		Trip:     int64(binary.LittleEndian.Uint64(body[4:12])),
		Seq:      int(int32(binary.LittleEndian.Uint32(body[12:16]))),
		TimeMs:   int64(binary.LittleEndian.Uint64(body[16:24])),
		Lon:      trace.DequantLonLat(int32(binary.LittleEndian.Uint32(body[24:28]))),
		Lat:      trace.DequantLonLat(int32(binary.LittleEndian.Uint32(body[28:32]))),
		SpeedKmh: trace.DequantSpeedKmh(int32(binary.LittleEndian.Uint32(body[32:36]))),
		FuelMl:   trace.DequantFuelMl(int32(binary.LittleEndian.Uint32(body[36:40]))),
		DistM:    trace.DequantDistM(int32(binary.LittleEndian.Uint32(body[40:44]))),
	}
	if err := checkBounds(p); err != nil {
		return Point{}, err
	}
	return p, nil
}

// ReadBinary decodes a whole binary stream.
func ReadBinary(r io.Reader) ([]Point, error) {
	br, err := NewBinaryReader(r)
	if err != nil {
		return nil, err
	}
	var out []Point
	for {
		p, err := br.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
}
