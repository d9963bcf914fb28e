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
}

// binaryRecordLen is one framed record: the recLen prefix and its body.
const binaryRecordLen = 4 + binaryPointLen

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
	var one [1]Point
	if _, err := br.ReadBatch(one[:]); err != nil {
		return Point{}, err
	}
	return one[0], nil
}

// ReadBatch decodes up to len(pts) points into pts and returns how many
// it decoded. It decodes every whole record already buffered, in one
// pass over the buffer, and reads from the stream only when no whole
// record is buffered and it has decoded nothing yet, so it may return
// fewer points than pts holds before the stream ends. It returns
// io.EOF, with no points, at a clean end of stream. On a malformed
// record it returns the points decoded before it together with the
// error, which is the one Next gives for that record; a record split
// across two reads of the stream decodes like any other.
func (br *BinaryReader) ReadBatch(pts []Point) (int, error) {
	n := 0
	for n < len(pts) {
		buf := br.buffered()
		if len(buf) < binaryRecordLen {
			if n > 0 {
				return n, nil
			}
			var err error
			if buf, err = br.fill(); err != nil {
				return 0, err
			}
		}
		k := min(len(buf)/binaryRecordLen, len(pts)-n)
		for i := range k {
			rec := buf[i*binaryRecordLen : (i+1)*binaryRecordLen]
			if recLen := binary.LittleEndian.Uint32(rec[:4]); recLen != binaryPointLen {
				br.r.Discard(i*binaryRecordLen + 4)
				return n, recLenError(recLen)
			}
			p := &pts[n]
			decodePoint(p, rec[4:])
			if err := checkBounds(*p); err != nil {
				br.r.Discard((i + 1) * binaryRecordLen)
				return n, err
			}
			n++
		}
		br.r.Discard(k * binaryRecordLen)
	}
	return n, nil
}

// buffered returns the bytes buffered and not yet decoded, without
// reading from the stream.
func (br *BinaryReader) buffered() []byte {
	buf, _ := br.r.Peek(br.r.Buffered()) // never more than is buffered, so no error
	return buf
}

// fill reads from the stream until a whole record is buffered and
// returns the buffered bytes. When the stream ends or fails first, it
// consumes what is left of the record and returns the error reading
// the record field by field would give: io.EOF at a clean end, a
// recLen error once the prefix is whole, and otherwise an error
// wrapping the read error (io.ErrUnexpectedEOF for a cut record).
func (br *BinaryReader) fill() ([]byte, error) {
	buf, err := br.r.Peek(binaryRecordLen)
	if err == nil {
		return br.buffered(), nil
	}
	switch {
	case len(buf) < 4:
		br.r.Discard(len(buf))
		if err == io.EOF {
			if len(buf) == 0 {
				return nil, io.EOF
			}
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("ingest: read record length: %w", err)
	case binary.LittleEndian.Uint32(buf[:4]) != binaryPointLen:
		br.r.Discard(4)
		return nil, recLenError(binary.LittleEndian.Uint32(buf[:4]))
	default:
		br.r.Discard(len(buf))
		if err == io.EOF && len(buf) > 4 {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("ingest: read record body: %w", err)
	}
}

func recLenError(recLen uint32) error {
	return fmt.Errorf("ingest: invalid record length %d (want %d)", recLen, binaryPointLen)
}

// decodePoint decodes one record body into p.
func decodePoint(p *Point, body []byte) {
	_ = body[binaryPointLen-1]
	*p = Point{
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
