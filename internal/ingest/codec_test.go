package ingest

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/trace"
)

// csvPrecisionPoints returns points whose values carry no more
// precision than the CSV interchange format (7 decimals of degree,
// 2 of speed, 1 of fuel/dist) — the fixed-point domain both binary
// framings represent exactly.
func csvPrecisionPoints() []Point {
	return []Point{
		{Car: 1, Trip: 10, Seq: 0, TimeMs: 1_700_000_000_000, Lon: 25.4651000, Lat: 65.0120999, SpeedKmh: 31.25, FuelMl: 0.4, DistM: 12.5},
		{Car: 1, Trip: 10, Seq: 1, TimeMs: 1_700_000_001_000, Lon: 25.4652345, Lat: 65.0121001, SpeedKmh: 0, FuelMl: 0, DistM: 0},
		{Car: 2, Trip: 11, Seq: 7, TimeMs: 1_700_000_002_500, Lon: -25.1234567, Lat: -0.0000001, SpeedKmh: 120.01, FuelMl: 99.9, DistM: 10000.1},
	}
}

func TestNDJSONRoundTrip(t *testing.T) {
	in := csvPrecisionPoints()
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, in); err != nil {
		t.Fatal(err)
	}
	var out []Point
	if err := DecodeNDJSON(&buf, func(p Point) error {
		out = append(out, p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d points, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("point %d: %+v != %+v", i, out[i], in[i])
		}
	}
}

func TestDecodeNDJSONSkipsBlanksAndReportsLine(t *testing.T) {
	body := `{"car":1,"trip":1,"seq":0,"time_ms":1000}

{"car":2 broken`
	var n int
	err := DecodeNDJSON(strings.NewReader(body), func(Point) error { n++; return nil })
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("err = %v, want line-3 decode error", err)
	}
	if n != 1 {
		t.Fatalf("decoded %d points before the error, want 1", n)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	in := csvPrecisionPoints()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, in); err != nil {
		t.Fatal(err)
	}
	if !SniffBinary(buf.Bytes()) {
		t.Fatal("binary stream does not sniff as binary")
	}
	out, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d points, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("point %d: %+v != %+v (CSV-precision values must survive exactly)", i, out[i], in[i])
		}
	}
}

// TestBinaryReaderNextAllocatesNothing: a warm reader decodes a
// record without heap allocations, so the firehose's decode costs no
// garbage per point.
func TestBinaryReaderNextAllocatesNothing(t *testing.T) {
	const runs = 100
	base := csvPrecisionPoints()
	var pts []Point
	for len(pts) < runs+10 {
		pts = append(pts, base...)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, pts); err != nil {
		t.Fatal(err)
	}
	br, err := NewBinaryReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := br.Next(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := br.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Next allocates %.1f times per record, want 0", allocs)
	}
}

// TestBinaryQuantisationMatchesTraceFormat is the framing-parity
// check: a route point shipped through the point firehose's binary
// framing must decode to the same float64s as the same point written
// to a binary trace file — both quantise through the shared exported
// trace helpers, so neither path can drift precision-wise.
func TestBinaryQuantisationMatchesTraceFormat(t *testing.T) {
	proj := geo.NewProjection(geo.Point{Lon: 25.47, Lat: 65.01})
	rp := trace.RoutePoint{
		PointID: 3, TripID: 9,
		Pos:      proj.ToXY(geo.Point{Lon: 25.4712345678, Lat: 65.0123456789}),
		Time:     time.UnixMilli(1_700_000_123_456).UTC(),
		SpeedKmh: 33.333333, FuelMl: 0.44444, DistM: 9.87654,
	}
	carID := 5

	// Trace-format arm.
	var tb bytes.Buffer
	if err := trace.WriteBinary(&tb, []*trace.Trip{{ID: 9, CarID: carID, Points: []trace.RoutePoint{rp}}}, proj); err != nil {
		t.Fatal(err)
	}
	trips, err := trace.ReadBinary(&tb, proj)
	if err != nil {
		t.Fatal(err)
	}
	want := trips[0].Points[0]

	// Point-framing arm.
	var pb bytes.Buffer
	if err := WriteBinary(&pb, []Point{FromRoutePoint(carID, rp, proj)}); err != nil {
		t.Fatal(err)
	}
	pts, err := ReadBinary(&pb)
	if err != nil {
		t.Fatal(err)
	}
	got := pts[0].RoutePoint(proj)

	if got.Pos != want.Pos {
		t.Fatalf("position %+v != trace-format %+v", got.Pos, want.Pos)
	}
	if got.SpeedKmh != want.SpeedKmh || got.FuelMl != want.FuelMl || got.DistM != want.DistM {
		t.Fatalf("measurements (%g, %g, %g) != trace-format (%g, %g, %g)",
			got.SpeedKmh, got.FuelMl, got.DistM, want.SpeedKmh, want.FuelMl, want.DistM)
	}
	if !got.Time.Equal(want.Time) {
		t.Fatalf("time %v != trace-format %v", got.Time, want.Time)
	}
}

func TestBinaryRejectsBadStreams(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("NOTMAGIC00000000")); err == nil {
		t.Fatal("bad magic accepted")
	}

	var buf bytes.Buffer
	if err := WriteBinary(&buf, csvPrecisionPoints()[:1]); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()

	wrongVersion := append([]byte{}, b...)
	wrongVersion[8] = 99
	if _, err := ReadBinary(bytes.NewReader(wrongVersion)); err == nil {
		t.Fatal("wrong version accepted")
	}

	wrongLen := append([]byte{}, b...)
	wrongLen[binaryHeaderLen] = 77 // recLen of the first record
	if _, err := ReadBinary(bytes.NewReader(wrongLen)); err == nil {
		t.Fatal("wrong record length accepted")
	}

	truncated := b[:len(b)-5]
	if _, err := ReadBinary(bytes.NewReader(truncated)); err == nil || err == io.EOF {
		t.Fatalf("truncated record yielded %v, want a non-EOF error", err)
	}

	var w bytes.Buffer
	bw, err := NewBinaryWriter(&w)
	if err != nil {
		t.Fatal(err)
	}
	if err := bw.Write(Point{Lon: 1e30}); err == nil {
		t.Fatal("out-of-range longitude accepted")
	}
}

// TestDecodersShareBounds: the NDJSON decoder refuses exactly the
// values the TAXIPNTB framing cannot carry — a car id or seq outside
// int32, |time_ms| above trace.MaxEventTimeMs — with the binary
// codec's error, and still accepts the extremes both can carry.
func TestDecodersShareBounds(t *testing.T) {
	cases := map[string]struct {
		line, want string
	}{
		"seq overflow":    {`{"car":1,"trip":1,"seq":4294967296,"time_ms":1000}`, "point seq 4294967296 overflows int32"},
		"negative seq":    {`{"car":1,"trip":1,"seq":-2147483649,"time_ms":1000}`, "point seq -2147483649 overflows int32"},
		"car overflow":    {`{"car":2147483648,"trip":1,"seq":0,"time_ms":1000}`, "car id 2147483648 overflows int32"},
		"time overflow":   {`{"car":1,"trip":1,"seq":0,"time_ms":9000000000000000000}`, "time 9000000000000000000ms out of range"},
		"past the window": {`{"car":1,"trip":1,"seq":0,"time_ms":9223372036855}`, "time 9223372036855ms out of range"},
		"before it":       {`{"car":1,"trip":1,"seq":0,"time_ms":-9223372036855}`, "time -9223372036855ms out of range"},
	}
	for name, tc := range cases {
		body := `{"car":1,"trip":1,"seq":0,"time_ms":1000}` + "\n" + tc.line
		n := 0
		err := DecodeNDJSON(strings.NewReader(body), func(Point) error { n++; return nil })
		if err == nil || err.Error() != "ingest: line 2: ingest: "+tc.want {
			t.Errorf("%s: err = %v, want line 2: %q", name, err, tc.want)
		}
		if n != 1 {
			t.Errorf("%s: decoded %d points before the error, want 1", name, n)
		}
		// The binary framing refuses the same point with the same error.
		var p Point
		if err := json.Unmarshal([]byte(tc.line), &p); err != nil {
			t.Fatal(err)
		}
		if werr := WriteBinary(io.Discard, []Point{p}); werr == nil || werr.Error() != "ingest: "+tc.want {
			t.Errorf("%s: binary writer err = %v, want %q", name, werr, tc.want)
		}
	}

	extremes := []Point{
		{Car: math.MaxInt32, Trip: 1, Seq: math.MaxInt32, TimeMs: trace.MaxEventTimeMs},
		{Car: math.MinInt32, Trip: 1, Seq: math.MinInt32, TimeMs: -trace.MaxEventTimeMs},
	}
	var nd, bin bytes.Buffer
	if err := WriteNDJSON(&nd, extremes); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bin, extremes); err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := DecodeNDJSON(&nd, func(Point) error { n++; return nil }); err != nil || n != 2 {
		t.Fatalf("NDJSON extremes: %d decoded, err %v", n, err)
	}
	if got, err := ReadBinary(&bin); err != nil || len(got) != 2 {
		t.Fatalf("binary extremes: %d decoded, err %v", len(got), err)
	}
}

// readRecords is the record-at-a-time TAXIPNTB decoder the batch
// decoder replaced, kept as its reference: two io.ReadFull calls per
// record, the length prefix and then the body. It returns the points
// decoded before the first error other than io.EOF, and that error.
func readRecords(r io.Reader) ([]Point, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var head [binaryHeaderLen]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return nil, fmt.Errorf("ingest: read binary header: %w", err)
	}
	if !SniffBinary(head[:]) {
		return nil, fmt.Errorf("ingest: bad magic %q", head[:8])
	}
	if v := binary.LittleEndian.Uint32(head[8:12]); v != binaryPointVersion {
		return nil, fmt.Errorf("ingest: unsupported binary version %d", v)
	}
	var out []Point
	for {
		var pre [4]byte
		var body [binaryPointLen]byte
		if _, err := io.ReadFull(br, pre[:]); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return out, fmt.Errorf("ingest: read record length: %w", err)
		}
		if recLen := binary.LittleEndian.Uint32(pre[:]); recLen != binaryPointLen {
			return out, fmt.Errorf("ingest: invalid record length %d (want %d)", recLen, binaryPointLen)
		}
		if _, err := io.ReadFull(br, body[:]); err != nil {
			return out, fmt.Errorf("ingest: read record body: %w", err)
		}
		var p Point
		decodePoint(&p, body[:])
		if err := checkBounds(p); err != nil {
			return out, err
		}
		out = append(out, p)
	}
}

// readBatches decodes a stream the way POST /v1/ingest does: ReadBatch
// fills the free slots of a batch of size points, and a full batch is
// handed on. It returns every point decoded before the first error
// other than io.EOF, and that error.
func readBatches(r io.Reader, size int) ([]Point, error) {
	rd, err := NewBinaryReader(r)
	if err != nil {
		return nil, err
	}
	var out []Point
	batch := make([]Point, 0, size)
	for {
		n, err := rd.ReadBatch(batch[len(batch):cap(batch)])
		batch = batch[:len(batch)+n]
		if len(batch) == size || err != nil {
			out = append(out, batch...)
			batch = batch[:0]
		}
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
	}
}

// readNext decodes a stream with Next, record by record.
func readNext(r io.Reader) ([]Point, error) {
	rd, err := NewBinaryReader(r)
	if err != nil {
		return nil, err
	}
	var out []Point
	for {
		p, err := rd.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, p)
	}
}

// chunkReader returns at most n bytes per Read, so records straddle the
// reads that fill the decoder's buffer.
type chunkReader struct {
	r io.Reader
	n int
}

func (c chunkReader) Read(b []byte) (int, error) { return c.r.Read(b[:min(len(b), c.n)]) }

// checkBatchDecode requires the batch decoder, at several batch sizes
// and read sizes, and Next to decode data exactly as readRecords does:
// the same points, then the same error text.
func checkBatchDecode(t *testing.T, name string, data []byte) {
	t.Helper()
	want, wantErr := readRecords(bytes.NewReader(data))
	same := func(arm string, got []Point, err error) {
		t.Helper()
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%s, %s: error %v, record at a time %v", name, arm, err, wantErr)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s, %s: %d points, record at a time %d (or a point differs)", name, arm, len(got), len(want))
		}
	}
	for _, size := range []int{1, 7, 512} {
		for _, chunk := range []int{1 << 20, 1 << 16, 1000, 47, 1} {
			if chunk == 1 && len(data) > 1<<14 {
				continue
			}
			got, err := readBatches(chunkReader{bytes.NewReader(data), chunk}, size)
			same(fmt.Sprintf("batch of %d, reads of %d", size, chunk), got, err)
		}
	}
	got, err := readNext(chunkReader{bytes.NewReader(data), 1000})
	same("Next", got, err)
}

// TestBatchDecodeMatchesRecordAtATime: the batch decoder and Next give
// the points and the error of the record-at-a-time reference on
// streams of 4,000 records read in chunks that split records across
// buffer fills, on every cut of a final record, on a bad recLen and an
// out-of-range time mid-body, and on bad and short headers.
// FuzzPointCodec makes the same comparison on every binary input.
func TestBatchDecodeMatchesRecordAtATime(t *testing.T) {
	base := csvPrecisionPoints()
	pts := make([]Point, 4000)
	for i := range pts {
		pts[i] = base[i%len(base)]
		pts[i].Seq = i
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, pts); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	rec := func(i int) int { return binaryHeaderLen + i*binaryRecordLen }

	checkBatchDecode(t, "whole stream", full)
	checkBatchDecode(t, "no records", full[:binaryHeaderLen])
	for cut := 1; cut < binaryRecordLen; cut++ {
		checkBatchDecode(t, fmt.Sprintf("final record cut to %d bytes", cut), full[:rec(len(pts)-1)+cut])
	}
	for _, at := range []int{0, 1365, 2999} {
		badLen := slices.Clone(full)
		binary.LittleEndian.PutUint32(badLen[rec(at):], 77)
		checkBatchDecode(t, fmt.Sprintf("bad recLen at record %d", at), badLen)
		checkBatchDecode(t, fmt.Sprintf("bad recLen at record %d, cut", at), badLen[:rec(at)+10])

		badTime := slices.Clone(full)
		binary.LittleEndian.PutUint64(badTime[rec(at)+4+16:], uint64(trace.MaxEventTimeMs+1))
		checkBatchDecode(t, fmt.Sprintf("time out of range at record %d", at), badTime)
	}
	checkBatchDecode(t, "empty", nil)
	checkBatchDecode(t, "short header", full[:5])
	checkBatchDecode(t, "bad magic", append([]byte("TAXIPNTX"), full[8:rec(3)]...))
	badVersion := slices.Clone(full[:rec(3)])
	badVersion[8] = 9
	checkBatchDecode(t, "bad version", badVersion)
}
