package ingest

import (
	"bytes"
	"testing"
)

// FuzzPointCodec drives arbitrary bytes through the same
// sniff-then-decode path the HTTP ingest handler uses: TAXIPNTB
// streams through the binary reader, everything else through the
// NDJSON decoder. A TAXIPNTB stream must decode in batches and by Next
// exactly as record by record (checkBatchDecode). Whatever decodes must
// re-encode and decode back to the same points — decoded values live
// in the codec's representable domain, so the round trip has no excuse
// to drift or fail.
func FuzzPointCodec(f *testing.F) {
	var bin bytes.Buffer
	if err := WriteBinary(&bin, csvPrecisionPoints()); err != nil {
		f.Fatal(err)
	}
	f.Add(bin.Bytes())
	var nd bytes.Buffer
	if err := WriteNDJSON(&nd, csvPrecisionPoints()); err != nil {
		f.Fatal(err)
	}
	f.Add(nd.Bytes())
	f.Add([]byte("TAXIPNTB garbage after the magic"))
	f.Add([]byte(`{"car":1,"trip":2,"seq":3,"time_ms":4}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Each codec round-trips through itself: binary values are
		// already quantised, JSON floats re-marshal exactly. (NDJSON can
		// carry values outside the binary fixed-point range, so
		// cross-codec re-encoding is allowed to fail — that path is
		// covered by the writers' own range errors.)
		var pts []Point
		var back []Point
		if SniffBinary(data) {
			checkBatchDecode(t, "fuzz input", data)
			out, err := ReadBinary(bytes.NewReader(data))
			if err != nil {
				return
			}
			pts = out
			var buf bytes.Buffer
			if err := WriteBinary(&buf, pts); err != nil {
				t.Fatalf("re-encoding binary-decoded points failed: %v", err)
			}
			back, err = ReadBinary(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("re-decoding failed: %v", err)
			}
		} else {
			err := DecodeNDJSON(bytes.NewReader(data), func(p Point) error {
				pts = append(pts, p)
				return nil
			})
			if err != nil {
				return
			}
			var buf bytes.Buffer
			if err := WriteNDJSON(&buf, pts); err != nil {
				t.Fatalf("re-encoding NDJSON-decoded points failed: %v", err)
			}
			err = DecodeNDJSON(bytes.NewReader(buf.Bytes()), func(p Point) error {
				back = append(back, p)
				return nil
			})
			if err != nil {
				t.Fatalf("re-decoding failed: %v", err)
			}
		}
		if len(back) != len(pts) {
			t.Fatalf("round trip lost points: %d != %d", len(back), len(pts))
		}
		for i := range pts {
			if back[i] != pts[i] {
				t.Fatalf("point %d drifted: %+v != %+v", i, back[i], pts[i])
			}
		}
	})
}
