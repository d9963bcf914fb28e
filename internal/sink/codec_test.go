package sink

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/obs"
)

// codecFixture builds a realistic sealed snapshot through the real
// sink: several cars, two directions, failures, a full grid frame and
// gate registration. seed offsets the car ids and speeds so distinct
// fixtures hold different values.
func codecFixture(t *testing.T, seed int) *Snapshot {
	t.Helper()
	g, err := grid.New(geo.R(0, 0, 2000, 2000), 200)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Grid: g, PublishEvery: 1, Gates: []string{"T", "S"}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		car := seed*100 + i + 1
		dir := "T-S"
		if i%2 == 1 {
			dir = "S-T"
		}
		s.AbsorbEvent(core.CarEvent{Car: car, Result: synthCar(car, dir, 20+float64(i), 35, 50+float64(seed))})
	}
	s.AbsorbEvent(core.CarEvent{Car: seed*100 + 99, Err: &core.CarError{Car: seed*100 + 99}})
	snap := s.Seal()
	// A wall-clock PublishedAt carries a monotonic reading that cannot
	// survive any wire format; pin a plain wall time so DeepEqual is
	// meaningful.
	snap.PublishedAt = time.Unix(1646130000, 123456789)
	return snap
}

func TestSnapshotCodecRoundTrip(t *testing.T) {
	fix := codecFixture(t, 1)
	cases := map[string]*Snapshot{
		"sealed fleet": fix,
		"empty":        {},
		"no grid, no od": {
			Epoch: 7, CarsIngested: 3, CarsFailed: 1, Points: 12,
			PublishedAt: time.Unix(1646130000, 0),
		},
	}
	for name, want := range cases {
		t.Run(name, func(t *testing.T) {
			blob := EncodeSnapshot(want)
			got, err := DecodeSnapshot(blob)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			normalize := func(s *Snapshot) *Snapshot {
				c := *s
				if len(c.Cells) == 0 {
					c.Cells = nil
				}
				if len(c.OD) == 0 {
					c.OD = nil
				}
				return &c
			}
			if !reflect.DeepEqual(normalize(got), normalize(want)) {
				t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

func TestSnapshotCodecStreamRoundTrip(t *testing.T) {
	want := codecFixture(t, 2)
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != want.Epoch || got.Points != want.Points || len(got.OD) != len(want.OD) {
		t.Fatalf("stream round-trip mismatch: %+v vs %+v", got, want)
	}
}

func TestSnapshotCodecDeterministic(t *testing.T) {
	fix := codecFixture(t, 3)
	if !bytes.Equal(EncodeSnapshot(fix), EncodeSnapshot(fix)) {
		t.Fatal("encoding must be deterministic")
	}
}

func TestSnapshotCodecRejects(t *testing.T) {
	good := EncodeSnapshot(codecFixture(t, 4))

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] = 'X'
		if _, err := DecodeSnapshot(bad); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("want ErrBadSnapshot, got %v", err)
		}
	})
	t.Run("unknown version", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[8] = snapshotVersion + 1
		_, err := DecodeSnapshot(bad)
		if !errors.Is(err, ErrUnknownSnapshotVersion) {
			t.Fatalf("want ErrUnknownSnapshotVersion, got %v", err)
		}
		if errors.Is(err, ErrBadSnapshot) {
			t.Fatal("version skew must stay distinguishable from corruption")
		}
	})
	t.Run("every truncation rejected", func(t *testing.T) {
		for cut := 0; cut < len(good); cut++ {
			if _, err := DecodeSnapshot(good[:cut]); !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("cut=%d: want ErrBadSnapshot, got %v", cut, err)
			}
		}
	})
	t.Run("trailing bytes", func(t *testing.T) {
		if _, err := DecodeSnapshot(append(append([]byte(nil), good...), 0)); !errors.Is(err, ErrBadSnapshot) {
			t.Fatal("trailing bytes must be rejected")
		}
	})
	t.Run("hostile collection length", func(t *testing.T) {
		// Minimal header claiming 2^60 gates: must reject on the bounds
		// check, not attempt the allocation.
		blob := append([]byte(nil), snapshotMagic[:]...)
		blob = append(blob, snapshotVersion, 0 /* epoch */, 0 /* flags */, 0, 0, 0)
		blob = append(blob, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10) // uvarint 2^60
		if _, err := DecodeSnapshot(blob); !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("want ErrBadSnapshot, got %v", err)
		}
	})
}

// TestSnapshotCodecRejectsNonFinite: a NaN or infinite float anywhere
// in a blob is corruption, not data. Accepted, one such cluster partial
// folds into the merged view and poisons every client's answers (a NaN
// cell mean makes the whole /v1/grid response unencodable).
func TestSnapshotCodecRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := map[string]func(s *Snapshot){
		"grid frame": func(s *Snapshot) {
			g := *s.Grid
			g.Area.MinX = nan
			s.Grid = &g
		},
		"cell mean": func(s *Snapshot) {
			id := s.CellIDs()[0]
			c := s.Cells[id]
			c.MeanKmh = nan
			s.Cells[id] = c
		},
		"cell max": func(s *Snapshot) {
			id := s.CellIDs()[0]
			c := s.Cells[id]
			c.MaxKmh = inf
			s.Cells[id] = c
		},
		"metric mean": func(s *Snapshot) {
			dir := s.Directions()[0]
			od := s.OD[dir]
			od.FuelMl.Mean = -inf
			s.OD[dir] = od
		},
		"histogram sum and max": func(s *Snapshot) {
			dir := s.Directions()[0]
			od := s.OD[dir]
			h := &obs.Histogram{}
			h.Observe(30)
			h.Observe(inf)
			od.TravelTimeS = h.Freeze()
			s.OD[dir] = od
		},
		"profile var": func(s *Snapshot) {
			key := EdgeProfileKey{Edge: 3, Hour: 8}
			ps := s.EdgeProfiles[key]
			ps.VarSPerKm = nan
			s.EdgeProfiles[key] = ps
		},
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			s := codecFixture(t, 0) // seed 0: the cars drive inside the grid
			s.EdgeProfiles = profileFixture(1).EdgeProfiles
			if len(s.Cells) == 0 || len(s.OD) == 0 {
				t.Fatalf("fixture has %d cells, %d directions", len(s.Cells), len(s.OD))
			}
			if _, err := DecodeSnapshot(EncodeSnapshot(s)); err != nil {
				t.Fatalf("clean fixture: %v", err)
			}
			corrupt(s)
			if _, err := DecodeSnapshot(EncodeSnapshot(s)); !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("want ErrBadSnapshot, got %v", err)
			}
		})
	}
}

// TestSeedFuzzCorpus regenerates the committed seed corpus for
// FuzzDecodeSnapshot when SEED_FUZZ_CORPUS=1 is set; otherwise it only
// verifies the corpus directory is present (the committed files replay
// on every plain `go test` run).
func TestSeedFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeSnapshot")
	if os.Getenv("SEED_FUZZ_CORPUS") == "" {
		if _, err := os.Stat(dir); err != nil {
			t.Fatalf("committed fuzz corpus missing: %v (regenerate with SEED_FUZZ_CORPUS=1 go test ./internal/sink/ -run TestSeedFuzzCorpus)", err)
		}
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	seeds := [][]byte{
		EncodeSnapshot(&Snapshot{}),
		EncodeSnapshot(codecFixture(t, 5)),
		EncodeSnapshot(profileFixture(6)),
	}
	// A version-skewed, a truncated, and a previous-version variant keep
	// the reject and compatibility paths in the corpus too.
	skew := append([]byte(nil), seeds[1]...)
	skew[8] = 9
	seeds = append(seeds, skew, seeds[1][:len(seeds[1])/2], asV1(t, seeds[1]))
	for i, data := range seeds {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
