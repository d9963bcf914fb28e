package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/odselect"
	"repro/internal/sink"
	"repro/internal/trace"
)

// buildCar fabricates a CarResult with one transition in dir whose
// points sweep eastwards at the given speeds.
func buildCar(car int, dir string, speeds ...float64) core.CarResult {
	tr := &trace.Trip{ID: int64(car), CarID: car}
	base := time.Date(2022, 6, 1, 9, 0, 0, 0, time.UTC)
	for i, v := range speeds {
		tr.Points = append(tr.Points, trace.RoutePoint{
			PointID: i, TripID: tr.ID,
			Pos:      geo.V(float64(100+200*i), float64(100+200*car)),
			Time:     base.Add(time.Duration(i) * time.Minute),
			SpeedKmh: v,
		})
	}
	rec := &core.TransitionRecord{
		Car: car,
		Transition: &odselect.Transition{
			Seg: tr, From: dir[:1], To: dir[2:], Direction: dir,
			FromCross: geo.Crossing{EntryIndex: 0},
			ToCross:   geo.Crossing{ExitIndex: len(speeds) - 1},
		},
		RouteTimeH:  float64(len(speeds)-1) / 60,
		RouteDistKm: 1.5,
		FuelMl:      80,
	}
	return core.CarResult{Car: car, Transitions: []*core.TransitionRecord{rec}}
}

// testAPI builds a sink with two cars absorbed and the API over it.
func testAPI(t *testing.T, reg *obs.Registry) (*sink.Sink, *API) {
	t.Helper()
	g, err := grid.New(geo.R(0, 0, 2000, 2000), 200)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sink.New(sink.Config{Grid: g, PublishEvery: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	s.Absorb(&core.CarResult{})
	cr1 := buildCar(1, "T-S", 30, 50, 40)
	cr2 := buildCar(2, "S-T", 20, 60)
	s.AbsorbEvent(core.CarEvent{Car: 1, Result: cr1})
	s.AbsorbEvent(core.CarEvent{Car: 2, Result: cr2})
	return s, NewAPI(s, reg)
}

// get performs a request and decodes the JSON body into out.
func get(t *testing.T, api *API, path string, out any) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if out != nil && rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("GET %s: bad JSON: %v\n%s", path, err, rec.Body.String())
		}
	}
	return rec
}

func TestSnapshotEndpoint(t *testing.T) {
	s, api := testAPI(t, nil)
	var resp struct {
		Epoch        uint64 `json:"epoch"`
		Complete     bool   `json:"complete"`
		CarsIngested int    `json:"cars_ingested"`
		Cells        int    `json:"cells"`
		Directions   int    `json:"directions"`
	}
	rec := get(t, api, "/v1/snapshot", &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if resp.CarsIngested != 3 || resp.Complete || resp.Directions != 2 {
		t.Fatalf("snapshot = %+v", resp)
	}
	if want := s.Snapshot().Epoch; resp.Epoch != want {
		t.Fatalf("epoch = %d, want %d", resp.Epoch, want)
	}
	if got := rec.Header().Get("ETag"); got != `"v3"` {
		t.Fatalf("ETag = %q", got)
	}

	s.Seal()
	get(t, api, "/v1/snapshot", &resp)
	if !resp.Complete {
		t.Fatal("sealed snapshot must report complete")
	}
}

func TestETagNotModified(t *testing.T) {
	reg := obs.NewRegistry()
	s, api := testAPI(t, reg)
	rec := get(t, api, "/v1/grid", nil)
	etag := rec.Header().Get("ETag")
	if rec.Code != http.StatusOK || etag == "" {
		t.Fatalf("status %d etag %q", rec.Code, etag)
	}

	req := httptest.NewRequest("GET", "/v1/grid", nil)
	req.Header.Set("If-None-Match", etag)
	rec2 := httptest.NewRecorder()
	api.ServeHTTP(rec2, req)
	if rec2.Code != http.StatusNotModified || rec2.Body.Len() != 0 {
		t.Fatalf("matched etag: status %d body %q", rec2.Code, rec2.Body.String())
	}
	if reg.Snapshot().Counters["serve_responses_not_modified"] != 1 {
		t.Fatal("not-modified counter not bumped")
	}

	// A publish bumps the epoch, so the stale ETag revalidates to 200.
	s.Absorb(&core.CarResult{Car: 9})
	rec3 := httptest.NewRecorder()
	api.ServeHTTP(rec3, req)
	if rec3.Code != http.StatusOK {
		t.Fatalf("stale etag: status %d", rec3.Code)
	}
	if got := rec3.Header().Get("ETag"); got == etag {
		t.Fatal("etag did not change across epochs")
	}

	// List form and wildcard both match.
	req.Header.Set("If-None-Match", `"v1", `+rec3.Header().Get("ETag"))
	rec4 := httptest.NewRecorder()
	api.ServeHTTP(rec4, req)
	if rec4.Code != http.StatusNotModified {
		t.Fatalf("list etag: status %d", rec4.Code)
	}
	req.Header.Set("If-None-Match", "*")
	rec5 := httptest.NewRecorder()
	api.ServeHTTP(rec5, req)
	if rec5.Code != http.StatusNotModified {
		t.Fatalf("wildcard etag: status %d", rec5.Code)
	}
}

func TestGridEndpointFilters(t *testing.T) {
	_, api := testAPI(t, nil)
	var resp struct {
		Epoch uint64  `json:"epoch"`
		CellM float64 `json:"cell_m"`
		Cells []struct {
			ID   string     `json:"id"`
			N    int        `json:"n"`
			Mean float64    `json:"mean_kmh"`
			Rect [4]float64 `json:"rect"`
		} `json:"cells"`
	}
	get(t, api, "/v1/grid", &resp)
	if resp.CellM != 200 || len(resp.Cells) != 5 {
		t.Fatalf("grid = %+v", resp)
	}
	// IDs are valid path keys: each must round-trip through ParseCellID.
	for _, c := range resp.Cells {
		if _, err := grid.ParseCellID(c.ID); err != nil {
			t.Fatalf("cell id %q: %v", c.ID, err)
		}
	}

	// bbox filter: car 1's points sit in the J=1 cell row (y in
	// [200,400)); a bbox inside that row selects only its 3 cells.
	get(t, api, "/v1/grid?bbox=0,250,2000,399", &resp)
	if len(resp.Cells) != 3 {
		t.Fatalf("bbox cells = %d, want 3", len(resp.Cells))
	}

	// min-points: no cell holds 2+ points here.
	get(t, api, "/v1/grid?min-points=2", &resp)
	if len(resp.Cells) != 0 {
		t.Fatalf("min-points cells = %d, want 0", len(resp.Cells))
	}

	if rec := get(t, api, "/v1/grid?bbox=1,2,3", nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad bbox: status %d", rec.Code)
	}
	if rec := get(t, api, "/v1/grid?min-points=-1", nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad min-points: status %d", rec.Code)
	}
}

// TestGridUnencodableAnswersError: a snapshot value JSON cannot carry
// (a NaN cell mean, as a corrupt cluster partial once merged in) must
// answer the 500 error envelope, not a 200 with an empty body.
func TestGridUnencodableAnswersError(t *testing.T) {
	g, err := grid.New(geo.R(0, 0, 2000, 2000), 200)
	if err != nil {
		t.Fatal(err)
	}
	snap := &sink.Snapshot{Epoch: 4, Grid: g, Cells: map[grid.CellID]sink.CellStats{
		{I: 1, J: 1}: {N: 3, MeanKmh: math.NaN(), MinKmh: 20, MaxKmh: 40},
	}}
	reg := obs.NewRegistry()
	rec := get(t, NewAPI(fixedSource{snap}, reg), "/v1/grid", nil)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500; body %q", rec.Code, rec.Body.String())
	}
	var body errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("error body is not the envelope: %v\n%s", err, rec.Body.String())
	}
	if body.Error.Code != "internal" || body.Error.Message == "" {
		t.Fatalf("envelope %+v", body)
	}
	if got := reg.Snapshot().Counters["serve_responses_server_error"]; got != 1 {
		t.Fatalf("serve_responses_server_error = %v, want 1", got)
	}
}

func TestCellEndpoint(t *testing.T) {
	_, api := testAPI(t, nil)
	var resp struct {
		Epoch uint64  `json:"epoch"`
		ID    string  `json:"id"`
		N     int     `json:"n"`
		Mean  float64 `json:"mean_kmh"`
	}
	// Car 1's first point (100,300) lives in cell c000.001.
	rec := get(t, api, "/v1/cells/c000.001", &resp)
	if rec.Code != http.StatusOK || resp.N != 1 || resp.Mean != 30 {
		t.Fatalf("cell: status %d resp %+v", rec.Code, resp)
	}
	if resp.ID != "c000.001" {
		t.Fatalf("id = %q", resp.ID)
	}
	// Unpadded key addresses the same cell.
	if rec := get(t, api, "/v1/cells/c0.1", &resp); rec.Code != http.StatusOK || resp.Mean != 30 {
		t.Fatalf("unpadded key: status %d", rec.Code)
	}
	if rec := get(t, api, "/v1/cells/c099.099", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("empty cell: status %d", rec.Code)
	}
	if rec := get(t, api, "/v1/cells/bogus", nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad id: status %d", rec.Code)
	}
}

func TestODEndpoints(t *testing.T) {
	_, api := testAPI(t, nil)
	var matrix struct {
		Epoch      uint64 `json:"epoch"`
		Directions []struct {
			Direction string `json:"direction"`
			Trips     int    `json:"trips"`
			TravelS   struct {
				N   uint64  `json:"n"`
				P50 float64 `json:"p50"`
			} `json:"travel_time_s"`
		} `json:"directions"`
	}
	get(t, api, "/v1/od", &matrix)
	if len(matrix.Directions) != 2 ||
		matrix.Directions[0].Direction != "S-T" || matrix.Directions[1].Direction != "T-S" {
		t.Fatalf("matrix = %+v", matrix.Directions)
	}

	var pair struct {
		Epoch   uint64 `json:"epoch"`
		From    string `json:"from"`
		To      string `json:"to"`
		Trips   int    `json:"trips"`
		TravelS struct {
			N    uint64   `json:"n"`
			Mean float64  `json:"mean"`
			P50  *float64 `json:"p50"`
			P99  *float64 `json:"p99"`
		} `json:"travel_time_s"`
	}
	rec := get(t, api, "/v1/od/T-S", &pair)
	if rec.Code != http.StatusOK || pair.From != "T" || pair.To != "S" || pair.Trips != 1 {
		t.Fatalf("pair: status %d %+v", rec.Code, pair)
	}
	// Car 1's travel time is 2 min = 120 s, but one sample defines no
	// distribution: the summary reports the honest count and mean and
	// omits every quantile.
	if pair.TravelS.N != 1 || pair.TravelS.Mean < 115 || pair.TravelS.Mean > 125 {
		t.Fatalf("travel stats = %+v, want n=1 mean≈120", pair.TravelS)
	}
	if pair.TravelS.P50 != nil || pair.TravelS.P99 != nil {
		t.Fatalf("single-sample quantiles must be omitted, got %+v", pair.TravelS)
	}
	if rec := get(t, api, "/v1/od/L-T", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("missing pair: status %d", rec.Code)
	}
	if rec := get(t, api, "/v1/od/TS", nil); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad pair: status %d", rec.Code)
	}
}

func TestMethodAndUnknownPaths(t *testing.T) {
	_, api := testAPI(t, nil)
	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/od", strings.NewReader("{}")))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST status = %d", rec.Code)
	}
	if rec := get(t, api, "/v1/nope", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown path status = %d", rec.Code)
	}
}

func TestServeMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	_, api := testAPI(t, reg)
	get(t, api, "/v1/grid", nil)
	get(t, api, "/v1/od", nil)
	get(t, api, "/v1/od", nil)
	get(t, api, "/v1/cells/bogus", nil)
	snap := reg.Snapshot()
	for name, want := range map[string]uint64{
		"serve_requests_grid":         1,
		"serve_requests_od":           2,
		"serve_requests_cell":         1,
		"serve_responses_bad_request": 1,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if snap.Histograms["serve_request_seconds"].Count != 4 {
		t.Errorf("latency count = %d", snap.Histograms["serve_request_seconds"].Count)
	}
	if snap.Gauges["serve_snapshot_epoch"] != 3 || snap.Gauges["serve_snapshot_cars"] != 3 {
		t.Errorf("snapshot gauges: %+v", snap.Gauges)
	}
	if age := snap.Gauges["serve_snapshot_age_seconds"]; age < 0 || age > 60 {
		t.Errorf("snapshot age = %g", age)
	}
}

// TestMountAlongsideDebug mounts the API on the obs debug mux and
// checks both surfaces answer on one listener.
func TestMountAlongsideDebug(t *testing.T) {
	reg := obs.NewRegistry()
	_, api := testAPI(t, reg)
	mux := reg.DebugMux()
	Mount(mux, api)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	for _, path := range []string{"/v1/snapshot", "/v1/grid", "/metrics", "/debug/vars"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
	}
}

// buildCarFromTo is buildCar for explicit (possibly hyphenated) gate
// names.
func buildCarFromTo(car int, from, to string, speeds ...float64) core.CarResult {
	cr := buildCar(car, "x-y", speeds...)
	tr := cr.Transitions[0].Transition
	tr.From, tr.To, tr.Direction = from, to, from+"-"+to
	return cr
}

// TestODPairHyphenatedGates is the regression test for the
// /v1/od/{from}-{to} ambiguity: with gate names containing '-', the
// rendered direction string no longer identifies the pair, so the
// handler must resolve the path against the registered gate set — and
// reject unknown gates with 400 rather than a misleading 404.
func TestODPairHyphenatedGates(t *testing.T) {
	g, err := grid.New(geo.R(0, 0, 2000, 2000), 200)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sink.New(sink.Config{
		Grid: g, PublishEvery: 1,
		Gates: []string{"T-north", "S", "L"},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.AbsorbEvent(core.CarEvent{Car: 1, Result: buildCarFromTo(1, "T-north", "S", 30, 50, 40)})
	api := NewAPI(s, nil)

	var pair struct {
		From  string `json:"from"`
		To    string `json:"to"`
		Trips int    `json:"trips"`
	}
	rec := get(t, api, "/v1/od/T-north-S", &pair)
	if rec.Code != http.StatusOK || pair.From != "T-north" || pair.To != "S" || pair.Trips != 1 {
		t.Fatalf("hyphenated pair: status %d %+v\n%s", rec.Code, pair, rec.Body.String())
	}

	// Both gates known but no data: 404.
	if rec := get(t, api, "/v1/od/S-L", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("no-data pair: status %d", rec.Code)
	}
	// Unknown gate names: 400, not 404.
	for _, path := range []string{"/v1/od/T-S", "/v1/od/X-Y", "/v1/od/T-north-X"} {
		if rec := get(t, api, path, nil); rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400\n%s", path, rec.Code, rec.Body.String())
		}
	}

	// The full matrix renders the hyphenated direction unambiguously
	// via its struct key.
	var matrix struct {
		Directions []struct {
			Direction string `json:"direction"`
			From      string `json:"from"`
			To        string `json:"to"`
		} `json:"directions"`
	}
	get(t, api, "/v1/od", &matrix)
	if len(matrix.Directions) != 1 || matrix.Directions[0].From != "T-north" || matrix.Directions[0].To != "S" {
		t.Fatalf("matrix = %+v", matrix.Directions)
	}
}

// TestParseODPairAmbiguous: a pathological gate set where two split
// positions both name registered gates must be refused, not guessed.
func TestParseODPairAmbiguous(t *testing.T) {
	snap := &sink.Snapshot{Gates: []string{"A", "B", "A-B", "B-B"}}
	// "A-B-B" could be A→B-B or A-B→B; both sides of both splits are
	// registered gates.
	if _, err := parseODPair("A-B-B", snap); err == nil {
		t.Fatal("ambiguous pair accepted")
	}
	// Unambiguous pairs still resolve.
	key, err := parseODPair("A-B-A", snap) // only A-B→A works (B-A unknown)
	if err != nil || key.From != "A-B" || key.To != "A" {
		t.Fatalf("key %v err %v", key, err)
	}
}
