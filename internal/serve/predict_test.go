package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/digiroad"
	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/roadnet"
	"repro/internal/sink"
)

// fixedSource serves one pinned snapshot — the test stand-in for a sink.
type fixedSource struct{ snap *sink.Snapshot }

func (f fixedSource) Snapshot() *sink.Snapshot { return f.snap }

// lineGraph is a single 1 km two-way street with a junction spur, so
// routing between its ends is well-defined.
func lineGraph(t *testing.T) (*roadnet.Graph, *roadnet.Router) {
	t.Helper()
	db := digiroad.NewDatabase(digiroad.OuluOrigin)
	// Two spurs at each end make the endpoints degree-3 junctions, so
	// chain-walking keeps nodes exactly at (0,0) and (1000,0).
	for _, e := range []digiroad.TrafficElement{
		{ID: 1, Geom: geo.Line(0, 0, 1000, 0), Class: digiroad.ClassLocal, Flow: digiroad.FlowBoth, SpeedLimitKmh: 36},
		{ID: 2, Geom: geo.Line(0, 0, 0, 100), Class: digiroad.ClassLocal, Flow: digiroad.FlowBoth, SpeedLimitKmh: 36},
		{ID: 3, Geom: geo.Line(0, 0, 0, -100), Class: digiroad.ClassLocal, Flow: digiroad.FlowBoth, SpeedLimitKmh: 36},
		{ID: 4, Geom: geo.Line(1000, 0, 1000, 100), Class: digiroad.ClassLocal, Flow: digiroad.FlowBoth, SpeedLimitKmh: 36},
		{ID: 5, Geom: geo.Line(1000, 0, 1000, -100), Class: digiroad.ClassLocal, Flow: digiroad.FlowBoth, SpeedLimitKmh: 36},
	} {
		if _, err := db.AddElement(e); err != nil {
			t.Fatal(err)
		}
	}
	g, err := roadnet.Build(db)
	if err != nil {
		t.Fatal(err)
	}
	return g, g.Router()
}

type predictJSON struct {
	Epoch         uint64  `json:"epoch"`
	TravelS       float64 `json:"travel_s"`
	FreeFlowS     float64 `json:"free_flow_s"`
	DistanceKm    float64 `json:"distance_km"`
	Edges         int     `json:"edges"`
	ObservedEdges int     `json:"observed_edges"`
	Hour          int     `json:"hour"`
}

func TestPredictEndpoint(t *testing.T) {
	g, r := lineGraph(t)
	src := fixedSource{&sink.Snapshot{Epoch: 4}}
	api := NewAPI(src, nil).WithPredictor(predict.NewPredictor(g, r))

	var resp predictJSON
	rec := get(t, api, "/v1/predict?from=0,0&to=1000,0&t=8", &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	// 1 km at 36 km/h free flow = 100 s; no profiles, so the prediction
	// is pure free flow.
	if resp.TravelS != 100 || resp.FreeFlowS != 100 || resp.DistanceKm != 1 || resp.Hour != 8 {
		t.Fatalf("prediction = %+v, want 100 s free flow over 1 km", resp)
	}
	if resp.Epoch != 4 || rec.Header().Get("ETag") != `"v4"` {
		t.Fatalf("epoch binding: %+v etag %q", resp, rec.Header().Get("ETag"))
	}

	// The ETag contract holds for the new endpoint: same epoch, 304.
	req := httptest.NewRequest("GET", "/v1/predict?from=0,0&to=1000,0", nil)
	req.Header.Set("If-None-Match", `"v4"`)
	rec304 := httptest.NewRecorder()
	api.ServeHTTP(rec304, req)
	if rec304.Code != http.StatusNotModified {
		t.Fatalf("If-None-Match status = %d", rec304.Code)
	}

	// RFC 3339 timestamps resolve to their UTC hour; omitting t selects
	// the all-day profile.
	if rec := get(t, api, "/v1/predict?from=0,0&to=1000,0&t=2022-03-01T17:30:00Z", &resp); rec.Code != http.StatusOK || resp.Hour != 17 {
		t.Fatalf("timestamp t: status %d %+v", rec.Code, resp)
	}
	if rec := get(t, api, "/v1/predict?from=0,0&to=1000,0", &resp); rec.Code != http.StatusOK || resp.Hour != -1 {
		t.Fatalf("default t: status %d %+v", rec.Code, resp)
	}

	for _, path := range []string{
		"/v1/predict",                           // missing params
		"/v1/predict?from=0&to=1000,0",          // malformed from
		"/v1/predict?from=0,0&to=nan,0",         // non-numeric
		"/v1/predict?from=0,0&to=1000,0&t=24",   // hour out of range
		"/v1/predict?from=0,0&to=1000,0&t=noon", // unparsable t
	} {
		if rec := get(t, api, path, nil); rec.Code != http.StatusBadRequest {
			t.Errorf("GET %s: status = %d, want 400", path, rec.Code)
		}
	}
}

func TestPredictEndpointNoPath(t *testing.T) {
	db := digiroad.NewDatabase(digiroad.OuluOrigin)
	if _, err := db.AddElement(digiroad.TrafficElement{
		ID: 1, Geom: geo.Line(0, 0, 100, 0), Class: digiroad.ClassLocal,
		Flow: digiroad.FlowForward, SpeedLimitKmh: 36,
	}); err != nil {
		t.Fatal(err)
	}
	g, err := roadnet.Build(db)
	if err != nil {
		t.Fatal(err)
	}
	api := NewAPI(fixedSource{&sink.Snapshot{Epoch: 1}}, nil).
		WithPredictor(predict.NewPredictor(g, g.Router()))
	rec := get(t, api, "/v1/predict?from=100,0&to=0,0", nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unroutable pair: status = %d, want 404", rec.Code)
	}
}

func TestPredictEndpointUnconfigured(t *testing.T) {
	_, api := testAPI(t, nil)
	rec := get(t, api, "/v1/predict?from=0,0&to=1,1", nil)
	if rec.Code != http.StatusNotImplemented {
		t.Fatalf("status = %d, want 501", rec.Code)
	}
	if rec := get(t, api, "/v1/anomalies", nil); rec.Code != http.StatusNotImplemented {
		t.Fatalf("anomalies status = %d, want 501", rec.Code)
	}
}

func TestAnomaliesEndpoint(t *testing.T) {
	quiet := func(epoch uint64) *sink.Snapshot {
		return &sink.Snapshot{
			Epoch: epoch,
			Cells: map[grid.CellID]sink.CellStats{
				{I: 1, J: 1}: {N: 40, MeanKmh: 30},
			},
		}
	}
	det := predict.NewAnomalyDetector(predict.AnomalyConfig{})
	for e := uint64(1); e <= 4; e++ {
		det.Observe(quiet(e))
	}
	incident := quiet(9)
	incident.Cells[grid.CellID{I: 1, J: 1}] = sink.CellStats{N: 40, MeanKmh: 12}
	api := NewAPI(fixedSource{incident}, nil).WithAnomalies(det)

	var resp struct {
		Epoch       uint64 `json:"epoch"`
		RefEpochs   int    `json:"ref_epochs"`
		CellsScored int    `json:"cells_scored"`
		Cells       []struct {
			ID         string  `json:"id"`
			CurrentKmh float64 `json:"current_kmh"`
			Z          float64 `json:"z"`
		} `json:"cells"`
		ODs []struct{} `json:"ods"`
	}
	rec := get(t, api, "/v1/anomalies", &resp)
	if rec.Code != http.StatusOK || resp.Epoch != 9 || resp.RefEpochs != 4 {
		t.Fatalf("status %d resp %+v", rec.Code, resp)
	}
	if len(resp.Cells) != 1 || resp.Cells[0].ID != "c001.001" || resp.Cells[0].Z >= 0 {
		t.Fatalf("cells = %+v, want the slowed cell with negative z", resp.Cells)
	}
	if rec.Header().Get("ETag") != `"v9"` {
		t.Fatalf("etag = %q", rec.Header().Get("ETag"))
	}

	// Repeated queries at the same epoch return the identical report —
	// the detector memoizes rather than re-folding the epoch.
	var again struct {
		RefEpochs int `json:"ref_epochs"`
		Cells     []struct {
			Z float64 `json:"z"`
		} `json:"cells"`
	}
	get(t, api, "/v1/anomalies", &again)
	if again.RefEpochs != 4 || len(again.Cells) != 1 || again.Cells[0].Z != resp.Cells[0].Z {
		t.Fatalf("second query drifted: %+v vs %+v", again, resp)
	}
}

// TestODQuantileEdgeCases pins the travel-time summary contract on the
// degenerate histograms that used to leak NaN→0 quantiles: an empty
// distribution has no quantiles, a single sample reports only count,
// mean and max, and two samples restore the full summary.
func TestODQuantileEdgeCases(t *testing.T) {
	hist := func(times ...float64) *obs.FrozenHistogram {
		h := &obs.Histogram{}
		for _, v := range times {
			h.Observe(v)
		}
		return h.Freeze()
	}
	snap := &sink.Snapshot{
		Epoch: 2,
		OD: map[sink.ODKey]sink.ODStats{
			{From: "A", To: "B"}: {From: "A", To: "B", Trips: 0, TravelTimeS: hist()},
			{From: "B", To: "C"}: {From: "B", To: "C", Trips: 1, TravelTimeS: hist(120)},
			{From: "C", To: "D"}: {From: "C", To: "D", Trips: 2, TravelTimeS: hist(100, 300)},
		},
	}
	api := NewAPI(fixedSource{snap}, nil)
	var resp struct {
		Directions []struct {
			Direction string `json:"direction"`
			TravelS   struct {
				N    uint64   `json:"n"`
				Mean float64  `json:"mean"`
				Max  float64  `json:"max"`
				P10  *float64 `json:"p10"`
				P50  *float64 `json:"p50"`
				P99  *float64 `json:"p99"`
			} `json:"travel_time_s"`
		} `json:"directions"`
	}
	rec := get(t, api, "/v1/od", &resp)
	if rec.Code != http.StatusOK || len(resp.Directions) != 3 {
		t.Fatalf("status %d directions %+v", rec.Code, resp.Directions)
	}
	empty, one, two := resp.Directions[0].TravelS, resp.Directions[1].TravelS, resp.Directions[2].TravelS

	if empty.N != 0 || empty.Mean != 0 || empty.Max != 0 {
		t.Fatalf("empty summary = %+v", empty)
	}
	if empty.P10 != nil || empty.P50 != nil || empty.P99 != nil {
		t.Fatalf("empty histogram must omit quantiles, got %+v", empty)
	}

	if one.N != 1 || one.Mean != 120 || one.Max != 120 {
		t.Fatalf("one-sample summary = %+v", one)
	}
	if one.P10 != nil || one.P50 != nil || one.P99 != nil {
		t.Fatalf("one-sample histogram must omit quantiles, got %+v", one)
	}

	if two.N != 2 || two.P10 == nil || two.P50 == nil || two.P99 == nil {
		t.Fatalf("two-sample summary must carry quantiles: %+v", two)
	}
	// Bucket midpoints: p10 tracks the low sample, p99 the high one.
	if *two.P10 > 110 || *two.P99 < 280 {
		t.Fatalf("two-sample quantiles = p10 %g p99 %g", *two.P10, *two.P99)
	}
}
