package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/ingest"
	"repro/internal/sink"
	"repro/internal/tracegen"
)

// The ingest endpoint tests need a real pipeline (the engine drives
// the batch stages); construction synthesises the city once.
var ingestPipe struct {
	once sync.Once
	p    *core.Pipeline
	err  error
}

func ingestPipeline(t *testing.T) *core.Pipeline {
	t.Helper()
	ingestPipe.once.Do(func() {
		ingestPipe.p, ingestPipe.err = core.NewPipeline(core.Config{
			CitySeed: 42,
			Fleet: tracegen.Config{
				Seed: 42, Cars: 2, TripsPerCar: 2, GateRunFraction: 0.3,
			},
		})
	})
	if ingestPipe.err != nil {
		t.Fatal(ingestPipe.err)
	}
	return ingestPipe.p
}

// newIngestAPI wires a fresh engine and sink behind the HTTP API.
func newIngestAPI(t *testing.T) (*ingest.Engine, *API) {
	t.Helper()
	p := ingestPipeline(t)
	g, err := sink.GridForPipeline(p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sink.New(sink.Config{
		Grid: g, PublishEvery: 1, Gates: p.Selector.GateNames(),
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := ingest.New(ingest.Config{
		Pipeline:        p,
		Sink:            s,
		AllowedLateness: 5 * time.Second,
		WatermarkEvery:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, NewAPI(s, nil).WithIngest(e)
}

// firehosePoints fabricates n in-area points of one trip at 1 Hz,
// starting at event time 1 s (epoch ms 0 is the invalid-time
// sentinel).
func firehosePoints(p *core.Pipeline, n int) []ingest.Point {
	area := p.Config.Clean.Area
	centre := geo.XY{X: (area.MinX + area.MaxX) / 2, Y: (area.MinY + area.MaxY) / 2}
	ll := p.City.DB.Proj.ToPoint(centre)
	pts := make([]ingest.Point, n)
	for i := range pts {
		pts[i] = ingest.Point{
			Car: 1, Trip: 1, Seq: i,
			TimeMs: int64(i+1) * 1000,
			Lon:    ll.Lon, Lat: ll.Lat,
			SpeedKmh: 25, FuelMl: 0.1, DistM: 7,
		}
	}
	return pts
}

// post performs a POST against the API and decodes a JSON body.
func post(t *testing.T, api *API, path, contentType string, body io.Reader, out any) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", path, body)
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, req)
	if out != nil && rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("POST %s: bad JSON: %v\n%s", path, err, rec.Body.String())
		}
	}
	return rec
}

// TestIngestNDJSON drives the full firehose lifecycle over HTTP:
// NDJSON points in, per-body admission summary out, close seals the
// snapshot and parks the watermark at +infinity.
func TestIngestNDJSON(t *testing.T) {
	_, api := newIngestAPI(t)
	pts := firehosePoints(ingestPipeline(t), 20)
	var buf bytes.Buffer
	if err := ingest.WriteNDJSON(&buf, pts); err != nil {
		t.Fatal(err)
	}

	var resp struct {
		Received    int   `json:"received"`
		Admitted    int   `json:"admitted"`
		WatermarkMs int64 `json:"watermark_ms"`
	}
	rec := post(t, api, "/v1/ingest", "application/x-ndjson", &buf, &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if resp.Received != 20 || resp.Admitted != 20 {
		t.Fatalf("response = %+v, want 20 received and admitted", resp)
	}
	if want := int64((20 - 5) * 1000); resp.WatermarkMs != want {
		t.Fatalf("watermark_ms = %d, want %d", resp.WatermarkMs, want)
	}

	var closed struct {
		Closed      bool  `json:"closed"`
		WatermarkMs int64 `json:"watermark_ms"`
	}
	rec = post(t, api, "/v1/ingest/close", "", nil, &closed)
	if rec.Code != http.StatusOK || !closed.Closed {
		t.Fatalf("close: status %d body %s", rec.Code, rec.Body.String())
	}
	if closed.WatermarkMs != math.MaxInt64 {
		t.Fatalf("closed watermark = %d, want MaxInt64", closed.WatermarkMs)
	}

	var snap struct {
		Complete     bool `json:"complete"`
		CarsIngested int  `json:"cars_ingested"`
	}
	get(t, api, "/v1/snapshot", &snap)
	if !snap.Complete || snap.CarsIngested != 1 {
		t.Fatalf("snapshot after close = %+v, want complete with 1 car", snap)
	}
}

// TestIngestCloseTwice: a repeated close request answers like the first
// and neither completes a car again nor publishes another epoch.
func TestIngestCloseTwice(t *testing.T) {
	_, api := newIngestAPI(t)
	var buf bytes.Buffer
	if err := ingest.WriteNDJSON(&buf, firehosePoints(ingestPipeline(t), 20)); err != nil {
		t.Fatal(err)
	}
	if rec := post(t, api, "/v1/ingest", "application/x-ndjson", &buf, nil); rec.Code != http.StatusOK {
		t.Fatalf("ingest: status %d body %s", rec.Code, rec.Body.String())
	}

	type snapshot struct {
		Epoch        uint64 `json:"epoch"`
		CarsIngested int    `json:"cars_ingested"`
	}
	var snaps [2]snapshot
	for i := range snaps {
		var closed struct {
			Closed bool `json:"closed"`
		}
		if rec := post(t, api, "/v1/ingest/close", "", nil, &closed); rec.Code != http.StatusOK || !closed.Closed {
			t.Fatalf("close %d: status %d body %s", i+1, rec.Code, rec.Body.String())
		}
		get(t, api, "/v1/snapshot", &snaps[i])
	}
	if snaps[0].CarsIngested != 1 || snaps[1] != snaps[0] {
		t.Fatalf("snapshot after first close %+v, after second %+v; want 1 car, unchanged", snaps[0], snaps[1])
	}
}

// TestIngestEmptyBodyReportsWatermark: a body that carries no points
// admits nothing and answers the engine's current watermark, not 0.
func TestIngestEmptyBodyReportsWatermark(t *testing.T) {
	e, api := newIngestAPI(t)
	var buf bytes.Buffer
	if err := ingest.WriteNDJSON(&buf, firehosePoints(ingestPipeline(t), 20)); err != nil {
		t.Fatal(err)
	}
	if rec := post(t, api, "/v1/ingest", "application/x-ndjson", &buf, nil); rec.Code != http.StatusOK {
		t.Fatalf("ingest: status %d body %s", rec.Code, rec.Body.String())
	}
	want := int64((20 - 5) * 1000)
	if wm := e.Watermark(); wm != want {
		t.Fatalf("engine watermark = %d, want %d", wm, want)
	}

	var resp struct {
		Received    int   `json:"received"`
		WatermarkMs int64 `json:"watermark_ms"`
	}
	rec := post(t, api, "/v1/ingest", "application/x-ndjson", strings.NewReader(""), &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("empty body: status %d body %s", rec.Code, rec.Body.String())
	}
	if resp.Received != 0 || resp.WatermarkMs != want {
		t.Fatalf("empty body answered %+v, want 0 received at watermark %d", resp, want)
	}
}

// TestIngestBinary posts the same stream in the TAXIPNTB framing; the
// handler must sniff it without a content-type hint.
func TestIngestBinary(t *testing.T) {
	_, api := newIngestAPI(t)
	pts := firehosePoints(ingestPipeline(t), 12)
	var buf bytes.Buffer
	if err := ingest.WriteBinary(&buf, pts); err != nil {
		t.Fatal(err)
	}

	var resp struct {
		Received int `json:"received"`
		Admitted int `json:"admitted"`
	}
	rec := post(t, api, "/v1/ingest", "application/octet-stream", &buf, &resp)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	if resp.Received != 12 || resp.Admitted != 12 {
		t.Fatalf("response = %+v, want 12 received and admitted", resp)
	}
}

// TestIngestBadBody checks a malformed stream yields the shared error
// envelope — and that it reports how many points were accepted before
// the decode failure (the firehose is not a transaction).
func TestIngestBadBody(t *testing.T) {
	e, api := newIngestAPI(t)
	body := `{"car":1,"trip":1,"seq":0,"time_ms":1000,"lon":25.4,"lat":65.0}
{"car":1 broken`
	rec := post(t, api, "/v1/ingest", "application/x-ndjson", strings.NewReader(body), nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", rec.Code)
	}
	var env errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("bad envelope: %v\n%s", err, rec.Body.String())
	}
	if env.Error.Code != "bad_request" {
		t.Fatalf("code = %q, want bad_request", env.Error.Code)
	}
	if !strings.Contains(env.Error.Message, "1 points accepted before the error") {
		t.Fatalf("message = %q, want the partial-accept count", env.Error.Message)
	}
	if st := e.Stats(); st.Received != 1 {
		t.Fatalf("engine received %d points, want the 1 decoded before the error", st.Received)
	}
}

// TestIngestRefusesUnrepresentablePoints: NDJSON values the binary
// framing cannot carry (seq outside int32, time_ms outside the
// nanosecond window) fail the body with the same 400 envelope as a
// malformed line, after admitting what decoded before them.
func TestIngestRefusesUnrepresentablePoints(t *testing.T) {
	for _, bad := range []string{
		`{"car":1,"trip":1,"seq":4294967296,"time_ms":2000,"lon":25.4,"lat":65.0}`,
		`{"car":1,"trip":1,"seq":1,"time_ms":9000000000000000000,"lon":25.4,"lat":65.0}`,
	} {
		e, api := newIngestAPI(t)
		body := `{"car":1,"trip":1,"seq":0,"time_ms":1000,"lon":25.4,"lat":65.0}` + "\n" + bad
		rec := post(t, api, "/v1/ingest", "application/x-ndjson", strings.NewReader(body), nil)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400", bad, rec.Code)
		}
		var env errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("bad envelope: %v\n%s", err, rec.Body.String())
		}
		if env.Error.Code != "bad_request" || !strings.Contains(env.Error.Message, "line 2") ||
			!strings.Contains(env.Error.Message, "1 points accepted before the error") {
			t.Fatalf("%s: envelope = %+v", bad, env.Error)
		}
		if st := e.Stats(); st.Received != 1 {
			t.Fatalf("%s: engine received %d points, want 1", bad, st.Received)
		}
	}
}
