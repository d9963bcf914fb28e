package serve

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/obs"
)

func TestHealthzEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Gauge("runner_inflight").Set(3)
	s, api := testAPI(t, reg)

	var hz struct {
		Status         string  `json:"status"`
		Epoch          uint64  `json:"epoch"`
		AgeSeconds     float64 `json:"age_seconds"`
		Sealed         bool    `json:"sealed"`
		IngestInflight int64   `json:"ingest_inflight"`
		CarsIngested   int     `json:"cars_ingested"`
	}
	rec := get(t, api, "/v1/healthz", &hz)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d", rec.Code)
	}
	if hz.Status != "ok" || hz.Sealed || hz.IngestInflight != 3 || hz.CarsIngested != 3 {
		t.Fatalf("healthz = %+v", hz)
	}
	if hz.AgeSeconds < 0 {
		t.Fatalf("negative age %v", hz.AgeSeconds)
	}
	if rec.Header().Get("ETag") == "" {
		t.Fatal("healthz has no ETag")
	}

	s.Seal()
	get(t, api, "/v1/healthz", &hz)
	if !hz.Sealed {
		t.Fatal("healthz not sealed after Seal")
	}
	if got := reg.Snapshot().Counters["serve_requests_healthz"]; got != 2 {
		t.Fatalf("serve_requests_healthz = %d, want 2", got)
	}
}

func TestLineageEndpoint(t *testing.T) {
	_, api := testAPI(t, nil)

	// Without a ledger the endpoint reports disabled, not an error.
	var resp struct {
		Enabled bool                 `json:"enabled"`
		Lineage *obs.LineageSnapshot `json:"lineage"`
	}
	if rec := get(t, api, "/v1/lineage", &resp); rec.Code != http.StatusOK {
		t.Fatalf("lineage = %d", rec.Code)
	}
	if resp.Enabled || resp.Lineage != nil {
		t.Fatalf("lineage without ledger = %+v", resp)
	}

	lin := obs.NewLineage(nil)
	st := lin.Stage("clean", "points")
	st.Reason("spike").Add(3)
	st.RecordCar(4, 10, 7) // folds 10 in / 7 out into the stage totals too
	api.WithLineage(func() obs.LineageSnapshot { return lin.Snapshot(10) })

	resp.Lineage = nil
	get(t, api, "/v1/lineage", &resp)
	if !resp.Enabled || resp.Lineage == nil {
		t.Fatalf("lineage with ledger = %+v", resp)
	}
	if !resp.Lineage.Conserved || len(resp.Lineage.Stages) != 1 {
		t.Fatalf("lineage snapshot = %+v", resp.Lineage)
	}
	row := resp.Lineage.Stages[0]
	if row.Stage != "clean" || row.In != 10 || row.Out != 7 {
		t.Fatalf("stage row = %+v", row)
	}
	if len(resp.Lineage.TopDroppedCars) != 1 || resp.Lineage.TopDroppedCars[0].Car != 4 {
		t.Fatalf("top cars = %+v", resp.Lineage.TopDroppedCars)
	}
}

// logLines parses one JSON log record per line.
func logLines(t *testing.T, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		m := map[string]any{}
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad log line %q: %v", line, err)
		}
		out = append(out, m)
	}
	return out
}

func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	_, api := testAPI(t, nil)
	api.WithLogger(slog.New(slog.NewJSONHandler(&buf, nil)))

	get(t, api, "/v1/snapshot", nil)
	get(t, api, "/v1/cells/c99.99", nil) // 404

	lines := logLines(t, &buf)
	if len(lines) != 2 {
		t.Fatalf("want 2 access-log lines, got %d:\n%s", len(lines), buf.String())
	}
	first, second := lines[0], lines[1]
	if first["msg"] != "request" || first["method"] != "GET" || first["path"] != "/v1/snapshot" {
		t.Fatalf("first line = %v", first)
	}
	if first["status"].(float64) != 200 || first["bytes"].(float64) <= 0 {
		t.Fatalf("first line status/bytes = %v", first)
	}
	if _, ok := first["duration"]; !ok {
		t.Fatal("access log has no duration")
	}
	if first["epoch"].(float64) != 3 {
		t.Fatalf("first line epoch = %v", first["epoch"])
	}
	if second["status"].(float64) != 404 || second["path"] != "/v1/cells/c99.99" {
		t.Fatalf("second line = %v", second)
	}
	if first["req"].(float64) >= second["req"].(float64) {
		t.Fatalf("request ids not increasing: %v then %v", first["req"], second["req"])
	}
}

func TestPanicRecovery(t *testing.T) {
	var buf bytes.Buffer
	reg := obs.NewRegistry()
	_, api := testAPI(t, reg)
	api.WithLogger(slog.New(slog.NewJSONHandler(&buf, nil)))
	api.mux.HandleFunc("GET /v1/boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})

	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler returned %d, want 500", rec.Code)
	}
	var body errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil ||
		body.Error.Code != "internal" || body.Error.Message == "" {
		t.Fatalf("500 body = %q (%v)", rec.Body.String(), err)
	}

	lines := logLines(t, &buf)
	var sawPanic, sawAccess bool
	for _, m := range lines {
		switch m["msg"] {
		case "handler panicked":
			sawPanic = true
			if m["panic"] != "kaboom" || m["stack"] == "" {
				t.Fatalf("panic line = %v", m)
			}
		case "request":
			sawAccess = true
			if m["status"].(float64) != 500 {
				t.Fatalf("access line after panic = %v", m)
			}
		}
	}
	if !sawPanic || !sawAccess {
		t.Fatalf("want panic + access lines, got:\n%s", buf.String())
	}
	if got := reg.Snapshot().Counters["serve_responses_server_error"]; got != 1 {
		t.Fatalf("serve_responses_server_error = %d, want 1", got)
	}

	// A panic after the handler has already written must not try to
	// write a second header; the first status wins.
	api.mux.HandleFunc("GET /v1/boom2", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusTeapot)
		panic("late kaboom")
	})
	rec = httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/boom2", nil))
	if rec.Code != http.StatusTeapot {
		t.Fatalf("late panic rewrote status: %d", rec.Code)
	}
}

func TestHealthzNodeIdentity(t *testing.T) {
	// Default deployment: one process, role "single", no worker table.
	_, api := testAPI(t, nil)
	var hz struct {
		Role    string                 `json:"role"`
		Node    string                 `json:"node"`
		Workers []cluster.WorkerHealth `json:"workers"`
	}
	get(t, api, "/v1/healthz", &hz)
	if hz.Role != "single" || hz.Node != "" || hz.Workers != nil {
		t.Fatalf("default healthz identity = %+v", hz)
	}

	// Coordinator: role, node id, and the per-worker merge state.
	_, api = testAPI(t, nil)
	api.WithNode("coordinator", "coord-1").WithCluster(func() []cluster.WorkerHealth {
		return []cluster.WorkerHealth{
			{ID: "worker-0", Shard: 0, LastMergeEpoch: 7, StalenessS: 0.25},
			{ID: "worker-1", Shard: 1, LastMergeEpoch: 5, StalenessS: 3.5, Lost: true},
		}
	})
	get(t, api, "/v1/healthz", &hz)
	if hz.Role != "coordinator" || hz.Node != "coord-1" {
		t.Fatalf("coordinator healthz identity = %+v", hz)
	}
	if len(hz.Workers) != 2 || hz.Workers[0].LastMergeEpoch != 7 || !hz.Workers[1].Lost {
		t.Fatalf("coordinator healthz workers = %+v", hz.Workers)
	}

	// Worker: role + id, no worker table.
	_, api = testAPI(t, nil)
	api.WithNode("worker", "worker-3")
	hz.Workers = nil // decode leaves absent fields untouched
	get(t, api, "/v1/healthz", &hz)
	if hz.Role != "worker" || hz.Node != "worker-3" || hz.Workers != nil {
		t.Fatalf("worker healthz identity = %+v", hz)
	}
}

func TestLineageSnapshotBacking(t *testing.T) {
	// /v1/lineage has one backing, a table function: the coordinator
	// passes its merged cluster table, a node its ledger's snapshot.
	// The table is read per request, and a later WithLineage replaces
	// an earlier one rather than competing with it.
	_, api := testAPI(t, nil)
	table := obs.LineageSnapshot{
		Stages: []obs.StageSnapshot{
			{Stage: "clean", Unit: "points", In: 10, Out: 8, Dropped: 2, Conserved: true},
			{Stage: "cluster", Unit: "workers", In: 3, Out: 2, Dropped: 1, Conserved: true},
		},
		Conserved: true,
	}
	ledger := obs.NewLineage(nil)
	calls := 0
	api.WithLineage(func() obs.LineageSnapshot { return ledger.Snapshot(10) }).
		WithLineage(func() obs.LineageSnapshot {
			calls++
			return table
		})
	var resp struct {
		Enabled bool                 `json:"enabled"`
		Lineage *obs.LineageSnapshot `json:"lineage"`
	}
	for i := 1; i <= 2; i++ {
		resp.Lineage = nil
		get(t, api, "/v1/lineage", &resp)
		if !resp.Enabled || resp.Lineage == nil {
			t.Fatalf("lineage backing disabled: %+v", resp)
		}
		if len(resp.Lineage.Stages) != 2 || resp.Lineage.Stages[1].Stage != "cluster" {
			t.Fatalf("lineage table not served: %+v", resp.Lineage)
		}
		if calls != i {
			t.Fatalf("request %d read the table %d times", i, calls)
		}
	}
}
