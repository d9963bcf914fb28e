//go:build !race

// The race detector makes sync.Pool drop items on purpose, so this
// file builds only without it.

package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/ingest"
)

// TestIngestPostReusesBodyReader: POST /v1/ingest reads bodies through
// pooled 64 KiB readers, so a 512-point binary POST allocates less than
// one such reader on average. The engine is closed first, so it drops
// every point as late and what a POST allocates is the handler's own.
func TestIngestPostReusesBodyReader(t *testing.T) {
	e, api := newIngestAPI(t)
	e.Close()
	var buf bytes.Buffer
	if err := ingest.WriteBinary(&buf, firehosePoints(ingestPipeline(t), ingestBatch)); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()
	postBody := func() {
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/ingest", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
		}
	}
	postBody() // fills the pool

	const posts = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range posts {
		postBody()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / posts
	t.Logf("%d bytes allocated per %d-point POST", per, ingestBatch)
	if per >= 64<<10 {
		t.Fatalf("a %d-point POST allocates %d bytes on average, want below the 64 KiB of one body reader", ingestBatch, per)
	}
}
