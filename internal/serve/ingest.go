package serve

import (
	"bufio"
	"io"
	"net/http"

	"repro/internal/ingest"
	"repro/internal/obs"
)

// The firehose side of the API: POST /v1/ingest accepts a stream of
// point events (NDJSON by default; the binary "TAXIPNTB" framing is
// sniffed from the first bytes of the body) and feeds them to the
// engine in batches, and POST /v1/ingest/close ends the stream —
// the watermark jumps to +infinity, every buffered trip flushes and
// the sink seals. Both reply with the shared error envelope on
// failure; neither participates in the ETag scheme (they mutate, so
// there is no epoch to cache against).

// ingestBatch is how many decoded points are pushed to the engine per
// lock acquisition; it amortises admission without letting a huge body
// buffer unboundedly before first feedback.
const ingestBatch = 512

// WithIngest attaches the streaming engine, registering the POST
// /v1/ingest and /v1/ingest/close endpoints; returns a for chaining.
// Safe to call only before serving.
func (a *API) WithIngest(e *ingest.Engine) *API {
	a.mux.HandleFunc("POST /v1/ingest", func(w http.ResponseWriter, r *http.Request) {
		a.met.requests["ingest"].Inc()
		a.handleIngest(w, r, e)
	})
	a.mux.HandleFunc("POST /v1/ingest/close", func(w http.ResponseWriter, _ *http.Request) {
		a.met.requests["ingestclose"].Inc()
		e.Close()
		a.writeJSON(w, map[string]any{"closed": true, "watermark_ms": e.Watermark()})
	})
	return a
}

// ingestResponse summarises what one POST /v1/ingest body did.
type ingestResponse struct {
	Received int `json:"received"`
	Admitted int `json:"admitted"`
	// Dropped counts rejected points by typed reason; omitted when all
	// points were admitted.
	Dropped map[obs.DropReason]int `json:"dropped,omitempty"`
	// WatermarkMs is the engine's low watermark after this body.
	WatermarkMs int64 `json:"watermark_ms"`
}

func (a *API) handleIngest(w http.ResponseWriter, r *http.Request, e *ingest.Engine) {
	br := bufio.NewReaderSize(r.Body, 1<<16)
	head, _ := br.Peek(8)

	// A body that pushes nothing still reports the current watermark.
	total := ingestResponse{WatermarkMs: e.Watermark()}
	push := func(batch []ingest.Point) {
		res := e.PushBatch(batch)
		total.Received += res.Received
		total.Admitted += res.Admitted
		total.WatermarkMs = res.WatermarkMs
		for reason, n := range res.Dropped {
			if total.Dropped == nil {
				total.Dropped = map[obs.DropReason]int{}
			}
			total.Dropped[reason] += n
		}
	}

	var decodeErr error
	batch := make([]ingest.Point, 0, ingestBatch)
	collect := func(p ingest.Point) error {
		batch = append(batch, p)
		if len(batch) == ingestBatch {
			push(batch)
			batch = batch[:0]
		}
		return nil
	}
	if ingest.SniffBinary(head) {
		var rd *ingest.BinaryReader
		rd, decodeErr = ingest.NewBinaryReader(br)
		for decodeErr == nil {
			p, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				decodeErr = err
				break
			}
			collect(p)
		}
	} else {
		decodeErr = ingest.DecodeNDJSON(br, collect)
	}
	if len(batch) > 0 {
		push(batch)
	}
	if decodeErr != nil {
		// Points decoded before the error were already admitted (the
		// stream is a firehose, not a transaction); say so.
		a.fail(w, http.StatusBadRequest, "%v (%d points accepted before the error)",
			decodeErr, total.Received)
		return
	}
	a.writeJSON(w, total)
}
