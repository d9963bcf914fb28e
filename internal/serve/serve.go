// Package serve is the serving layer's query side: an http.Handler
// answering grid, OD and travel-time queries over the sink's current
// snapshot. Every request is answered from one immutable epoch — the
// handler loads the snapshot pointer once and never touches shared
// mutable state, so readers scale with no locks and ingest is never
// blocked by queries. Responses carry the epoch both in the JSON body
// and as a strong ETag, so If-None-Match turns unchanged polls into
// 304s and a client can detect a torn multi-request view by comparing
// epochs.
//
// Endpoints (all GET, JSON):
//
//	/v1/snapshot           epoch, cars ingested/failed, complete flag
//	/v1/healthz            liveness: epoch age, sealed flag, ingest inflight
//	/v1/lineage            the run's drop-reason ledger (conservation-checked)
//	/v1/grid               per-cell speed stats; ?bbox=, ?min-points=
//	/v1/cells/{id}         one cell by its "cI.J" key
//	/v1/od                 the OD matrix (all directions)
//	/v1/od/{from}-{to}     one direction: travel-time quantiles + metrics
//	/v1/predict            OD travel-time prediction: ?from=x,y&to=x,y&t=hour
//	/v1/anomalies          current-vs-reference deviations (cells and ODs)
//
// Every request passes through a recovery + access-log middleware
// (ServeHTTP): a handler panic becomes a logged 500 instead of a
// silently reset connection, and each request emits one structured log
// line (method, path, status, bytes, duration, epoch) when a logger is
// attached with WithLogger.
package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/url"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/geo"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/roadnet"
	"repro/internal/sink"
)

// Source yields the current immutable snapshot; *sink.Sink implements
// it, and tests may substitute a fixed snapshot.
type Source interface {
	Snapshot() *sink.Snapshot
}

// API is the query handler. Construct with NewAPI; it is an
// http.Handler and may be mounted anywhere (the taxiflow binary mounts
// it under /v1/ next to the obs debug endpoints).
type API struct {
	src Source
	mux *http.ServeMux
	met apiMetrics

	// log receives one access-log line per request and one error line
	// per recovered panic (WithLogger; nil disables logging but not
	// panic recovery).
	log *slog.Logger
	// lineage backs /v1/lineage (WithLineage; nil reports disabled).
	lineage *obs.Lineage
	// lineageSnap overrides the ledger with a precomputed table
	// (WithLineageSnapshot) — the coordinator serves its merged
	// cluster lineage this way, since it holds snapshots from remote
	// workers rather than a live ledger.
	lineageSnap func() obs.LineageSnapshot
	// role/node identify this process in healthz (WithNode): "single"
	// (default), "worker" or "coordinator", plus the node id.
	role string
	node string
	// workers surfaces the coordinator's per-worker merge state in
	// healthz (WithCluster; nil omits the field).
	workers func() []cluster.WorkerHealth
	// predictor backs /v1/predict (WithPredictor; nil reports the
	// endpoint as unconfigured).
	predictor *predict.Predictor
	// anomalies backs /v1/anomalies (WithAnomalies; nil reports the
	// endpoint as unconfigured).
	anomalies *predict.AnomalyDetector
	// inflight is the runner_inflight gauge from the shared registry —
	// how many cars ingest is working on right now, surfaced by healthz.
	inflight *obs.Gauge
	// reqID numbers requests for log correlation.
	reqID atomic.Uint64
}

type apiMetrics struct {
	requests    map[string]*obs.Counter // per endpoint
	notModified *obs.Counter
	badRequest  *obs.Counter
	notFound    *obs.Counter
	serverError *obs.Counter
	latency     *obs.Histogram
}

// NewAPI builds the handler over src and registers its metrics
// (serve_*) with reg; nil reg disables instrumentation.
func NewAPI(src Source, reg *obs.Registry) *API {
	a := &API{
		src: src,
		mux: http.NewServeMux(),
		met: apiMetrics{
			requests: map[string]*obs.Counter{
				"snapshot":    reg.Counter("serve_requests_snapshot"),
				"healthz":     reg.Counter("serve_requests_healthz"),
				"lineage":     reg.Counter("serve_requests_lineage"),
				"grid":        reg.Counter("serve_requests_grid"),
				"cell":        reg.Counter("serve_requests_cell"),
				"od":          reg.Counter("serve_requests_od"),
				"odpair":      reg.Counter("serve_requests_odpair"),
				"ingest":      reg.Counter("serve_requests_ingest"),
				"ingestclose": reg.Counter("serve_requests_ingest_close"),
				"predict":     reg.Counter("serve_requests_predict"),
				"anomalies":   reg.Counter("serve_requests_anomalies"),
			},
			notModified: reg.Counter("serve_responses_not_modified"),
			badRequest:  reg.Counter("serve_responses_bad_request"),
			notFound:    reg.Counter("serve_responses_not_found"),
			serverError: reg.Counter("serve_responses_server_error"),
			latency:     reg.Histogram("serve_request_seconds"),
		},
		inflight: reg.Gauge("runner_inflight"),
	}
	reg.GaugeFunc("serve_snapshot_epoch", func() float64 {
		return float64(src.Snapshot().Epoch)
	})
	reg.GaugeFunc("serve_snapshot_age_seconds", func() float64 {
		return time.Since(src.Snapshot().PublishedAt).Seconds()
	})
	reg.GaugeFunc("serve_snapshot_cars", func() float64 {
		return float64(src.Snapshot().CarsIngested)
	})
	a.mux.HandleFunc("GET /v1/snapshot", a.wrap("snapshot", a.handleSnapshot))
	a.mux.HandleFunc("GET /v1/healthz", a.wrap("healthz", a.handleHealthz))
	a.mux.HandleFunc("GET /v1/lineage", a.wrap("lineage", a.handleLineage))
	a.mux.HandleFunc("GET /v1/grid", a.wrap("grid", a.handleGrid))
	a.mux.HandleFunc("GET /v1/cells/{id}", a.wrap("cell", a.handleCell))
	a.mux.HandleFunc("GET /v1/od", a.wrap("od", a.handleOD))
	a.mux.HandleFunc("GET /v1/od/{pair}", a.wrap("odpair", a.handleODPair))
	a.mux.HandleFunc("GET /v1/predict", a.wrap("predict", a.handlePredict))
	a.mux.HandleFunc("GET /v1/anomalies", a.wrap("anomalies", a.handleAnomalies))
	return a
}

// WithLogger attaches a structured logger for access logs and panic
// reports; returns a for chaining. Safe to call only before serving.
func (a *API) WithLogger(log *slog.Logger) *API {
	a.log = log
	return a
}

// WithLineage attaches the run's lineage ledger, backing /v1/lineage;
// returns a for chaining. Safe to call only before serving.
func (a *API) WithLineage(l *obs.Lineage) *API {
	a.lineage = l
	return a
}

// WithLineageSnapshot backs /v1/lineage with a precomputed table
// instead of a live ledger — the coordinator's merged cluster lineage.
// Takes precedence over WithLineage. Safe to call only before serving.
func (a *API) WithLineageSnapshot(fn func() obs.LineageSnapshot) *API {
	a.lineageSnap = fn
	return a
}

// WithNode identifies this process in healthz: role is "single",
// "worker" or "coordinator", id the node name. Safe to call only
// before serving.
func (a *API) WithNode(role, id string) *API {
	a.role = role
	a.node = id
	return a
}

// WithPredictor attaches the travel-time predictor, backing
// /v1/predict; returns a for chaining. Safe to call only before
// serving.
func (a *API) WithPredictor(p *predict.Predictor) *API {
	a.predictor = p
	return a
}

// WithAnomalies attaches the anomaly detector, backing /v1/anomalies;
// returns a for chaining. Safe to call only before serving.
func (a *API) WithAnomalies(d *predict.AnomalyDetector) *API {
	a.anomalies = d
	return a
}

// WithCluster surfaces the coordinator's per-worker merge state
// (last-merge epoch, staleness, loss/drain flags) in healthz. Safe to
// call only before serving.
func (a *API) WithCluster(workers func() []cluster.WorkerHealth) *API {
	a.workers = workers
	return a
}

// statusWriter records the status code and body size a handler wrote,
// for the access log and the panic recovery (which must not write a
// second header onto a response that already has one).
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

// ServeHTTP dispatches to the API's endpoints through the recovery and
// access-log middleware: a panicking handler yields a logged 500 (when
// nothing has been written yet) rather than an empty reply, and every
// request emits one structured line when a logger is attached.
func (a *API) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	id := a.reqID.Add(1)
	sw := &statusWriter{ResponseWriter: w}
	defer func() {
		if rec := recover(); rec != nil {
			a.met.serverError.Inc()
			if sw.status == 0 {
				sw.Header().Set("Content-Type", "application/json; charset=utf-8")
				sw.WriteHeader(http.StatusInternalServerError)
				json.NewEncoder(sw).Encode(errorBody{Error: errorDetail{
					Code:    errorCode(http.StatusInternalServerError),
					Message: "internal server error",
				}})
			}
			if a.log != nil {
				a.log.Error("handler panicked",
					slog.Uint64("req", id),
					slog.String("method", r.Method),
					slog.String("path", r.URL.Path),
					slog.String("panic", fmt.Sprint(rec)),
					slog.String("stack", string(debug.Stack())))
			}
		}
		if a.log != nil {
			status := sw.status
			if status == 0 {
				status = http.StatusOK // handler wrote nothing: net/http defaults to 200
			}
			a.log.Info("request",
				slog.Uint64("req", id),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", status),
				slog.Int("bytes", sw.bytes),
				slog.Duration("duration", time.Since(start)),
				slog.Uint64("epoch", a.src.Snapshot().Epoch))
		}
	}()
	a.mux.ServeHTTP(sw, r)
}

// handlerFunc answers one request against the snapshot it was handed —
// the single epoch the whole response is built from.
type handlerFunc func(w http.ResponseWriter, r *http.Request, snap *sink.Snapshot)

// wrap applies the per-request envelope: metrics, the one atomic
// snapshot load, and the epoch ETag (If-None-Match short-circuits to
// 304 before any marshalling work).
func (a *API) wrap(name string, h handlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		a.met.requests[name].Inc()
		defer func() { a.met.latency.Observe(time.Since(start).Seconds()) }()

		snap := a.src.Snapshot()
		etag := fmt.Sprintf("\"v%d\"", snap.Epoch)
		w.Header().Set("ETag", etag)
		if match := r.Header.Get("If-None-Match"); match != "" && ifNoneMatch(match, etag) {
			a.met.notModified.Inc()
			w.WriteHeader(http.StatusNotModified)
			return
		}
		h(w, r, snap)
	}
}

// ifNoneMatch implements the header's list form ("v1", "v2", or *).
func ifNoneMatch(header, etag string) bool {
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		part = strings.TrimPrefix(part, "W/")
		if part == "*" || part == etag {
			return true
		}
	}
	return false
}

// writeJSON answers with v's JSON encoding. v is encoded in full before
// anything is written, so a value that cannot be encoded (a NaN or
// infinite float) answers the 500 error envelope, not a 200 with an
// empty body.
func (a *API) writeJSON(w http.ResponseWriter, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		a.fail(w, http.StatusInternalServerError, "encode response: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Write(buf.Bytes())
}

// errorBody is the uniform error envelope every /v1 endpoint returns:
// a machine-readable code slug alongside the human-readable message.
type errorBody struct {
	Error errorDetail `json:"error"`
}

type errorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// errorCode maps an HTTP status to its envelope code slug.
func errorCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusInternalServerError:
		return "internal"
	default:
		return strings.ReplaceAll(strings.ToLower(http.StatusText(status)), " ", "_")
	}
}

func (a *API) fail(w http.ResponseWriter, code int, format string, args ...any) {
	switch code {
	case http.StatusBadRequest:
		a.met.badRequest.Inc()
	case http.StatusNotFound:
		a.met.notFound.Inc()
	case http.StatusInternalServerError:
		a.met.serverError.Inc()
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorBody{Error: errorDetail{
		Code:    errorCode(code),
		Message: fmt.Sprintf(format, args...),
	}})
}

// --- /v1/snapshot -----------------------------------------------------------

type snapshotResponse struct {
	Epoch        uint64  `json:"epoch"`
	Complete     bool    `json:"complete"`
	CarsIngested int     `json:"cars_ingested"`
	CarsFailed   int     `json:"cars_failed"`
	Points       int     `json:"points"`
	Cells        int     `json:"cells"`
	Directions   int     `json:"directions"`
	PublishedAt  string  `json:"published_at"`
	AgeSeconds   float64 `json:"age_seconds"`
}

func (a *API) handleSnapshot(w http.ResponseWriter, _ *http.Request, snap *sink.Snapshot) {
	a.writeJSON(w, snapshotResponse{
		Epoch:        snap.Epoch,
		Complete:     snap.Complete,
		CarsIngested: snap.CarsIngested,
		CarsFailed:   snap.CarsFailed,
		Points:       snap.Points,
		Cells:        len(snap.Cells),
		Directions:   len(snap.OD),
		PublishedAt:  snap.PublishedAt.UTC().Format(time.RFC3339Nano),
		AgeSeconds:   time.Since(snap.PublishedAt).Seconds(),
	})
}

// --- /v1/healthz ------------------------------------------------------------

type healthzResponse struct {
	Status string `json:"status"`
	// Role is this node's place in the topology: "single" (the
	// default one-process deployment), "worker" or "coordinator".
	Role           string  `json:"role"`
	Node           string  `json:"node,omitempty"`
	Epoch          uint64  `json:"epoch"`
	AgeSeconds     float64 `json:"age_seconds"`
	Sealed         bool    `json:"sealed"`
	IngestInflight int64   `json:"ingest_inflight"`
	CarsIngested   int     `json:"cars_ingested"`
	CarsFailed     int     `json:"cars_failed"`
	// Workers is the coordinator's per-worker merge state: last-merge
	// epoch and heartbeat staleness per registered worker (coordinator
	// role only).
	Workers []cluster.WorkerHealth `json:"workers,omitempty"`
}

// handleHealthz answers the liveness probe: how stale the served epoch
// is, whether the run has sealed, and how many cars ingest is still
// working on. Always 200 — reachability is the health signal; the body
// carries the freshness details a poller alerts on.
func (a *API) handleHealthz(w http.ResponseWriter, _ *http.Request, snap *sink.Snapshot) {
	resp := healthzResponse{
		Status:         "ok",
		Role:           a.role,
		Node:           a.node,
		Epoch:          snap.Epoch,
		AgeSeconds:     time.Since(snap.PublishedAt).Seconds(),
		Sealed:         snap.Complete,
		IngestInflight: a.inflight.Value(),
		CarsIngested:   snap.CarsIngested,
		CarsFailed:     snap.CarsFailed,
	}
	if resp.Role == "" {
		resp.Role = "single"
	}
	if a.workers != nil {
		resp.Workers = a.workers()
	}
	a.writeJSON(w, resp)
}

// --- /v1/lineage ------------------------------------------------------------

type lineageResponse struct {
	Epoch   uint64 `json:"epoch"`
	Enabled bool   `json:"enabled"`
	// Lineage is the drop-reason ledger (in = out + Σ dropped per
	// stage); omitted when no ledger is attached.
	Lineage *obs.LineageSnapshot `json:"lineage,omitempty"`
}

func (a *API) handleLineage(w http.ResponseWriter, _ *http.Request, snap *sink.Snapshot) {
	resp := lineageResponse{Epoch: snap.Epoch}
	switch {
	case a.lineageSnap != nil:
		ls := a.lineageSnap()
		resp.Enabled = true
		resp.Lineage = &ls
	case a.lineage != nil:
		ls := a.lineage.Snapshot(10)
		resp.Enabled = true
		resp.Lineage = &ls
	}
	a.writeJSON(w, resp)
}

// --- /v1/grid and /v1/cells/{id} --------------------------------------------

type cellResponse struct {
	ID string `json:"id"`
	I  int    `json:"i"`
	J  int    `json:"j"`
	// Rect is the cell's rectangle [minx, miny, maxx, maxy] in
	// projected metres.
	Rect [4]float64 `json:"rect"`
	sink.CellStats
}

type gridResponse struct {
	Epoch    uint64         `json:"epoch"`
	Complete bool           `json:"complete"`
	CellM    float64        `json:"cell_m"`
	Cells    []cellResponse `json:"cells"`
}

func newCellResponse(g *grid.Grid, id grid.CellID, cs sink.CellStats) cellResponse {
	r := g.CellRect(id)
	return cellResponse{
		ID: id.String(), I: id.I, J: id.J,
		Rect:      [4]float64{r.MinX, r.MinY, r.MaxX, r.MaxY},
		CellStats: cs,
	}
}

func (a *API) handleGrid(w http.ResponseWriter, r *http.Request, snap *sink.Snapshot) {
	gq, err := parseQuery(r.URL.Query())
	if err != nil {
		a.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	minPoints, bbox := gq.minPoints, gq.bbox
	resp := gridResponse{
		Epoch:    snap.Epoch,
		Complete: snap.Complete,
		CellM:    snap.Grid.CellM,
		Cells:    []cellResponse{},
	}
	for _, id := range snap.CellIDs() {
		cs := snap.Cells[id]
		if cs.N < minPoints {
			continue
		}
		if bbox != nil && !bbox.Intersects(snap.Grid.CellRect(id)) {
			continue
		}
		resp.Cells = append(resp.Cells, newCellResponse(snap.Grid, id, cs))
	}
	a.writeJSON(w, resp)
}

// gridQuery is the validated filter set shared by the grid endpoints.
type gridQuery struct {
	minPoints int
	bbox      *geo.Rect // nil: no spatial filter
}

// parseQuery validates the common query parameters (min-points, bbox)
// of the grid endpoints. It is the single untrusted-input funnel for
// those filters and is fuzz-covered (FuzzQueryParsing).
func parseQuery(q url.Values) (gridQuery, error) {
	var gq gridQuery
	if v := q.Get("min-points"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return gridQuery{}, fmt.Errorf("bad min-points %q", v)
		}
		gq.minPoints = n
	}
	if v := q.Get("bbox"); v != "" {
		b, err := parseBBox(v)
		if err != nil {
			return gridQuery{}, err
		}
		gq.bbox = &b
	}
	return gq, nil
}

// parseBBox parses "minx,miny,maxx,maxy".
func parseBBox(s string) (geo.Rect, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return geo.Rect{}, fmt.Errorf("bad bbox %q (want minx,miny,maxx,maxy)", s)
	}
	var v [4]float64
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return geo.Rect{}, fmt.Errorf("bad bbox %q: %v", s, err)
		}
		v[i] = f
	}
	r := geo.R(v[0], v[1], v[2], v[3])
	if r.IsEmpty() {
		return geo.Rect{}, fmt.Errorf("bad bbox %q (empty)", s)
	}
	return r, nil
}

type oneCellResponse struct {
	Epoch    uint64 `json:"epoch"`
	Complete bool   `json:"complete"`
	cellResponse
}

func (a *API) handleCell(w http.ResponseWriter, r *http.Request, snap *sink.Snapshot) {
	id, err := grid.ParseCellID(r.PathValue("id"))
	if err != nil {
		a.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	cs, ok := snap.Cells[id]
	if !ok {
		a.fail(w, http.StatusNotFound, "cell %s has no data at epoch %d", id, snap.Epoch)
		return
	}
	a.writeJSON(w, oneCellResponse{
		Epoch:        snap.Epoch,
		Complete:     snap.Complete,
		cellResponse: newCellResponse(snap.Grid, id, cs),
	})
}

// --- /v1/od and /v1/od/{from}-{to} ------------------------------------------

type odEntry struct {
	Direction string           `json:"direction"`
	From      string           `json:"from"`
	To        string           `json:"to"`
	Trips     int              `json:"trips"`
	TravelS   travelTimeStats  `json:"travel_time_s"`
	DistKm    sink.MetricStats `json:"dist_km"`
	FuelMl    sink.MetricStats `json:"fuel_ml"`
	LowPct    sink.MetricStats `json:"low_speed_pct"`
	NormalPct sink.MetricStats `json:"normal_speed_pct"`
	Attrs     sink.AttrTotals  `json:"attrs"`
}

// travelTimeStats summarises a direction's travel-time distribution.
// Quantiles are pointers so they can be omitted entirely below two
// samples: an empty histogram has no quantiles at all (the earlier
// NaN→0 coercion rendered them as an impossible 0 s), and a single
// observation defines no distribution — reporting its value as
// p10==p50==p99 read as false precision. Count, mean and max remain the
// honest summary at n < 2.
type travelTimeStats struct {
	N    uint64   `json:"n"`
	Mean float64  `json:"mean"`
	Max  float64  `json:"max"`
	P10  *float64 `json:"p10,omitempty"`
	P25  *float64 `json:"p25,omitempty"`
	P50  *float64 `json:"p50,omitempty"`
	P75  *float64 `json:"p75,omitempty"`
	P90  *float64 `json:"p90,omitempty"`
	P99  *float64 `json:"p99,omitempty"`
}

func newODEntry(dir sink.ODKey, od sink.ODStats) odEntry {
	h := od.TravelTimeS
	ts := travelTimeStats{N: h.Count(), Mean: h.Mean(), Max: h.Max()}
	if ts.N >= 2 {
		q := func(p float64) *float64 {
			v := h.Quantile(p)
			if math.IsNaN(v) {
				v = 0
			}
			return &v
		}
		ts.P10, ts.P25, ts.P50 = q(0.10), q(0.25), q(0.50)
		ts.P75, ts.P90, ts.P99 = q(0.75), q(0.90), q(0.99)
	}
	return odEntry{
		Direction: dir.String(),
		From:      od.From,
		To:        od.To,
		Trips:     od.Trips,
		TravelS:   ts,
		DistKm:    od.DistKm,
		FuelMl:    od.FuelMl,
		LowPct:    od.LowSpeedPct,
		NormalPct: od.NormalSpeedPct,
		Attrs:     od.Attrs,
	}
}

type odMatrixResponse struct {
	Epoch      uint64    `json:"epoch"`
	Complete   bool      `json:"complete"`
	Directions []odEntry `json:"directions"`
}

func (a *API) handleOD(w http.ResponseWriter, _ *http.Request, snap *sink.Snapshot) {
	resp := odMatrixResponse{Epoch: snap.Epoch, Complete: snap.Complete, Directions: []odEntry{}}
	for _, dir := range snap.Directions() {
		resp.Directions = append(resp.Directions, newODEntry(dir, snap.OD[dir]))
	}
	a.writeJSON(w, resp)
}

type odPairResponse struct {
	Epoch    uint64 `json:"epoch"`
	Complete bool   `json:"complete"`
	odEntry
}

func (a *API) handleODPair(w http.ResponseWriter, r *http.Request, snap *sink.Snapshot) {
	key, err := parseODPair(r.PathValue("pair"), snap)
	if err != nil {
		a.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	od, ok := snap.OD[key]
	if !ok {
		a.fail(w, http.StatusNotFound, "no trips for direction %s at epoch %d", key, snap.Epoch)
		return
	}
	a.writeJSON(w, odPairResponse{
		Epoch:    snap.Epoch,
		Complete: snap.Complete,
		odEntry:  newODEntry(key, od),
	})
}

// parseODPair resolves a "{from}-{to}" path segment against the
// snapshot's registered gates. The '-' separator may also occur inside
// gate names, making a naive split ambiguous; when the gate set is
// known we try every split position and accept the one whose both
// sides are registered gates, otherwise we split on the LAST separator
// (gate names extend more naturally on the left: "T-north"-"S" renders
// as "T-north-S"). Unknown gate names are a 400, not a 404: the
// request is malformed regardless of which directions hold data.
func parseODPair(pair string, snap *sink.Snapshot) (sink.ODKey, error) {
	if len(snap.Gates) > 0 {
		var hit []sink.ODKey
		for i := strings.IndexByte(pair, '-'); i >= 0; {
			from, to := pair[:i], pair[i+1:]
			if from != "" && to != "" && snap.HasGate(from) && snap.HasGate(to) {
				hit = append(hit, sink.ODKey{From: from, To: to})
			}
			next := strings.IndexByte(pair[i+1:], '-')
			if next < 0 {
				break
			}
			i += 1 + next
		}
		switch len(hit) {
		case 1:
			return hit[0], nil
		case 0:
			return sink.ODKey{}, fmt.Errorf("bad direction %q: gates must be registered (known: %s)",
				pair, strings.Join(snap.Gates, ", "))
		default:
			// Pathological gate sets (e.g. "A", "B", "A-B") can make two
			// splits valid; refuse rather than guess.
			return sink.ODKey{}, fmt.Errorf("ambiguous direction %q: %d gate splits match", pair, len(hit))
		}
	}
	i := strings.LastIndexByte(pair, '-')
	if i <= 0 || i == len(pair)-1 {
		return sink.ODKey{}, fmt.Errorf("bad direction %q (want FROM-TO, e.g. T-S)", pair)
	}
	return sink.ODKey{From: pair[:i], To: pair[i+1:]}, nil
}

// --- /v1/predict ------------------------------------------------------------

type predictResponse struct {
	Epoch    uint64 `json:"epoch"`
	Complete bool   `json:"complete"`
	// TravelS is the predicted travel time over learned edge costs;
	// FreeFlowS the same route at free flow.
	TravelS    float64 `json:"travel_s"`
	FreeFlowS  float64 `json:"free_flow_s"`
	DistanceKm float64 `json:"distance_km"`
	// Edges / ObservedEdges expose the route's profile coverage: how
	// many of its edges had learned paces at this epoch.
	Edges         int     `json:"edges"`
	ObservedEdges int     `json:"observed_edges"`
	GlobalRatio   float64 `json:"global_ratio"`
	// Hour is the scored hour bucket; -1 is the all-day profile.
	Hour int `json:"hour"`
}

// parseXY parses a "x,y" projected-metres coordinate pair.
func parseXY(name, s string) (geo.XY, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return geo.XY{}, fmt.Errorf("bad %s %q (want x,y in projected metres)", name, s)
	}
	x, err1 := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
	y, err2 := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	if err1 != nil || err2 != nil || math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
		return geo.XY{}, fmt.Errorf("bad %s %q (want x,y in projected metres)", name, s)
	}
	return geo.V(x, y), nil
}

// parseHour parses the optional t parameter: a bare hour 0-23, or an
// RFC 3339 timestamp whose UTC hour is used. Empty means the all-day
// profile (-1).
func parseHour(s string) (int, error) {
	if s == "" {
		return -1, nil
	}
	if n, err := strconv.Atoi(s); err == nil {
		if n < 0 || n > 23 {
			return 0, fmt.Errorf("bad t %q (hour must be 0..23)", s)
		}
		return n, nil
	}
	if ts, err := time.Parse(time.RFC3339, s); err == nil {
		return ts.UTC().Hour(), nil
	}
	return 0, fmt.Errorf("bad t %q (want an hour 0..23 or an RFC 3339 timestamp)", s)
}

func (a *API) handlePredict(w http.ResponseWriter, r *http.Request, snap *sink.Snapshot) {
	if a.predictor == nil {
		a.fail(w, http.StatusNotImplemented, "prediction is not configured on this node")
		return
	}
	q := r.URL.Query()
	from, err := parseXY("from", q.Get("from"))
	if err != nil {
		a.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	to, err := parseXY("to", q.Get("to"))
	if err != nil {
		a.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	hour, err := parseHour(q.Get("t"))
	if err != nil {
		a.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	pred, err := a.predictor.Predict(snap, from, to, hour)
	if err != nil {
		if errors.Is(err, roadnet.ErrNoPath) {
			a.fail(w, http.StatusNotFound, "no route from %s to %s", q.Get("from"), q.Get("to"))
			return
		}
		a.fail(w, http.StatusInternalServerError, "%v", err)
		return
	}
	a.writeJSON(w, predictResponse{
		Epoch:         snap.Epoch,
		Complete:      snap.Complete,
		TravelS:       pred.TravelS,
		FreeFlowS:     pred.FreeFlowS,
		DistanceKm:    pred.DistanceKm,
		Edges:         pred.Edges,
		ObservedEdges: pred.ObservedEdges,
		GlobalRatio:   pred.GlobalRatio,
		Hour:          pred.Hour,
	})
}

// --- /v1/anomalies ----------------------------------------------------------

type cellAnomalyResponse struct {
	ID           string  `json:"id"`
	I            int     `json:"i"`
	J            int     `json:"j"`
	CurrentKmh   float64 `json:"current_kmh"`
	ReferenceKmh float64 `json:"reference_kmh"`
	Z            float64 `json:"z"`
	N            int     `json:"n"`
}

type odAnomalyResponse struct {
	Direction       string  `json:"direction"`
	From            string  `json:"from"`
	To              string  `json:"to"`
	CurrentSPerKm   float64 `json:"current_s_per_km"`
	ReferenceSPerKm float64 `json:"reference_s_per_km"`
	Z               float64 `json:"z"`
	Trips           int     `json:"trips"`
}

type anomaliesResponse struct {
	Epoch    uint64 `json:"epoch"`
	Complete bool   `json:"complete"`
	// RefEpochs is how many epochs back the rolling reference; below
	// the detector's minimum nothing is flagged yet (cold start).
	RefEpochs   int                   `json:"ref_epochs"`
	CellsScored int                   `json:"cells_scored"`
	ODsScored   int                   `json:"ods_scored"`
	Cells       []cellAnomalyResponse `json:"cells"`
	ODs         []odAnomalyResponse   `json:"ods"`
}

func (a *API) handleAnomalies(w http.ResponseWriter, _ *http.Request, snap *sink.Snapshot) {
	if a.anomalies == nil {
		a.fail(w, http.StatusNotImplemented, "anomaly detection is not configured on this node")
		return
	}
	rep := a.anomalies.Report(snap)
	resp := anomaliesResponse{
		Epoch:       rep.Epoch,
		Complete:    snap.Complete,
		RefEpochs:   rep.RefEpochs,
		CellsScored: rep.CellsScored,
		ODsScored:   rep.ODsScored,
		Cells:       []cellAnomalyResponse{},
		ODs:         []odAnomalyResponse{},
	}
	for _, c := range rep.Cells {
		resp.Cells = append(resp.Cells, cellAnomalyResponse{
			ID: c.Cell.String(), I: c.Cell.I, J: c.Cell.J,
			CurrentKmh: c.CurrentKmh, ReferenceKmh: c.ReferenceKmh,
			Z: c.Z, N: c.N,
		})
	}
	for _, o := range rep.ODs {
		resp.ODs = append(resp.ODs, odAnomalyResponse{
			Direction: o.Dir.String(), From: o.Dir.From, To: o.Dir.To,
			CurrentSPerKm: o.CurrentSPerKm, ReferenceSPerKm: o.ReferenceSPerKm,
			Z: o.Z, Trips: o.Trips,
		})
	}
	a.writeJSON(w, resp)
}

// Mount attaches the API (under /v1/) to an existing mux — typically
// the obs debug mux, so one listener serves queries, metrics and pprof.
func Mount(mux *http.ServeMux, a *API) {
	mux.Handle("/v1/", a)
}
