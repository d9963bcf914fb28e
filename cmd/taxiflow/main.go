// Command taxiflow runs the full pipeline end to end — synthetic city,
// simulated fleet, cleaning, segmentation, OD selection, map-matching,
// attribute fetching, grid aggregation and mixed-model fitting — and
// prints a stage-by-stage account of what happened to the data.
//
// Usage:
//
//	taxiflow [-cars N] [-trips N] [-seed N] [-gatefrac F] [-v]
//	         [-workers N] [-max-failures N] [-retries N]
//	         [-metrics out.json] [-debug-addr :6060] [-serve-addr :8080]
//	         [-report report.json] [-trace-out trace.json] [-trace-sample F]
//	         [-log-level info] [-log-format text|json]
//
// The fleet runs on the fault-tolerant runner: per-car failures are
// isolated and summarised in a failed-car table instead of aborting
// the run, -max-failures bounds the error budget, -workers bounds the
// worker pool, and Ctrl-C cancels the run promptly while keeping the
// results already computed.
//
// Every run is instrumented through internal/obs: per-stage timings are
// printed in the end-of-run summary, -metrics writes the full JSON
// snapshot, and -debug-addr serves /metrics (Prometheus text format),
// /debug/vars (JSON) and /debug/pprof/ (live profiling) for the
// duration of the run.
//
// Observability of the data itself: every run keeps a drop-reason
// ledger (the lineage table printed in the summary, the one account of
// what each stage kept and dropped; in = out + Σ dropped per stage,
// conservation-checked), -report writes it as a validated JSON run
// report (see cmd/lineagecheck), -trace-out records per-car span trees
// and exports Chrome trace_event JSON loadable in Perfetto,
// -trace-sample traces a deterministic fraction of cars, and
// -log-level/-log-format stream structured logs (log/slog) to stderr.
//
// -serve-addr additionally mounts the serving layer (internal/sink +
// internal/serve): cars stream into an incremental aggregation as they
// complete, and GET /v1/snapshot, /v1/grid, /v1/cells/{id}, /v1/od and
// /v1/od/{from}-{to} answer with epoch-consistent JSON — during the
// run (partial fleet) and after it (sealed final snapshot, identical
// to the batch aggregation). GET /v1/predict?from=x,y&to=x,y&t=H
// routes over the learned per-edge travel-time profiles (-predict-k
// tunes the shrinkage prior) and GET /v1/anomalies z-scores the
// current epoch against a rolling reference (-anomaly-alpha,
// -anomaly-z). With -serve-addr the process keeps serving after the
// summary until interrupted.
//
// Cluster mode (internal/cluster) splits the fleet across processes:
// -cluster-coordinator serves the merged /v1 view and the worker
// control endpoints on -serve-addr, while -cluster-worker N runs shard
// N's slice of the fleet (hash(car) mod -cluster-shards) and reports to
// -cluster-coord. The merged sealed snapshot is value-identical to a
// single-node run over the same flags.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"math"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/render"
	"repro/internal/report"
	"repro/internal/serve"
	"repro/internal/sink"
	"repro/internal/trace"
	"repro/internal/tracegen"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("taxiflow: ")
	cars := flag.Int("cars", 4, "number of simulated taxis")
	trips := flag.Int("trips", 60, "engine-on trips per taxi")
	seed := flag.Int64("seed", 42, "master random seed")
	gateFrac := flag.Float64("gatefrac", 0.25, "share of runs between OD gates")
	workers := flag.Int("workers", 0, "fleet runner worker pool size (0 = GOMAXPROCS)")
	maxFailures := flag.Int("max-failures", 0, "error budget: failed cars tolerated before aborting (0 = unlimited, -1 = abort on first)")
	retries := flag.Int("retries", 1, "per-car attempts for retryable errors")
	tracesIn := flag.String("traces", "", "optional route-point trace file (CSV or binary, from cmd/tracegen; format sniffed) to process instead of simulating; must match -seed")
	svgOut := flag.String("svg", "", "optional SVG output: the accepted transitions' speed map")
	metricsOut := flag.String("metrics", "", "optional JSON metrics snapshot written at exit")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :6060, :0 for ephemeral)")
	serveAddr := flag.String("serve-addr", "", "serve the /v1 query API (plus the debug surface) on this address and keep serving after the run until interrupted")
	ingestAddr := flag.String("ingest-addr", "", "event-time streaming mode: accept a point firehose on POST /v1/ingest (plus the /v1 query API) on this address instead of running the batch fleet; Ctrl-C to exit")
	clusterCoordinator := flag.Bool("cluster-coordinator", false, "cluster mode: merge worker partials and serve the global /v1 view on -serve-addr instead of running a pipeline")
	clusterWorker := flag.Int("cluster-worker", -1, "cluster mode: run this shard (0-based, < -cluster-shards) of the fleet and report to -cluster-coord")
	clusterShards := flag.Int("cluster-shards", 0, "cluster mode: number of shards the fleet is split into")
	clusterCoord := flag.String("cluster-coord", "", "cluster mode: coordinator base URL a worker registers with (e.g. http://127.0.0.1:8600)")
	nodeID := flag.String("node-id", "", "cluster mode: node name for registration and /v1/healthz (default coordinator / worker-<shard>)")
	lateness := flag.Duration("lateness", 30*time.Second, "with -ingest-addr: allowed event-time lateness (out-of-orderness bound)")
	idleTimeout := flag.Duration("idle-timeout", 10*time.Minute, "with -ingest-addr: event-time silence after which a car stops holding the watermark back")
	predictK := flag.Float64("predict-k", predict.DefaultShrinkK, "travel-time predictor shrinkage weight: thin edge profiles are pulled toward the fleet-wide pace ratio with this prior strength (negative = raw per-edge paces)")
	anomalyAlpha := flag.Float64("anomaly-alpha", 0, "anomaly detector EW reference smoothing factor in (0,1] (0 = package default)")
	anomalyZ := flag.Float64("anomaly-z", 0, "anomaly detector |z| flag threshold (0 = package default)")
	checkOn := flag.Bool("check", false, "validate pipeline invariants at every stage boundary (check_violations_total metrics)")
	checkStrict := flag.Bool("check-strict", false, "like -check, but an invariant violation fails the offending car")
	reportOut := flag.String("report", "", "write the run report (lineage table, stage timings, fleet summary) as JSON at exit")
	traceOut := flag.String("trace-out", "", "record per-car span trees and write them as Chrome trace_event JSON (Perfetto-loadable) at exit")
	traceSample := flag.Float64("trace-sample", 1.0, "fraction of cars to trace (deterministic per -seed)")
	logLevel := flag.String("log-level", "", "emit structured logs to stderr at this level (debug, info, warn, error; empty disables)")
	logFormat := flag.String("log-format", "text", "structured log encoding: text or json")
	verbose := flag.Bool("v", false, "print per-transition details")
	flag.Parse()

	logger, err := newLogger(*logLevel, *logFormat)
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	reg := obs.NewRegistry()
	if *debugAddr != "" {
		srv, err := obs.ServeDebug(*debugAddr, reg)
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		fmt.Printf("debug server: http://%s/metrics /debug/vars /debug/pprof/\n", srv.Addr)
	}

	if *clusterCoordinator && *clusterWorker >= 0 {
		log.Fatal("-cluster-coordinator and -cluster-worker are mutually exclusive")
	}

	// The lineage ledger always runs (its cost is a handful of atomic
	// adds per car); the tracer only when an export was requested.
	lin := taxitrace.NewLineage(reg)
	var tracer *taxitrace.Tracer
	if *traceOut != "" {
		tracer = taxitrace.NewTracer(taxitrace.TracerConfig{
			Capacity:       1 << 16,
			SampleFraction: *traceSample,
			Seed:           *seed,
		})
	}

	start := time.Now()
	p, err := taxitrace.New(taxitrace.Config{
		CitySeed: *seed,
		Fleet: tracegen.Config{
			Seed:            *seed,
			Cars:            *cars,
			TripsPerCar:     *trips,
			GateRunFraction: *gateFrac,
		},
		Workers:     *workers,
		MaxFailures: *maxFailures,
		MaxAttempts: *retries,
		Metrics:     reg,
		Tracer:      tracer,
		Lineage:     lin,
		Log:         logger,
		Check:       taxitrace.CheckConfig{Enabled: *checkOn, Strict: *checkStrict},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("city: %d traffic elements, %d point objects\n",
		p.City.DB.NumElements(), p.City.DB.NumObjects())
	fmt.Printf("network: %s\n", p.Graph.Stats())

	// Every serving mode mounts the prediction layer over the same
	// deterministic road network the pipeline (or, for the coordinator,
	// its workers) computed from -seed.
	serving := node{reg: reg, log: logger, check: taxitrace.CheckConfig{Enabled: *checkOn, Strict: *checkStrict}}
	serving.predictor = predict.NewPredictor(p.Graph, p.Router).WithMetrics(reg)
	serving.predictor.ShrinkK = *predictK
	serving.detector = predict.NewAnomalyDetector(predict.AnomalyConfig{
		Alpha: *anomalyAlpha, ZThreshold: *anomalyZ,
	}).WithMetrics(reg)

	// The coordinator never runs the fleet — workers do. It merges their
	// partial snapshots into the global serving view and answers the /v1
	// query API (prediction included) on it until interrupted.
	if *clusterCoordinator {
		if err := runClusterCoordinator(ctx, serving, *serveAddr, *clusterShards, *maxFailures, *nodeID); err != nil {
			log.Fatal(err)
		}
		return
	}

	// With -cluster-worker the process owns one shard of the fleet: it
	// runs the full pipeline over its hash-assigned cars, publishes
	// partial snapshots for the coordinator to pull, and exits once its
	// sealed epoch has been folded into the merged serving view.
	//
	// With -ingest-addr the process is a streaming server: points
	// arrive over HTTP (e.g. from tracegen -firehose), per-car state
	// machines clean and segment them online, and the watermark closes
	// trips into the sink — the batch fleet never runs.
	if *clusterWorker >= 0 || *ingestAddr != "" {
		if *clusterWorker >= 0 {
			err = runClusterWorker(ctx, p, serving, lin,
				*clusterWorker, *clusterShards, *cars, *clusterCoord, *serveAddr, *nodeID)
		} else {
			err = runIngestServer(ctx, p, serving, lin, *ingestAddr, *lateness, *idleTimeout)
		}
		if err != nil {
			log.Fatal(err)
		}
		printLineageTable(lin)
		if *metricsOut != "" {
			if err := writeMetrics(reg, *metricsOut); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("wrote %s\n", *metricsOut)
		}
		fmt.Printf("\ndone in %s\n", time.Since(start).Round(time.Millisecond))
		return
	}

	// With -serve-addr, completed cars stream into the incremental
	// aggregation sink and the query API answers on the same listener
	// as the debug surface — mid-run snapshots are partial but always
	// epoch-consistent.
	var snk *sink.Sink
	var apiSrv *obs.DebugServer
	if *serveAddr != "" {
		var stop func()
		if snk, err = serving.newSink(p); err == nil {
			apiSrv, stop, err = serving.serveAPI(reg.DebugMux(), snk, *serveAddr,
				func(a *serve.API) *serve.API { return a.WithLineage(lineageTable(lin)) })
		}
		if err != nil {
			log.Fatal(err)
		}
		defer stop()
		fmt.Printf("query API: http://%s/v1/snapshot /v1/healthz /v1/lineage /v1/grid /v1/od /v1/predict /v1/anomalies (+debug surface)\n", apiSrv.Addr)
	}

	var res *taxitrace.Result
	switch {
	case *tracesIn != "":
		res, err = processTraces(ctx, p, *tracesIn)
		if snk != nil && res != nil {
			snk.AbsorbResult(res)
		}
	case snk != nil:
		res, err = p.RunObserved(ctx, snk.AbsorbEvent)
	default:
		res, err = p.RunContext(ctx)
	}
	if snk != nil {
		final := snk.Seal()
		fmt.Printf("serving sealed snapshot: epoch %d, %d cars, %d cells, %d directions\n",
			final.Epoch, final.CarsIngested, len(final.Cells), len(final.OD))
		if cerr := snk.CheckErr(); cerr != nil {
			log.Printf("sink invariant violation: %v", cerr)
		}
	}
	if err != nil {
		printFailedCars(err)
		if len(res.Cars) == 0 {
			log.Fatal(err)
		}
		log.Printf("continuing with partial results: %d/%d cars", len(res.Cars), *cars)
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "car\traw trips\treordered\tsegments\tfiltered\ttransitions\tcentre\taccepted")
	for _, cr := range res.Cars {
		f := cr.Funnel
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			cr.Car, cr.RawTrips, cr.CleanStats.Reordered,
			f.TripSegments, f.Filtered, f.Transitions, f.WithinCentre, f.PostFiltered)
	}
	w.Flush()

	recs := res.Transitions()
	fmt.Printf("\naccepted transitions: %d, measured point speeds: %d\n",
		len(recs), len(taxitrace.PointSpeeds(recs)))
	if *verbose {
		for _, rec := range recs {
			fmt.Printf("  %s %s: %.2f km in %.1f min, low %.0f%%, normal %.0f%%, "+
				"%d lights, %d junctions, %.0f ml\n",
				rec.Transition.Key(), rec.Direction(), rec.RouteDistKm,
				rec.RouteTimeH*60, rec.LowSpeedPct, rec.NormalSpeedPct,
				rec.Attrs.TrafficLights, rec.Attrs.Junctions, rec.FuelMl)
			fmt.Printf("    segment: %s\n", trace.ComputeStats(rec.Transition.Seg))
		}
	}

	agg, lmm, err := p.GridAnalysis(recs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ngrid: %d non-empty %d m cells\n", agg.NumNonEmpty(), int(agg.Grid.CellM))
	fmt.Printf("mixed model: mu=%.2f km/h, sigma_a=%.2f, sigma=%.2f (REML over %d observations)\n",
		lmm.Mu, math.Sqrt(lmm.SigmaA2), math.Sqrt(lmm.Sigma2), lmm.NObs)
	blups := lmm.BLUPs()
	mn, mx := blups[0], blups[0]
	for _, v := range blups {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	fmt.Printf("cell intercepts (BLUP): %.2f .. %.2f km/h across %d cells\n", mn, mx, len(blups))

	if *svgOut != "" {
		if err := writeSpeedMap(p, recs, *svgOut); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *svgOut)
	}

	snap := reg.Snapshot()
	printStageTable(snap)
	printLineageTable(lin)
	printCacheStats(p)
	printRunnerStats(snap)

	if *metricsOut != "" {
		if err := writeMetrics(reg, *metricsOut); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *metricsOut)
	}
	if *reportOut != "" {
		rep := report.Build(reg, lin, report.Options{
			Params: map[string]string{
				"cars":     fmt.Sprint(*cars),
				"trips":    fmt.Sprint(*trips),
				"seed":     fmt.Sprint(*seed),
				"gatefrac": fmt.Sprint(*gateFrac),
				"workers":  fmt.Sprint(*workers),
				"retries":  fmt.Sprint(*retries),
			},
			Duration: time.Since(start),
		})
		if err := report.Validate(&rep); err != nil {
			log.Fatalf("run report failed validation: %v", err)
		}
		if err := report.WriteFile(*reportOut, &rep); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *reportOut)
	}
	if tracer != nil {
		if err := writeTrace(tracer, *traceOut); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d spans retained, %d overwritten)\n",
			*traceOut, tracer.Len(), tracer.Dropped())
	}
	fmt.Printf("\ndone in %s\n", time.Since(start).Round(time.Millisecond))

	if apiSrv != nil && ctx.Err() == nil {
		fmt.Printf("query API still serving on http://%s/v1/ — Ctrl-C to exit\n", apiSrv.Addr)
		<-ctx.Done()
	}
}

// printStageTable renders the per-stage timings of the run from the
// metrics snapshot; what each stage kept and dropped is the lineage
// table's.
func printStageTable(snap obs.Snapshot) {
	fmt.Printf("\nstage timings (per-stage spans across all cars):\n")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "stage\tcalls\ttotal\tp50\tp99")
	stages := append(append([]string{}, core.StageNames...), "lmm")
	for _, stage := range stages {
		h, ok := snap.Histograms["pipeline_"+stage+"_duration_seconds"]
		if !ok || h.Count == 0 {
			continue
		}
		fmt.Fprintf(w, "%s\t%d\t%s\t%s\t%s\n",
			stage, h.Count, fmtSeconds(h.Sum), fmtSeconds(h.P50), fmtSeconds(h.P99))
	}
	if h, ok := snap.Histograms["pipeline_car_duration_seconds"]; ok && h.Count > 0 {
		fmt.Fprintf(w, "per car\t%d\t%s\t%s\t%s\n",
			h.Count, fmtSeconds(h.Sum), fmtSeconds(h.P50), fmtSeconds(h.P99))
	}
	w.Flush()
}

// node is what every serving role shares: the registry whose debug
// surface each /v1 listener carries, the logger, the checker mode, and
// the prediction layer over the road network every role derives from
// -seed.
type node struct {
	reg       *obs.Registry
	log       *slog.Logger
	check     taxitrace.CheckConfig
	predictor *predict.Predictor
	detector  *predict.AnomalyDetector
}

// serveAPI mounts the /v1 query API over src on mux — the logger,
// predictor and anomaly detector every role serves, plus role's own
// options — and, when addr is set, serves mux there. The returned stop
// drains in-flight requests (bounded) rather than snapping their
// connections; it is a no-op when nothing listens.
func (n node) serveAPI(mux *http.ServeMux, src serve.Source, addr string,
	role func(*serve.API) *serve.API) (*obs.DebugServer, func(), error) {
	serve.Mount(mux, role(serve.NewAPI(src, n.reg).WithLogger(n.log).
		WithPredictor(n.predictor).WithAnomalies(n.detector)))
	if addr == "" {
		return nil, func() {}, nil
	}
	srv, err := obs.Serve(addr, mux)
	if err != nil {
		return nil, nil, err
	}
	return srv, func() {
		if err := srv.Shutdown(5 * time.Second); err != nil {
			log.Printf("shutdown of %s: %v", srv.Addr, err)
		}
	}, nil
}

// newSink builds the incremental aggregation sink the batch and ingest
// roles serve.
func (n node) newSink(p *taxitrace.Pipeline) (*sink.Sink, error) {
	g, err := sink.GridForPipeline(p)
	if err != nil {
		return nil, err
	}
	return sink.New(sink.Config{
		Grid:    g,
		Metrics: n.reg,
		Gates:   p.Selector.GateNames(),
		Check:   n.check,
		Log:     n.log,
	})
}

// runClusterCoordinator runs the process as the cluster's merge/serve
// node: workers register, heartbeat and publish partials against it,
// and the /v1 query API answers on the merged view. Run returns when
// the fleet seals (then the process keeps serving until interrupted)
// or when the worker-loss budget is spent.
func runClusterCoordinator(ctx context.Context, n node, addr string, shards, maxFailures int, nodeID string) error {
	if addr == "" {
		return errors.New("-cluster-coordinator requires -serve-addr")
	}
	if nodeID == "" {
		nodeID = "coordinator"
	}
	start := time.Now()
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
		NumShards:   shards,
		MaxFailures: maxFailures,
		Metrics:     n.reg,
		Log:         n.log,
	})
	if err != nil {
		return err
	}
	mux := n.reg.DebugMux()
	coord.RegisterHandlers(mux)
	srv, stop, err := n.serveAPI(mux, coord, addr, func(a *serve.API) *serve.API {
		return a.WithNode("coordinator", nodeID).
			WithCluster(coord.WorkerHealth).
			WithLineage(coord.LineageSnapshot)
	})
	if err != nil {
		return err
	}
	defer stop()
	fmt.Printf("cluster coordinator %s: %d shards, control endpoints at http://%s/v1/cluster/\n",
		nodeID, shards, srv.Addr)
	fmt.Printf("query API (merged view): http://%s/v1/snapshot /v1/healthz /v1/lineage /v1/grid /v1/od /v1/predict /v1/anomalies\n", srv.Addr)

	switch err := coord.Run(ctx); {
	case err == nil: // every shard sealed and merged
	case errors.Is(err, context.Canceled):
		log.Printf("coordinator interrupted before the fleet sealed")
		return nil
	case errors.Is(err, taxitrace.ErrBudgetExceeded):
		printLineageSnapshot(coord.LineageSnapshot())
		return fmt.Errorf("cluster aborted: %v", err)
	default:
		return err
	}
	snap := coord.Snapshot()
	fmt.Printf("serving sealed snapshot: epoch %d, %d cars, %d cells, %d directions\n",
		snap.Epoch, snap.CarsIngested, len(snap.Cells), len(snap.OD))
	printLineageSnapshot(coord.LineageSnapshot())
	fmt.Printf("\nfleet sealed in %s\n", time.Since(start).Round(time.Millisecond))
	if ctx.Err() == nil {
		fmt.Printf("query API still serving on http://%s/v1/ — Ctrl-C to exit\n", srv.Addr)
		<-ctx.Done()
	}
	return nil
}

// runClusterWorker runs the process as one shard of the cluster. The
// worker's own /v1 query API (its shard-local view) shares the
// listener with the partial endpoint the coordinator pulls.
func runClusterWorker(ctx context.Context, p *taxitrace.Pipeline, n node, lin *taxitrace.Lineage,
	shard, shards, cars int, coordURL, addr, id string) error {
	mux := n.reg.DebugMux()
	w, err := cluster.NewWorker(cluster.WorkerConfig{
		ID:          id,
		Shard:       shard,
		NumShards:   shards,
		Cars:        cars,
		Coordinator: coordURL,
		Addr:        addr,
		Pipeline:    p,
		Mux:         mux,
		Log:         n.log,
	})
	if err != nil {
		return err
	}
	// The worker serves mux itself, on addr, next to its partials.
	if _, _, err := n.serveAPI(mux, w, "", func(a *serve.API) *serve.API {
		return a.WithLineage(lineageTable(lin)).WithNode("worker", w.ID())
	}); err != nil {
		return err
	}
	fmt.Printf("cluster worker %s: shard %d/%d (%d of %d cars), coordinator %s\n",
		w.ID(), shard, shards, len(w.Cars()), cars, coordURL)
	if err := w.Run(ctx); err != nil {
		return err
	}
	final := w.Snapshot()
	fmt.Printf("shard sealed and merged by coordinator: epoch %d, %d cars, %d cells, %d directions\n",
		final.Epoch, final.CarsIngested, len(final.Cells), len(final.OD))
	return nil
}

// lineageTable backs /v1/lineage with a node's own ledger: its stage
// rows and its ten most lossy cars.
func lineageTable(lin *taxitrace.Lineage) func() obs.LineageSnapshot {
	return func() obs.LineageSnapshot { return lin.Snapshot(10) }
}

// printLineageTable renders the drop-reason ledger: the per-stage
// conservation rows (in = out + Σ dropped-by-reason) and the most
// lossy cars.
func printLineageTable(lin *taxitrace.Lineage) {
	printLineageSnapshot(lin.Snapshot(5))
	if err := lin.Check(); err != nil {
		log.Printf("LINEAGE CONSERVATION VIOLATED: %v", err)
	}
}

// printLineageSnapshot renders an already-captured lineage table — the
// live ledger's, or the coordinator's merged one.
func printLineageSnapshot(snap obs.LineageSnapshot) {
	if len(snap.Stages) == 0 {
		return
	}
	fmt.Printf("\ndata lineage (per stage, in = out + dropped):\n")
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "stage\tunit\tin\tout\tdropped\treasons")
	for _, st := range snap.Stages {
		var reasons []string
		for _, r := range st.Reasons {
			reasons = append(reasons, fmt.Sprintf("%s:%d", r.Reason, r.N))
		}
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\t%s\n",
			st.Stage, st.Unit, st.In, st.Out, st.Dropped, strings.Join(reasons, " "))
	}
	w.Flush()
	if len(snap.TopDroppedCars) > 0 {
		var parts []string
		for _, c := range snap.TopDroppedCars {
			parts = append(parts, fmt.Sprintf("car %d (%d)", c.Car, c.Dropped))
		}
		fmt.Printf("most dropped-from cars: %s\n", strings.Join(parts, ", "))
	}
	if !snap.Conserved {
		log.Printf("LINEAGE CONSERVATION VIOLATED (see stage rows above)")
	}
}

// newLogger builds the structured logger the -log-level/-log-format
// flags request; an empty level disables logging (nil logger).
func newLogger(level, format string) (*slog.Logger, error) {
	if level == "" {
		return nil, nil
	}
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %v", level, err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "", "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
	}
}

// writeTrace exports the tracer's retained spans as Chrome trace_event
// JSON (loadable in Perfetto and chrome://tracing).
func writeTrace(tr *taxitrace.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteTraceEvent(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printFailedCars renders the per-car failure table from a RunContext
// error, plus the run-level condition (budget abort, cancellation).
func printFailedCars(err error) {
	failed := taxitrace.FailedCars(err)
	if len(failed) > 0 {
		fmt.Printf("\nfailed cars (%d):\n", len(failed))
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "car\tstage\tattempts\terror")
		for _, ce := range failed {
			stage := ce.Stage
			if stage == "" {
				stage = "-"
			}
			fmt.Fprintf(w, "%d\t%s\t%d\t%v\n", ce.Car, stage, ce.Attempts, ce.Err)
		}
		w.Flush()
	}
	switch {
	case errors.Is(err, taxitrace.ErrBudgetExceeded):
		log.Printf("run aborted early: failure budget exceeded (see -max-failures)")
	case errors.Is(err, context.Canceled):
		log.Printf("run cancelled")
	}
}

// printCacheStats surfaces the shared routing engine's path-cache
// counters in the end-of-run summary.
func printCacheStats(p *taxitrace.Pipeline) {
	s := p.Router.CacheStats()
	fmt.Printf("router cache: %d hits / %d misses (%.1f%% hit rate), %d paths cached, %d evictions\n",
		s.Hits, s.Misses, 100*s.HitRate(), s.Entries, s.Evictions)
}

// printRunnerStats surfaces the fleet runner's outcome counters (the
// CSV path bypasses the runner, so the line is omitted when idle).
func printRunnerStats(snap obs.Snapshot) {
	ok := snap.Counters["runner_cars_ok"]
	failed := snap.Counters["runner_cars_failed"]
	if ok == 0 && failed == 0 {
		return
	}
	fmt.Printf("fleet runner: %d cars ok, %d failed, %d retries, %d skipped\n",
		ok, failed, snap.Counters["runner_cars_retried"], snap.Counters["runner_cars_skipped"])
}

// fmtSeconds renders a duration measured in seconds at ms resolution.
func fmtSeconds(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(10 * time.Microsecond).String()
}

// writeMetrics dumps the registry's JSON snapshot to path.
func writeMetrics(reg *obs.Registry, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeSpeedMap renders the accepted transitions' point speeds over the
// network.
func writeSpeedMap(p *taxitrace.Pipeline, recs []*taxitrace.TransitionRecord, path string) error {
	c := render.NewCanvas(p.City.StudyArea, 1000)
	for i := range p.Graph.Edges {
		c.Polyline(p.Graph.Edges[i].Geom, "#dddddd", 1)
	}
	for _, rec := range recs {
		for _, sp := range taxitrace.TransitionSpeedPoints(rec) {
			c.Circle(sp.Pos, 2, render.SpeedColor(sp.SpeedKmh, 60))
		}
	}
	c.SpeedLegend(60)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := c.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runIngestServer runs the process as an event-time streaming server:
// the sink, the ingest engine and the /v1 API (query + firehose) share
// one listener, a wall-clock tick keeps the watermark advancing on
// slow streams, and interruption closes the engine so the final
// snapshot seals before the summary prints.
func runIngestServer(ctx context.Context, p *taxitrace.Pipeline, n node, lin *taxitrace.Lineage,
	addr string, lateness, idleTimeout time.Duration) error {
	snk, err := n.newSink(p)
	if err != nil {
		return err
	}
	eng, err := ingest.New(ingest.Config{
		Pipeline:        p,
		Sink:            snk,
		AllowedLateness: lateness,
		IdleTimeout:     idleTimeout,
		Metrics:         n.reg,
		Lineage:         lin,
		Log:             n.log,
	})
	if err != nil {
		return err
	}
	// stop lets an in-flight firehose POST finish before the listener
	// goes away, so a producer mid-stream sees a clean response.
	srv, stop, err := n.serveAPI(n.reg.DebugMux(), snk, addr, func(a *serve.API) *serve.API {
		return a.WithLineage(lineageTable(lin)).WithIngest(eng)
	})
	if err != nil {
		return err
	}
	defer stop()
	fmt.Printf("streaming ingest: POST http://%s/v1/ingest (NDJSON or TAXIPNTB binary), POST /v1/ingest/close to seal\n", srv.Addr)
	fmt.Printf("query API: http://%s/v1/snapshot /v1/healthz /v1/lineage /v1/grid /v1/od /v1/predict /v1/anomalies (+debug surface)\n", srv.Addr)
	fmt.Printf("watermark: lateness %s, idle timeout %s — Ctrl-C to exit\n", lateness, idleTimeout)

	// Slow or stalled streams would otherwise only flush on the
	// admission cadence; a wall tick forces watermark recomputation.
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			eng.Close()
			st := eng.Stats()
			final := snk.Snapshot()
			fmt.Printf("\ningest: %d received, %d admitted, %d trips closed, %d dropped\n",
				st.Received, st.Admitted, st.ClosedTrips, st.Received-st.Admitted)
			fmt.Printf("final snapshot: epoch %d, %d cars, %d cells, %d directions\n",
				final.Epoch, final.CarsIngested, len(final.Cells), len(final.OD))
			if cerr := snk.CheckErr(); cerr != nil {
				log.Printf("sink invariant violation: %v", cerr)
			}
			return nil
		case <-tick.C:
			eng.Advance()
		}
	}
}

// processTraces loads externally recorded trips (e.g. written by
// cmd/tracegen against the same city seed) and runs the processing
// stages over them, grouped by car. The file format — CSV or the
// binary trace format — is sniffed from the leading bytes. Like
// RunContext, a bad car is isolated: its error is joined into the
// returned error while the remaining cars' results are kept.
func processTraces(ctx context.Context, p *taxitrace.Pipeline, path string) (*taxitrace.Result, error) {
	res := &taxitrace.Result{}
	f, err := os.Open(path)
	if err != nil {
		return res, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	read := trace.ReadCSV
	if head, err := br.Peek(8); err == nil && string(head) == "TAXITRCB" {
		read = trace.ReadBinary
	}
	trips, err := read(br, p.City.DB.Proj)
	if err != nil {
		return res, err
	}
	byCar := map[int][]*trace.Trip{}
	for _, t := range trips {
		byCar[t.CarID] = append(byCar[t.CarID], t)
	}
	cars := make([]int, 0, len(byCar))
	for car := range byCar {
		cars = append(cars, car)
	}
	sort.Ints(cars)
	var errs []error
	for _, car := range cars {
		if err := ctx.Err(); err != nil {
			errs = append(errs, err)
			break
		}
		cr, err := p.ProcessContext(ctx, car, byCar[car])
		if err != nil {
			errs = append(errs, &taxitrace.CarError{Car: car, Attempts: 1, Err: err})
			continue
		}
		res.Cars = append(res.Cars, cr)
	}
	return res, errors.Join(errs...)
}
