// Command mlb-serve exposes the plan service over HTTP/JSON: a
// content-addressed schedule cache with singleflight deduplication in
// front of a sharded pool of reusable search engines, plus the Monte-Carlo
// reliability engine behind /v1/validate.
//
// Usage:
//
//	mlb-serve [-addr :8080] [-workers 0] [-cache 4096] [-queue 16]
//	          [-improve-workers 2] [-trace-recent 64] [-trace-slowest 16]
//	          [-read-header-timeout 5s] [-read-timeout 60s] [-idle-timeout 2m]
//
// Endpoints:
//
//	POST /v1/plan      one plan request (generator params or inline instance)
//	POST /v1/aggregate convergecast (aggregation) schedule toward the sink
//	POST /v1/sweep     streaming parameter sweep (NDJSON, one item per line)
//	POST /v1/validate  Monte-Carlo reliability report (+ optional repair)
//	POST /v1/replan    incremental re-plan after a topology delta
//	GET  /healthz      liveness
//	GET  /metrics      Prometheus text format
//	GET  /debug/traces           flight recorder: last-N + slowest-N traces
//	GET  /debug/traces/{digest}  one retained trace as a span tree
//	/debug/pprof/      runtime profiles
//
// Every POST endpoint above (except /v1/sweep) runs under an always-on
// request trace: the span tree — resolve, cache, search, improve, repair
// phases with search-internal counters — lands in a bounded in-memory
// flight recorder served by /debug/traces (DESIGN.md §15).
//
// The four workload endpoints share one request shape: the instance —
// the paper generator's n, seed, r (duty-cycle rate), wake_seed,
// channels (K) and sinr_alpha/sinr_beta/sinr_noise, or an inline
// {"instance": <EncodeInstance JSON>} — plus scheduler, budget and
// no_cache, with each workload's own fields on top:
//
//	curl -s localhost:8080/v1/plan -d '{"n":150,"seed":1,"r":10,"scheduler":"gopt"}'
//	{"digest":"…","cache_hit":false,"result":{"pa":64,…},…}
//
// README.md walks through every workload's request and response.
//
// Failures on every /v1/* endpoint share one wire envelope with a stable
// machine-readable code:
//
//	{"error":{"code":"bad_request","message":"…"}}
//
// Codes: bad_request (malformed body or parameters), unprocessable plus
// the typed churn codes source_failed / disconnected / last_node (a delta
// the broadcast cannot survive), not_found, unavailable (shutting down),
// internal.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	runtimemetrics "runtime/metrics"
	"syscall"
	"time"

	"mlbs"
)

// serveConfig is the parsed flag set — separated from main so the
// plumbing from flags to the http.Server is testable.
type serveConfig struct {
	addr              string
	workers           int
	cache             int
	queue             int
	improveWorkers    int
	traceRecent       int
	traceSlowest      int
	readHeaderTimeout time.Duration
	readTimeout       time.Duration
	idleTimeout       time.Duration
}

// parseServeFlags parses args (without the program name). Defaults keep
// one slow or stalled client from pinning a connection forever; write
// timeouts stay off because /v1/sweep streams for as long as the sweep
// runs.
func parseServeFlags(args []string) (serveConfig, error) {
	var cfg serveConfig
	fs := flag.NewFlagSet("mlb-serve", flag.ContinueOnError)
	fs.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	fs.IntVar(&cfg.workers, "workers", 0, "scheduling workers (0 = GOMAXPROCS)")
	fs.IntVar(&cfg.cache, "cache", 4096, "plan cache capacity (entries)")
	fs.IntVar(&cfg.queue, "queue", 16, "per-worker job queue depth")
	fs.IntVar(&cfg.improveWorkers, "improve-workers", 2,
		"background anytime-improver goroutines (0 disables background plan upgrades)")
	fs.IntVar(&cfg.traceRecent, "trace-recent", 64,
		"flight-recorder ring size: most recent request traces retained for /debug/traces")
	fs.IntVar(&cfg.traceSlowest, "trace-slowest", 16,
		"flight-recorder slow board size: slowest request traces retained for /debug/traces")
	fs.DurationVar(&cfg.readHeaderTimeout, "read-header-timeout", 5*time.Second,
		"max time to read a request's headers (0 disables)")
	fs.DurationVar(&cfg.readTimeout, "read-timeout", 60*time.Second,
		"max time to read a full request including its body (0 disables)")
	fs.DurationVar(&cfg.idleTimeout, "idle-timeout", 2*time.Minute,
		"max keep-alive idle time between requests (0 disables)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if cfg.workers <= 0 {
		cfg.workers = runtime.GOMAXPROCS(0)
	}
	return cfg, nil
}

// buildServer wires the parsed timeouts into the http.Server — without
// them a single client that opens a connection and never finishes its
// request holds a goroutine and a socket until the process dies.
func buildServer(cfg serveConfig, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              cfg.addr,
		Handler:           h,
		ReadHeaderTimeout: cfg.readHeaderTimeout,
		ReadTimeout:       cfg.readTimeout,
		IdleTimeout:       cfg.idleTimeout,
	}
}

func main() {
	cfg, err := parseServeFlags(os.Args[1:])
	if err == flag.ErrHelp {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2)
	}
	svc := mlbs.NewService(mlbs.ServiceConfig{
		Workers:        cfg.workers,
		QueueDepth:     cfg.queue,
		CacheCapacity:  cfg.cache,
		ImproveWorkers: cfg.improveWorkers,
	})
	defer svc.Close()

	srv := buildServer(cfg, newMux(svc, newServeObs(cfg.traceRecent, cfg.traceSlowest)))
	go func() {
		log.Printf("mlb-serve: listening on %s (%d workers, cache %d)", cfg.addr, cfg.workers, cfg.cache)
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Fatalf("mlb-serve: %v", err)
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	log.Print("mlb-serve: shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx)
}

// serveObs bundles the server-side observability state: the always-on
// flight recorder behind /debug/traces and one fixed-edge latency
// histogram per traced endpoint (the mlbs_http_request_duration_seconds
// family on /metrics).
type serveObs struct {
	rec *mlbs.TraceRecorder
	// endpoints are the traced POST endpoints, in registration order —
	// the order /metrics emits their latency series.
	endpoints []tracedEndpoint
}

type tracedEndpoint struct {
	path string
	lat  *mlbs.LatencyHistogram
}

func newServeObs(recentN, slowestN int) *serveObs {
	return &serveObs{rec: mlbs.NewTraceRecorder(recentN, slowestN)}
}

// tracedHandler serves one workload endpoint: it writes the HTTP response
// itself and returns the request's digest (empty if it never got that
// far) and terminal error for the trace.
type tracedHandler func(w http.ResponseWriter, r *http.Request) (string, error)

// handle registers h as POST path under per-request span tracing: a
// fresh trace rides the request context into the service (which
// annotates its resolve, cache, search, improve and repair phases), and
// the finished snapshot, carrying h's digest and error, lands in the
// flight recorder plus the endpoint's latency histogram.
func (o *serveObs) handle(mux *http.ServeMux, path string, h tracedHandler) {
	lat := mlbs.NewLatencyHistogram(nil)
	o.endpoints = append(o.endpoints, tracedEndpoint{path, lat})
	mux.HandleFunc("POST "+path, func(w http.ResponseWriter, r *http.Request) {
		tr := mlbs.NewTrace(path)
		digest, err := h(w, r.WithContext(mlbs.TraceContext(r.Context(), tr)))
		msg := ""
		if err != nil {
			msg = err.Error()
		}
		snap := tr.Finish(digest, msg)
		o.rec.Record(snap)
		if snap != nil {
			lat.Observe(time.Duration(snap.DurationNs))
		}
	})
}

// tracesIndexResponse is the GET /debug/traces schema.
type tracesIndexResponse struct {
	Seen    int64                 `json:"seen"`
	Recent  []*mlbs.TraceSnapshot `json:"recent"`
	Slowest []*mlbs.TraceSnapshot `json:"slowest"`
}

func handleTracesIndex(o *serveObs, w http.ResponseWriter) {
	recent, slowest := o.rec.Snapshot()
	if recent == nil {
		recent = []*mlbs.TraceSnapshot{}
	}
	if slowest == nil {
		slowest = []*mlbs.TraceSnapshot{}
	}
	writeJSON(w, http.StatusOK, tracesIndexResponse{Seen: o.rec.Seen(), Recent: recent, Slowest: slowest})
}

func newMux(svc *mlbs.PlanService, obsv *serveObs) *http.ServeMux {
	mux := http.NewServeMux()
	obsv.handle(mux, "/v1/plan", endpoint(svc, servePlan))
	obsv.handle(mux, "/v1/aggregate", endpoint(svc, serveAggregate))
	obsv.handle(mux, "/v1/validate", endpoint(svc, serveValidate))
	obsv.handle(mux, "/v1/replan", endpoint(svc, serveReplan))
	mux.HandleFunc("POST /v1/sweep", func(w http.ResponseWriter, r *http.Request) { handleSweep(svc, w, r) })
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) { handleMetrics(svc, obsv, w) })
	mux.HandleFunc("GET /debug/traces", func(w http.ResponseWriter, r *http.Request) { handleTracesIndex(obsv, w) })
	mux.HandleFunc("GET /debug/traces/{digest}", func(w http.ResponseWriter, r *http.Request) {
		if snap := obsv.rec.Find(r.PathValue("digest")); snap != nil {
			writeJSON(w, http.StatusOK, snap)
			return
		}
		httpError(w, http.StatusNotFound, fmt.Errorf("no retained trace for digest %s", r.PathValue("digest")))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// workloadHTTP is the request part every workload endpoint shares: the
// instance selection — the paper generator's parameters or an inline
// graphio instance encoding — plus the scheduler, search budget and
// caching discipline of mlbs.WorkloadRequest. Endpoint request types embed
// it and add their own fields.
type workloadHTTP struct {
	// PlanGenerator holds the generator form's fields (n, seed, r,
	// wake_seed, channels, sinr_*); an inline instance carries its own.
	mlbs.PlanGenerator
	Instance  json.RawMessage `json:"instance,omitempty"`
	Scheduler string          `json:"scheduler,omitempty"`
	Budget    int             `json:"budget,omitempty"`
	NoCache   bool            `json:"no_cache,omitempty"`
}

func (b *workloadHTTP) workload() *workloadHTTP { return b }

// request builds the service envelope: a decoded instance when one was
// shipped inline, the generator parameters otherwise.
func (b *workloadHTTP) request() (mlbs.WorkloadRequest, error) {
	req := mlbs.WorkloadRequest{Scheduler: b.Scheduler, Budget: b.Budget, NoCache: b.NoCache}
	if len(b.Instance) > 0 {
		in, err := mlbs.DecodeInstance(b.Instance)
		if err != nil {
			return req, err
		}
		req.Instance = &in
		return req, nil
	}
	gen := b.PlanGenerator
	req.Generator = &gen
	return req, nil
}

// internalError marks a failure of the server itself (an answer it could
// not encode or replay), which the error envelope reports as a 500; every
// other failure of a workload request is the request's fault, a 400.
type internalError struct{ error }

// endpoint adapts one workload to HTTP: it decodes the size-limited body
// into the endpoint's request type H (which embeds workloadHTTP), builds
// the service envelope, runs serve and writes its answer as JSON or its
// failure as the error envelope. serve returns the response body and the
// request's digest; endpoint hands the digest and terminal error on to
// the trace middleware.
func endpoint[H any, P interface {
	*H
	workload() *workloadHTTP
}](svc *mlbs.PlanService, serve func(context.Context, *mlbs.PlanService, P, mlbs.WorkloadRequest) (any, string, error)) tracedHandler {
	return func(w http.ResponseWriter, r *http.Request) (string, error) {
		hr := P(new(H))
		data, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
		if err == nil {
			if err = json.Unmarshal(data, hr); err != nil {
				err = fmt.Errorf("bad request body: %w", err)
			}
		}
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return "", err
		}
		req, err := hr.workload().request()
		var out any
		digest := ""
		if err == nil {
			out, digest, err = serve(r.Context(), svc, hr, req)
		}
		if err != nil {
			status := http.StatusBadRequest
			if errors.As(err, new(internalError)) {
				status = http.StatusInternalServerError
			}
			httpError(w, status, err)
			return digest, err
		}
		writeJSON(w, http.StatusOK, out)
		return digest, nil
	}
}

// planHTTPRequest is the wire form of a plan request.
type planHTTPRequest struct {
	workloadHTTP
	Replay bool `json:"replay,omitempty"`
	// ImproveBudgetMs buys anytime improvement: spent synchronously on a
	// cold miss, or as a background upgrade re-published under the same
	// digest on a warm hit. 0 keeps the pre-improver path bit-identical.
	ImproveBudgetMs int64 `json:"improve_budget_ms,omitempty"`
}

type planHTTPResponse struct {
	Digest    string `json:"digest"`
	Scheduler string `json:"scheduler"`
	CacheHit  bool   `json:"cache_hit"`
	Coalesced bool   `json:"coalesced"`
	ElapsedNs int64  `json:"elapsed_ns"`
	// Exact mirrors the result's exactness at the top level so clients can
	// tell a proven-optimal plan from a budget-truncated one without
	// parsing the nested result; Generation/Improved carry the anytime
	// improver's provenance (omitted for plans it never touched).
	Exact      bool            `json:"exact"`
	Generation int             `json:"generation,omitempty"`
	Improved   bool            `json:"improved,omitempty"`
	Result     json.RawMessage `json:"result"`
	Report     *mlbs.Report    `json:"report,omitempty"`
}

func servePlan(ctx context.Context, svc *mlbs.PlanService, hr *planHTTPRequest, req mlbs.WorkloadRequest) (any, string, error) {
	req.ImproveBudget = time.Duration(hr.ImproveBudgetMs) * time.Millisecond
	resp, err := svc.Plan(ctx, req)
	if err != nil {
		return nil, "", err
	}
	resJSON, err := mlbs.EncodeResult(resp.Result)
	if err != nil {
		return nil, resp.Digest, internalError{err}
	}
	out := planHTTPResponse{
		Digest:     resp.Digest,
		Scheduler:  resp.Scheduler,
		CacheHit:   resp.CacheHit,
		Coalesced:  resp.Coalesced,
		ElapsedNs:  resp.Elapsed.Nanoseconds(),
		Exact:      resp.Result.Exact,
		Generation: resp.Result.Generation,
		Improved:   resp.Result.Improved,
		Result:     resJSON,
	}
	if hr.Replay {
		if out.Report, err = mlbs.Replay(resp.Instance, resp.Result.Schedule); err != nil {
			return nil, resp.Digest, internalError{err}
		}
	}
	return out, resp.Digest, nil
}

type aggregateHTTPResponse struct {
	Digest    string `json:"digest"`
	Scheduler string `json:"scheduler"`
	CacheHit  bool   `json:"cache_hit"`
	Coalesced bool   `json:"coalesced"`
	ElapsedNs int64  `json:"elapsed_ns"`
	// LatencySlots mirrors the nested result's makespan so clients polling
	// for the headline number need not parse the schedule.
	LatencySlots int             `json:"latency_slots"`
	Result       json.RawMessage `json:"result"`
}

func serveAggregate(ctx context.Context, svc *mlbs.PlanService, _ *workloadHTTP, req mlbs.WorkloadRequest) (any, string, error) {
	resp, err := svc.Aggregate(ctx, mlbs.AggregateRequest{WorkloadRequest: req})
	if err != nil {
		return nil, "", err
	}
	resJSON, err := mlbs.EncodeAggResult(resp.Result)
	if err != nil {
		return nil, resp.Digest, internalError{err}
	}
	return aggregateHTTPResponse{
		Digest:       resp.Digest,
		Scheduler:    resp.Scheduler,
		CacheHit:     resp.CacheHit,
		Coalesced:    resp.Coalesced,
		ElapsedNs:    resp.Elapsed.Nanoseconds(),
		LatencySlots: resp.Result.LatencySlots,
		Result:       resJSON,
	}, resp.Digest, nil
}

// validateHTTPRequest is the wire form of a reliability validation: the
// plan selection plus the loss model and Monte-Carlo parameters.
type validateHTTPRequest struct {
	workloadHTTP
	LossKind      string  `json:"loss_kind,omitempty"`
	LossRate      float64 `json:"loss_rate"`
	LossSeed      uint64  `json:"loss_seed,omitempty"`
	Trials        int     `json:"trials,omitempty"`
	Target        float64 `json:"target,omitempty"`
	MaxExtraSlots int     `json:"max_extra_slots,omitempty"`
}

type validateHTTPResponse struct {
	Digest       string          `json:"digest"`
	Scheduler    string          `json:"scheduler"`
	CacheHit     bool            `json:"cache_hit"`
	Coalesced    bool            `json:"coalesced"`
	PlanCacheHit bool            `json:"plan_cache_hit"`
	ElapsedNs    int64           `json:"elapsed_ns"`
	Report       json.RawMessage `json:"report"`
	Repair       *repairHTTP     `json:"repair,omitempty"`
}

type repairHTTP struct {
	Target          float64         `json:"target"`
	TargetMet       bool            `json:"target_met"`
	Rounds          int             `json:"rounds"`
	AddedAdvances   int             `json:"added_advances"`
	AddedSlots      int             `json:"added_slots"`
	BaseLatency     int             `json:"base_latency"`
	RepairedLatency int             `json:"repaired_latency"`
	Before          json.RawMessage `json:"before"`
	Schedule        json.RawMessage `json:"schedule"`
}

func serveValidate(ctx context.Context, svc *mlbs.PlanService, hr *validateHTTPRequest, req mlbs.WorkloadRequest) (any, string, error) {
	resp, err := svc.Validate(ctx, mlbs.ValidateRequest{
		WorkloadRequest: req,
		Loss:            mlbs.ReliabilityLossModel{Kind: hr.LossKind, Rate: hr.LossRate, Seed: hr.LossSeed},
		Trials:          hr.Trials,
		Target:          hr.Target,
		MaxExtraSlots:   hr.MaxExtraSlots,
	})
	if err != nil {
		return nil, "", err
	}
	repJSON, err := mlbs.EncodeReliabilityReport(resp.Report)
	if err != nil {
		return nil, resp.Digest, internalError{err}
	}
	out := validateHTTPResponse{
		Digest:       resp.Digest,
		Scheduler:    resp.Scheduler,
		CacheHit:     resp.CacheHit,
		Coalesced:    resp.Coalesced,
		PlanCacheHit: resp.PlanCacheHit,
		ElapsedNs:    resp.Elapsed.Nanoseconds(),
		Report:       repJSON,
	}
	if rr := resp.Repair; rr != nil {
		beforeJSON, err := mlbs.EncodeReliabilityReport(rr.Before)
		if err != nil {
			return nil, resp.Digest, internalError{err}
		}
		schedJSON, err := mlbs.EncodeSchedule(rr.Schedule)
		if err != nil {
			return nil, resp.Digest, internalError{err}
		}
		out.Repair = &repairHTTP{
			Target:          rr.Target,
			TargetMet:       rr.TargetMet,
			Rounds:          rr.Rounds,
			AddedAdvances:   rr.AddedAdvances,
			AddedSlots:      rr.AddedSlots,
			BaseLatency:     rr.BaseLatency,
			RepairedLatency: rr.RepairedLatency,
			Before:          beforeJSON,
			Schedule:        schedJSON,
		}
	}
	return out, resp.Digest, nil
}

// replanHTTPRequest is the wire form of a churn repair: the base-instance
// selection plus the delta in its EncodeChurnDelta schema.
type replanHTTPRequest struct {
	workloadHTTP
	Delta json.RawMessage `json:"delta"`
}

type replanHTTPResponse struct {
	BaseDigest   string          `json:"base_digest"`
	Digest       string          `json:"digest"`
	Scheduler    string          `json:"scheduler"`
	Strategy     string          `json:"strategy"`
	KeptAdvances int             `json:"kept_advances"`
	BaseAdvances int             `json:"base_advances"`
	BasePlanHit  bool            `json:"base_plan_hit"`
	CacheHit     bool            `json:"cache_hit"`
	Coalesced    bool            `json:"coalesced"`
	ElapsedNs    int64           `json:"elapsed_ns"`
	Result       json.RawMessage `json:"result"`
}

func serveReplan(ctx context.Context, svc *mlbs.PlanService, hr *replanHTTPRequest, req mlbs.WorkloadRequest) (any, string, error) {
	if len(hr.Delta) == 0 {
		return nil, "", errors.New("replan request needs a delta")
	}
	delta, err := mlbs.DecodeChurnDelta(hr.Delta)
	if err != nil {
		return nil, "", err
	}
	resp, err := svc.Replan(ctx, mlbs.ReplanRequest{WorkloadRequest: req, Delta: delta})
	if err != nil {
		return nil, "", err
	}
	resJSON, err := mlbs.EncodeResult(resp.Result)
	if err != nil {
		return nil, resp.Digest, internalError{err}
	}
	return replanHTTPResponse{
		BaseDigest:   resp.BaseDigest,
		Digest:       resp.Digest,
		Scheduler:    resp.Scheduler,
		Strategy:     string(resp.Strategy),
		KeptAdvances: resp.KeptAdvances,
		BaseAdvances: resp.BaseAdvances,
		BasePlanHit:  resp.BasePlanHit,
		CacheHit:     resp.CacheHit,
		Coalesced:    resp.Coalesced,
		ElapsedNs:    resp.Elapsed.Nanoseconds(),
		Result:       resJSON,
	}, resp.Digest, nil
}

func handleSweep(svc *mlbs.PlanService, w http.ResponseWriter, r *http.Request) {
	var req mlbs.SweepRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	err := svc.Sweep(r.Context(), req, func(it mlbs.SweepItem) error {
		if err := enc.Encode(it); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
	if err != nil {
		// Headers are gone; best effort is a terminal NDJSON error line.
		_ = enc.Encode(mlbs.SweepItem{Err: err.Error()})
	}
}

func handleMetrics(svc *mlbs.PlanService, obsv *serveObs, w http.ResponseWriter) {
	m := svc.Metrics()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	for _, wl := range m.Workloads {
		p, of := "mlbs_"+wl.Name+"_", " of the "+wl.Name+" workload"
		mlbs.WritePromCounter(w, p+"requests_total", "Requests"+of+" received.", wl.Requests)
		for _, c := range wl.Counters {
			mlbs.WritePromCounter(w, p+c.Name+"_total", c.Help, c.Value)
		}
		mlbs.WritePromCounter(w, p+"cache_hits_total", "Cache lookups"+of+" answered from the cache.", wl.Cache.Hits)
		mlbs.WritePromCounter(w, p+"cache_misses_total", "Cache lookups"+of+" that missed.", wl.Cache.Misses)
		mlbs.WritePromGauge(w, p+"cache_entries", "Cache entries"+of+" currently resident.", int64(wl.Cache.Entries))
	}
	// The plan cache alone also exports its coalescing, eviction and
	// capacity series.
	plans := m.Workload("plan").Cache
	mlbs.WritePromCounter(w, "mlbs_plan_coalesced_total", "Plan lookups coalesced onto another caller's in-flight search.", plans.Coalesced)
	mlbs.WritePromCounter(w, "mlbs_plan_cache_evictions_total", "Plan-cache LRU evictions.", plans.Evictions)
	mlbs.WritePromGauge(w, "mlbs_plan_cache_capacity", "Plan-cache entry bound (pair with mlbs_plan_cache_entries for occupancy).", int64(plans.Capacity))
	mlbs.WritePromCounter(w, "mlbs_plan_errors_total", "Requests of any workload that ended in an error.", m.Errors)
	mlbs.WritePromCounter(w, "mlbs_engine_states_total", "Branch-and-bound states expanded across every search the service ran.", m.EngineStates)
	mlbs.WritePromCounter(w, "mlbs_engine_memo_hits_total", "Search memo-table hits across every search the service ran.", m.EngineMemoHits)
	mlbs.WritePromCounter(w, "mlbs_improve_total", "Anytime-improver upgrades accepted (sync and background).", m.Improvements)
	mlbs.WritePromCounter(w, "mlbs_improve_slots_saved_total", "Latency slots shaved off served plans by the improver.", m.ImproveSlotsSaved)
	mlbs.WritePromCounter(w, "mlbs_improve_queued_total", "Background improvement jobs enqueued.", m.ImproveQueued)
	mlbs.WritePromCounter(w, "mlbs_improve_dropped_total", "Background improvement jobs dropped on a full queue.", m.ImproveDropped)
	mlbs.WritePromGauge(w, "mlbs_improve_queue_depth", "Background improver queue occupancy.", int64(m.ImproveQueueDepth))
	fmt.Fprintf(w, "# HELP mlbs_improve_generation_total Plan publications by improvement generation.\n")
	fmt.Fprintf(w, "# TYPE mlbs_improve_generation_total counter\n")
	for i, c := range m.Generations {
		fmt.Fprintf(w, "mlbs_improve_generation_total{gen=\"%d\"} %d\n", i, c)
	}
	mlbs.WritePromCounter(w, "mlbs_traces_recorded_total", "Request traces finished into the flight recorder.", obsv.rec.Seen())
	mlbs.WritePromHistogram(w, "mlbs_plan_hit_latency_seconds",
		"Latency distribution of plan requests answered from the cache.", "", m.HitLatency)
	mlbs.WritePromHistogram(w, "mlbs_plan_miss_latency_seconds",
		"Latency distribution of plan requests that ran a search.", "", m.MissLatency)
	fmt.Fprintf(w, "# HELP mlbs_http_request_duration_seconds End-to-end request latency by endpoint.\n")
	fmt.Fprintf(w, "# TYPE mlbs_http_request_duration_seconds histogram\n")
	for _, ep := range obsv.endpoints {
		mlbs.WritePromHistogramSeries(w, "mlbs_http_request_duration_seconds",
			fmt.Sprintf("endpoint=%q", ep.path), ep.lat.Snapshot())
	}
	writeRuntimeMetrics(w)
}

// writeRuntimeMetrics exports the process-health slice of runtime/metrics:
// live goroutines, completed GC cycles, and live heap bytes.
func writeRuntimeMetrics(w io.Writer) {
	samples := []runtimemetrics.Sample{
		{Name: "/sched/goroutines:goroutines"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/memory/classes/heap/objects:bytes"},
	}
	runtimemetrics.Read(samples)
	if samples[0].Value.Kind() == runtimemetrics.KindUint64 {
		mlbs.WritePromGauge(w, "mlbs_goroutines", "Live goroutines.", int64(samples[0].Value.Uint64()))
	}
	if samples[1].Value.Kind() == runtimemetrics.KindUint64 {
		mlbs.WritePromCounter(w, "mlbs_gc_cycles_total", "Completed GC cycles.", int64(samples[1].Value.Uint64()))
	}
	if samples[2].Value.Kind() == runtimemetrics.KindUint64 {
		mlbs.WritePromGauge(w, "mlbs_heap_objects_bytes", "Bytes of live heap objects.", int64(samples[2].Value.Uint64()))
	}
}

// errorBody is the one error envelope every /v1/* endpoint speaks: a
// stable machine-readable code for programs, the error text for humans.
type errorBody struct {
	Error errorDetail `json:"error"`
}

type errorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// httpError writes the error envelope. Typed failures override the
// caller's status: a churn delta the broadcast cannot survive is a
// semantic failure (422) with its own code, not a malformed request, and
// a closing service is 503 so load balancers retry elsewhere.
func httpError(w http.ResponseWriter, status int, err error) {
	var code string
	switch {
	case errors.Is(err, mlbs.ErrChurnSourceFailed):
		status, code = http.StatusUnprocessableEntity, "source_failed"
	case errors.Is(err, mlbs.ErrChurnDisconnected):
		status, code = http.StatusUnprocessableEntity, "disconnected"
	case errors.Is(err, mlbs.ErrChurnLastNode):
		status, code = http.StatusUnprocessableEntity, "last_node"
	case errors.Is(err, mlbs.ErrServiceClosed):
		status, code = http.StatusServiceUnavailable, "unavailable"
	default:
		switch status {
		case http.StatusBadRequest:
			code = "bad_request"
		case http.StatusNotFound:
			code = "not_found"
		case http.StatusUnprocessableEntity:
			code = "unprocessable"
		case http.StatusServiceUnavailable:
			code = "unavailable"
		default:
			code = "internal"
		}
	}
	writeJSON(w, status, errorBody{Error: errorDetail{Code: code, Message: err.Error()}})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(v)
}
