// Package service is the concurrent plan-serving layer: it fronts the
// schedulers with a content-addressed cache and a sharded worker pool so
// many clients can request broadcast plans at once while the PR 1
// allocation discipline survives — every worker goroutine owns its own
// reusable search engine (scratch + memo arenas), and a warm cache hit
// never touches an engine at all.
//
// Request flow:
//
//	Plan → resolve instance → InstanceDigest → cache key (digest|scheduler)
//	     → hit: return the immutable cached Result
//	     → miss: singleflight-dispatch one search onto the worker shard
//	       picked by the key; coalesced callers wait for the leader.
//
// Results handed out by the service are shared and immutable: callers must
// not modify the schedules they receive.
package service

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mlbs/internal/aggregate"
	"mlbs/internal/baseline"
	"mlbs/internal/churn"
	"mlbs/internal/core"
	"mlbs/internal/dutycycle"
	"mlbs/internal/emodel"
	"mlbs/internal/graphio"
	"mlbs/internal/improve"
	"mlbs/internal/interference"
	"mlbs/internal/obs"
	"mlbs/internal/plancache"
	"mlbs/internal/reliability"
	"mlbs/internal/topology"
)

// ErrClosed is returned by Plan after Close.
var ErrClosed = errors.New("service: closed")

// Config sizes the service. The zero value selects the defaults noted on
// each field.
type Config struct {
	// Workers is the number of scheduling goroutines, each owning one
	// reusable engine per scheduler spec it has seen. Default 4.
	Workers int
	// QueueDepth is each worker's job buffer. Default 16.
	QueueDepth int
	// CacheCapacity bounds the plan cache (entries). Default 4096.
	CacheCapacity int
	// ImproveWorkers is the background anytime-improver pool size. 0 (the
	// default) disables background improvement entirely: warm hits with an
	// improve budget are served as-is, exactly the pre-improver behavior.
	// Cold-path synchronous improvement only needs a request budget, not
	// the pool.
	ImproveWorkers int
}

// Fixed sizes of the service's internal queues and caches; the derived
// workloads' cache bounds sit in their own declarations.
const (
	// genCacheCapacity bounds the generated-deployment cache that backs
	// Generator requests.
	genCacheCapacity = 256
	// improveQueue bounds the background improvement queue; a full queue
	// drops the upgrade request (counted, never blocks a Plan).
	improveQueue = 64
)

// planWorkload is the broadcast plan pipeline. Its cache, keyed by
// digest|scheduler|budget, also serves the base plans of validate and
// replan and receives cold replans.
var planWorkload = declare(workload[*core.Result]{
	name: "plan", shards: 16,
	counters: []Counter{{Name: "searches", Help: "Schedule searches actually executed by the worker pool."}},
})

// Generator asks the service to build the instance itself from the
// paper's topology family — the request form remote clients use when they
// don't want to ship a full instance encoding.
type Generator struct {
	// N is the node count of the paper deployment (Section V-A setting),
	// at most graphio.MaxWireNodes.
	N int `json:"n"`
	// Seed is the deployment seed.
	Seed uint64 `json:"seed"`
	// DutyRate r selects the duty-cycle system when > 1; 0 or 1 is the
	// round-based synchronous system.
	DutyRate int `json:"r,omitempty"`
	// WakeSeed seeds the uniform wake schedule; 0 derives Seed^0xA5, the
	// same convention mlb-run uses.
	WakeSeed uint64 `json:"wake_seed,omitempty"`
	// Channels is the orthogonal-channel count K of the generated
	// instance; 0 and 1 both select the single-channel system.
	Channels int `json:"channels,omitempty"`
	// SINR selects the physical interference model for the generated
	// instance: all three zero (the default) keeps the paper's protocol
	// model; any nonzero field requires SINRBeta > 0. Per-node powers are
	// not exposed here — ship a full Instance encoding for those.
	SINRAlpha float64 `json:"sinr_alpha,omitempty"`
	SINRBeta  float64 `json:"sinr_beta,omitempty"`
	SINRNoise float64 `json:"sinr_noise,omitempty"`
}

// WorkloadRequest is the shared request envelope of every workload the
// service answers — plan, aggregate, validate, replan. It selects the
// instance (exactly one of Instance and Generator must be set, with the
// generator carrying the duty-cycle/channel/SINR knobs), the scheduler,
// and the caching discipline. Plan takes it as is; the other workloads'
// request types embed it and add their own fields on top.
type WorkloadRequest struct {
	Instance  *core.Instance
	Generator *Generator
	// Scheduler selects the planning algorithm. For broadcast plans: gopt
	// (default), opt, emodel, energy, baseline (resolves to the 26- or
	// 17-approximation by wake system). For aggregation: agg-spt (default)
	// or agg-bounded.
	Scheduler string
	// Budget caps search effort for gopt/opt; 0 selects the default.
	Budget int
	// NoCache bypasses the endpoint's own cache lookup (the result is
	// still stored) — load generators use it to measure the cold path.
	NoCache bool
	// ImproveBudget is the anytime-improvement budget for workloads that
	// support it (plans only today). 0 (the default) keeps the
	// pre-improver serving path bit-identical. On a cache miss the budget
	// is spent synchronously after the base search, so the caller's first
	// answer is already tightened; on a hit the cached plan is served
	// instantly and a background upgrade is enqueued (when the pool is
	// enabled and the plan is not already exact), re-published under the
	// same key with the next Generation. The budget is deliberately not
	// part of the cache key: all budgets share one entry per (digest,
	// scheduler), which is what lets generations accumulate.
	ImproveBudget time.Duration
}

// Served is what every workload's answer reports about how it was
// served: the content address of its instance, the scheduler that
// produced it, the outcome of the workload's own cache and the time taken.
type Served struct {
	Digest    string
	Scheduler string
	CacheHit  bool
	Coalesced bool
	Elapsed   time.Duration
}

// Response is one plan answer. Result is shared and immutable.
type Response struct {
	Served
	// Instance is the instance the service resolved and planned — for
	// Generator requests, the deployment it built — so callers can replay
	// the schedule without rebuilding it.
	Instance core.Instance
	Result   *core.Result
	// Err is set instead of Result on per-item failures inside PlanBatch.
	Err error
}

// Metrics is a point-in-time snapshot of service traffic.
type Metrics struct {
	// Workloads holds one record per declared workload, in declaration
	// order.
	Workloads []WorkloadMetrics
	// Errors counts requests of any workload that ended in an error.
	Errors int64
	// Engine totals accumulated across every search the service ran
	// (plans, cold replans): branch-and-bound states expanded and memo
	// hits. These are the search-internal counters behind
	// mlbs_engine_states_total.
	EngineStates   int64
	EngineMemoHits int64
	// Anytime-improvement traffic: accepted upgrades (sync + background
	// publications), total latency slots shaved off served plans, and the
	// background queue's accounting. Generations histograms publications
	// by the generation they produced (bucket i counts generation i;
	// the last bucket absorbs everything beyond).
	Improvements      int64
	ImproveSlotsSaved int64
	ImproveQueued     int64
	ImproveDropped    int64
	// ImproveQueueDepth is the background improver queue's current
	// occupancy (0 when the pool is disabled).
	ImproveQueueDepth int
	Generations       [improveGenBuckets]int64
	// HitLatency/MissLatency are the latency distributions of Plan
	// requests answered from the cache and of those that ran (or waited
	// on) a search.
	HitLatency  obs.HistogramSnapshot
	MissLatency obs.HistogramSnapshot
}

// Workload returns the record of the named workload (the zero record for
// an unknown name).
func (m Metrics) Workload(name string) WorkloadMetrics {
	for _, w := range m.Workloads {
		if w.Name == name {
			return w
		}
	}
	return WorkloadMetrics{}
}

// spec is a normalized scheduler selection — part of the cache key and the
// per-worker engine map key.
type spec struct {
	kind   string
	budget int
}

func parseSpec(name string, budget int) (spec, error) {
	if name == "" {
		name = "gopt"
	}
	switch name {
	case "gopt", "opt":
		if budget <= 0 {
			budget = core.DefaultBudget
		}
		return spec{kind: name, budget: budget}, nil
	case "emodel", "energy", "baseline":
		return spec{kind: name}, nil
	default:
		return spec{}, fmt.Errorf("service: unknown scheduler %q (want gopt|opt|emodel|energy|baseline)", name)
	}
}

// job is one unit of worker-pool work: a closure run on the worker's own
// goroutine, with exclusive use of the worker's reusable arenas.
type job func(*worker)

// worker owns one goroutine and the reusable engines it has instantiated;
// the engines map and the Monte-Carlo estimator are touched only from the
// worker's own goroutine, so no lock guards them and their arenas stay
// warm call after call.
type worker struct {
	jobs       chan job
	engines    map[spec]core.Scheduler
	replanners map[spec]*churn.Replanner
	// aggs holds the worker's reusable convergecast schedulers by tree
	// kind; like engines, only the worker's own goroutine touches them so
	// their scratch arenas stay warm.
	aggs map[string]*aggregate.Scheduler
	est  *reliability.Estimator
	// imp is the worker's reusable improver for synchronous cold-path
	// improvement; like the engines, it is touched only by the worker's
	// own goroutine so its arenas stay warm.
	imp *improve.Improver
}

func (w *worker) run(s *Service) {
	defer s.wg.Done()
	for jb := range w.jobs {
		jb(w)
	}
}

// exec runs one plan search on the worker's reusable engine for sp, then
// spends the synchronous improve budget on its result.
func (w *worker) exec(s *Service, in core.Instance, sp spec, budget time.Duration, tr *obs.Trace) (*core.Result, error) {
	search := tr.Root().Child("search")
	sched := w.scheduler(resolveSpec(sp, in))
	var res *core.Result
	var err error
	if en, ok := sched.(*core.Engine); ok && tr != nil {
		// Traced searches collect the per-depth profile; the plain path
		// runs exactly the pre-observability search so untraced results
		// keep their historic encodings.
		res, err = en.ScheduleProfiled(in)
	} else {
		res, err = sched.Schedule(in)
	}
	if err != nil {
		search.End()
		return res, err
	}
	planWorkload.of(s).add("searches", 1)
	s.engineStates.Add(int64(res.Stats.Expanded))
	s.engineMemoHits.Add(int64(res.Stats.MemoHits))
	search.SetStr("scheduler", res.Scheduler)
	search.SetInt("end_slot", int64(res.Schedule.End()))
	search.SetBool("exact", res.Exact)
	search.SetInt("expanded", int64(res.Stats.Expanded))
	search.SetInt("memo_hits", int64(res.Stats.MemoHits))
	search.SetInt("memo_entries", int64(res.Stats.MemoEntries))
	if n := len(res.Stats.Depths); n > 0 {
		search.SetInt("search_depth", int64(n))
	}
	search.End()

	isp := tr.Root().Child("improve")
	isp.SetInt("budget_ns", int64(budget))
	if budget <= 0 || res.Exact {
		isp.SetBool("skipped", true)
		isp.End()
		return res, nil
	}
	// Cold-path synchronous improvement: the first answer for this key is
	// already tightened before it is stored, so even a cache-cold client
	// with a budget never sees the raw approximation. Published as
	// Generation 0 — it IS the first plan under this key.
	if w.imp == nil {
		w.imp = improve.New()
	}
	out, st, ierr := w.imp.Improve(in, res.Schedule, improve.Options{Deadline: budget})
	setImproveAttrs(isp, st)
	isp.End()
	if ierr != nil || (st.SlotsSaved == 0 && !st.Exact) {
		// An improver failure is a quality loss, not a serving failure:
		// fall back to the unimproved result.
		return res, nil
	}
	next := *res
	if st.SlotsSaved > 0 {
		next.Schedule = out
		next.PA = out.End()
		next.Improved = true
		s.improvements.Add(1)
		s.improveSlotsSaved.Add(int64(st.SlotsSaved))
		s.genHist[0].Add(1)
	}
	// A greedy-optimality proof from the full-tail search upgrades Exact
	// honestly: no greedy-move schedule ends before this one.
	next.Exact = next.Exact || st.Exact
	return &next, nil
}

// setImproveAttrs annotates an improve span with the run's aggregate and
// per-neighborhood statistics. A no-op on the nil span.
func setImproveAttrs(sp *obs.Span, st improve.Stats) {
	if sp == nil {
		return
	}
	sp.SetInt("moves", int64(st.Moves))
	sp.SetInt("accepted", int64(st.Accepted))
	sp.SetInt("slots_saved", int64(st.SlotsSaved))
	sp.SetInt("expanded", int64(st.Expanded))
	sp.SetBool("exact", st.Exact)
	sp.SetBool("converged", st.Converged)
	for _, kind := range []struct {
		name string
		ms   improve.MoveStats
	}{
		{"norm", st.Norm}, {"tail", st.Tail}, {"merge", st.Merge}, {"shift", st.Shift},
	} {
		if kind.ms.Attempted == 0 {
			continue
		}
		sp.SetInt(kind.name+"_attempted", int64(kind.ms.Attempted))
		sp.SetInt(kind.name+"_accepted", int64(kind.ms.Accepted))
		if kind.ms.SlotsSaved > 0 {
			sp.SetInt(kind.name+"_slots_saved", int64(kind.ms.SlotsSaved))
		}
	}
}

// resolveSpec maps the generic "baseline" selection onto the
// system-specific baseline, by the instance's wake system like mlb-run
// does.
func resolveSpec(sp spec, in core.Instance) spec {
	if sp.kind == "baseline" {
		if in.Wake.Rate() > 1 {
			sp.kind = "baseline17"
		} else {
			sp.kind = "baseline26"
		}
	}
	return sp
}

// scheduler returns the worker's reusable engine for a resolved spec,
// building it on first use. Only the worker's own goroutine calls this.
func (w *worker) scheduler(sp spec) core.Scheduler {
	sched, ok := w.engines[sp]
	if !ok {
		sched = newScheduler(sp)
		w.engines[sp] = sched
	}
	return sched
}

func newScheduler(sp spec) core.Scheduler {
	switch sp.kind {
	case "gopt":
		return core.NewGOPT(sp.budget).NewEngine()
	case "opt":
		return core.NewOPT(sp.budget, 0).NewEngine()
	case "emodel":
		return core.NewEModel(emodel.TwoPass)
	case "energy":
		return core.NewEnergyAware()
	case "baseline26":
		return baseline.New26()
	case "baseline17":
		return baseline.New17()
	default:
		panic("service: unreachable scheduler kind " + sp.kind)
	}
}

// Service serves broadcast plans concurrently. Build with New; Close when
// done.
type Service struct {
	// table holds this service's cache and counters for every declared
	// workload, indexed by workload id.
	table   []*workloadState
	gens    *plancache.Cache[core.Instance]
	workers []*worker
	wg      sync.WaitGroup

	mu       sync.RWMutex // guards closed against in-flight Plan entries
	closed   bool
	inflight sync.WaitGroup

	// Background anytime-improvement pool. improving dedupes upgrades per
	// plan key: a key already queued or running is not enqueued again, so
	// a hot key under heavy hit traffic costs at most one inflight
	// improver no matter how many requests carry a budget.
	improveJobs chan improveJob
	improveWg   sync.WaitGroup
	improveMu   sync.Mutex
	improving   map[string]struct{}

	engineStates      atomic.Int64
	engineMemoHits    atomic.Int64
	errs              atomic.Int64
	improvements      atomic.Int64
	improveSlotsSaved atomic.Int64
	improveQueued     atomic.Int64
	improveDropped    atomic.Int64
	genHist           [improveGenBuckets]atomic.Int64
	// hitLatency/missLatency split Plan latency by cache outcome.
	hitLatency  *obs.Histogram
	missLatency *obs.Histogram
}

// improveGenBuckets sizes the generation histogram: bucket i counts
// publications at generation i, with the final bucket absorbing the tail.
// Generations beyond a handful mean the improver keeps finding slack on a
// hot key — worth an operator's eye, not worth unbounded counters.
const improveGenBuckets = 8

// improveJob asks the background pool to upgrade the plan cached under key.
type improveJob struct {
	key    string
	in     core.Instance
	budget time.Duration
}

// New builds and starts a service.
func New(cfg Config) *Service {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	s := &Service{
		gens:        plancache.New[core.Instance](genCacheCapacity, 4),
		hitLatency:  obs.NewHistogram(nil),
		missLatency: obs.NewHistogram(nil),
	}
	for _, open := range declared {
		s.table = append(s.table, open(cfg))
	}
	for i := 0; i < cfg.Workers; i++ {
		w := &worker{
			jobs:       make(chan job, cfg.QueueDepth),
			engines:    make(map[spec]core.Scheduler),
			replanners: make(map[spec]*churn.Replanner),
			aggs:       make(map[string]*aggregate.Scheduler),
		}
		s.workers = append(s.workers, w)
		s.wg.Add(1)
		go w.run(s)
	}
	if cfg.ImproveWorkers > 0 {
		s.improveJobs = make(chan improveJob, improveQueue)
		s.improving = make(map[string]struct{})
		for i := 0; i < cfg.ImproveWorkers; i++ {
			s.improveWg.Add(1)
			go s.runImprover()
		}
	}
	return s
}

// runImprover is one background pool goroutine: it owns a reusable
// improver and upgrades cached plans in place, re-publishing every
// accepted move through the cache's atomic Update so readers always see a
// monotone (generation, end-slot) pair.
func (s *Service) runImprover() {
	defer s.improveWg.Done()
	imp := improve.New()
	for jb := range s.improveJobs {
		s.upgrade(imp, jb)
		s.improveMu.Lock()
		delete(s.improving, jb.key)
		s.improveMu.Unlock()
	}
}

// upgrade runs one background improvement against the plan currently
// cached under jb.key. Peek (not Get) reads it: a maintenance probe must
// not distort hit/miss accounting or entry recency. Each accepted move is
// published immediately — anytime semantics means a client hitting the key
// mid-run gets the best schedule found so far, not the best at enqueue
// time. Update never inserts, so an upgrade racing an eviction drops
// instead of resurrecting the entry.
func (s *Service) upgrade(imp *improve.Improver, jb improveJob) {
	plans := planWorkload.cache(s)
	cur, ok := plans.Peek(jb.key)
	if !ok || cur.Exact {
		return
	}
	publish := func(sched *core.Schedule, exact bool) {
		plans.Update(jb.key, func(res *core.Result) (*core.Result, bool) {
			if sched.End() >= res.Schedule.End() {
				// A concurrent writer (another budget's cold compute, a
				// replan publication) got here with an equal or better
				// plan; never regress, never bump the generation for a
				// non-improvement.
				if exact && sched.End() == res.Schedule.End() && !res.Exact {
					next := *res
					next.Exact = true
					return &next, true
				}
				return res, false
			}
			next := *res
			next.Schedule = sched
			next.PA = sched.End()
			next.Generation = res.Generation + 1
			next.Improved = true
			next.Exact = exact
			s.improvements.Add(1)
			s.improveSlotsSaved.Add(int64(res.Schedule.End() - sched.End()))
			b := next.Generation
			if b >= improveGenBuckets {
				b = improveGenBuckets - 1
			}
			s.genHist[b].Add(1)
			return &next, true
		})
	}
	out, st, err := imp.Improve(jb.in, cur.Schedule, improve.Options{
		Deadline: jb.budget,
		OnImprove: func(sched *core.Schedule, snap improve.Stats) {
			publish(sched, false)
		},
	})
	if err != nil {
		return
	}
	if st.Exact {
		// The full-tail search proved no greedy schedule beats out; stamp
		// the entry exact if it still holds a plan at that end slot.
		publish(out, true)
	}
}

// enqueueImprove asks the background pool to upgrade key, deduping against
// upgrades already queued or running. Never blocks: a full queue counts a
// drop and moves on — improvement is best-effort, serving is not.
func (s *Service) enqueueImprove(key string, in core.Instance, budget time.Duration) {
	if s.improveJobs == nil {
		return
	}
	s.improveMu.Lock()
	if _, busy := s.improving[key]; busy {
		s.improveMu.Unlock()
		return
	}
	s.improving[key] = struct{}{}
	s.improveMu.Unlock()
	select {
	case s.improveJobs <- improveJob{key: key, in: in, budget: budget}:
		s.improveQueued.Add(1)
	default:
		s.improveMu.Lock()
		delete(s.improving, key)
		s.improveMu.Unlock()
		s.improveDropped.Add(1)
	}
}

// Close waits for in-flight requests, stops the workers, and makes further
// Plan calls fail with ErrClosed.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.inflight.Wait()
	for _, w := range s.workers {
		close(w.jobs)
	}
	s.wg.Wait()
	// No Plan is in flight and the workers are gone, so nothing can
	// enqueue another upgrade; drain the background pool last.
	if s.improveJobs != nil {
		close(s.improveJobs)
		s.improveWg.Wait()
	}
}

// resolve materializes the request's instance, serving Generator requests
// from the deployment cache so repeat generator traffic never re-samples
// the topology.
func (s *Service) resolve(req WorkloadRequest) (core.Instance, error) {
	switch {
	case req.Instance != nil && req.Generator != nil:
		return core.Instance{}, errors.New("service: request sets both Instance and Generator")
	case req.Instance != nil:
		return *req.Instance, nil
	case req.Generator == nil:
		return core.Instance{}, errors.New("service: request sets neither Instance nor Generator")
	}
	gen := *req.Generator
	if gen.N < 1 {
		return core.Instance{}, fmt.Errorf("service: generator node count %d", gen.N)
	}
	if gen.N > graphio.MaxWireNodes {
		return core.Instance{}, fmt.Errorf("service: generator node count %d exceeds the wire limit %d", gen.N, graphio.MaxWireNodes)
	}
	if gen.Channels < 0 || gen.Channels > core.MaxChannels {
		return core.Instance{}, fmt.Errorf("service: generator channel count %d outside [0,%d]", gen.Channels, core.MaxChannels)
	}
	if gen.Channels == 1 {
		gen.Channels = 0 // canonical single-channel form, one cache entry
	}
	var sinr *interference.SINRParams
	if gen.SINRAlpha != 0 || gen.SINRBeta != 0 || gen.SINRNoise != 0 {
		sinr = &interference.SINRParams{Alpha: gen.SINRAlpha, Beta: gen.SINRBeta, Noise: gen.SINRNoise}
		if err := sinr.Validate(gen.N); err != nil {
			return core.Instance{}, fmt.Errorf("service: %w", err)
		}
	}
	key := "gen|" + strconv.Itoa(gen.N) + "|" + strconv.FormatUint(gen.Seed, 10) +
		"|" + strconv.Itoa(gen.DutyRate) + "|" + strconv.FormatUint(gen.WakeSeed, 10) +
		"|" + strconv.Itoa(gen.Channels) +
		"|" + strconv.FormatFloat(gen.SINRAlpha, 'g', -1, 64) +
		"|" + strconv.FormatFloat(gen.SINRBeta, 'g', -1, 64) +
		"|" + strconv.FormatFloat(gen.SINRNoise, 'g', -1, 64)
	in, _, _, err := s.gens.GetOrCompute(key, func() (core.Instance, error) {
		dep, err := topology.Generate(topology.PaperConfig(gen.N), gen.Seed)
		if err != nil {
			return core.Instance{}, err
		}
		var in core.Instance
		if gen.DutyRate > 1 {
			ws := gen.WakeSeed
			if ws == 0 {
				ws = gen.Seed ^ 0xA5
			}
			wake := dutycycle.NewUniform(gen.N, gen.DutyRate, ws, 0)
			in = core.Async(dep.G, dep.Source, wake, 0)
		} else {
			in = core.Sync(dep.G, dep.Source)
		}
		in.Channels = gen.Channels
		in.SINR = sinr
		return in, nil
	})
	return in, err
}

// planKey is the plan cache's key for a hex digest under sp.
func planKey(digest string, sp spec) string {
	return digest + "|" + sp.kind + "|" + strconv.Itoa(sp.budget)
}

// search is the plan cache's compute function for key: one search of in
// with sp, dispatched onto the worker shard key owns, then improved for
// up to improveBudget.
func (s *Service) search(key string, in core.Instance, sp spec, improveBudget time.Duration) func(context.Context) (*core.Result, error) {
	return func(ctx context.Context) (*core.Result, error) {
		return dispatch(ctx, s, key, func(w *worker, tr *obs.Trace) (*core.Result, error) {
			return w.exec(s, in, sp, improveBudget, tr)
		})
	}
}

// Plan answers one request: from the cache when the instance has been
// planned before, otherwise by exactly one search even under concurrent
// identical requests.
func (s *Service) Plan(ctx context.Context, req WorkloadRequest) (Response, error) {
	start := time.Now()
	sp, err := parseSpec(req.Scheduler, req.Budget)
	if err != nil {
		return Response{}, err
	}
	in, digest, err := s.admit(ctx, planWorkload.of(s), req, sp.kind, graphio.InstanceDigest)
	if err != nil {
		return Response{}, err
	}
	defer s.inflight.Done()
	key := planKey(digest, sp)

	res, hit, coalesced, err := lookup(ctx, s, "cache", planWorkload.cache(s), key, req.NoCache,
		s.search(key, in, sp, req.ImproveBudget), func(cs *obs.Span, res *core.Result, hit bool) {
			if hit {
				cs.SetInt("generation", int64(res.Generation))
			}
		})
	elapsed := time.Since(start)
	if err != nil {
		return Response{}, err
	}
	if hit {
		s.hitLatency.Observe(elapsed)
		// Serve best-so-far instantly, improve in the background: a warm
		// hit with a budget never pays for its own improvement, it funds
		// the next reader's. Already-exact plans have nothing left.
		if req.ImproveBudget > 0 && !res.Exact {
			// The trace is nil on untraced requests, making every span
			// call a nil-receiver no-op — what keeps the warm path's
			// alloc pin.
			qs := obs.FromContext(ctx).Root().Child("improve_enqueue")
			if qs != nil {
				qs.SetInt("budget_ns", int64(req.ImproveBudget))
				qs.SetInt("queue_depth", int64(len(s.improveJobs)))
			}
			s.enqueueImprove(key, in, req.ImproveBudget)
			qs.End()
		}
	} else {
		s.missLatency.Observe(elapsed)
	}
	return Response{Served: Served{digest, res.Scheduler, hit, coalesced, elapsed}, Instance: in, Result: res}, nil
}

// PlanBatch answers many requests concurrently, preserving order.
// Per-item failures land in Response.Err; the batch itself always returns.
func (s *Service) PlanBatch(ctx context.Context, reqs []WorkloadRequest) []Response {
	resps := make([]Response, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := s.Plan(ctx, reqs[i])
			if err != nil {
				r.Err = err
			}
			resps[i] = r
		}(i)
	}
	wg.Wait()
	return resps
}

// SweepRequest is a streaming parameter sweep over the paper topology
// family: the cross product of Sizes × Seeds, one plan per cell.
type SweepRequest struct {
	Sizes     []int    `json:"sizes"`
	Seeds     []uint64 `json:"seeds"`
	DutyRate  int      `json:"r,omitempty"`
	WakeSeed  uint64   `json:"wake_seed,omitempty"`
	Channels  int      `json:"channels,omitempty"`
	SINRAlpha float64  `json:"sinr_alpha,omitempty"`
	SINRBeta  float64  `json:"sinr_beta,omitempty"`
	SINRNoise float64  `json:"sinr_noise,omitempty"`
	Scheduler string   `json:"scheduler,omitempty"`
	Budget    int      `json:"budget,omitempty"`
	NoCache   bool     `json:"no_cache,omitempty"`
}

// SweepItem is one streamed sweep result.
type SweepItem struct {
	N         int    `json:"n"`
	Seed      uint64 `json:"seed"`
	Digest    string `json:"digest,omitempty"`
	Scheduler string `json:"scheduler,omitempty"`
	PA        int    `json:"pa"`
	Latency   int    `json:"latency"`
	Exact     bool   `json:"exact"`
	CacheHit  bool   `json:"cache_hit"`
	Coalesced bool   `json:"coalesced"`
	ElapsedNs int64  `json:"elapsed_ns"`
	Err       string `json:"error,omitempty"`
}

// Sweep plans every (size, seed) cell and streams each result through emit
// as soon as it is ready. A failing cell is reported in its item and the
// sweep continues; emit returning an error, or ctx expiring, stops it.
func (s *Service) Sweep(ctx context.Context, req SweepRequest, emit func(SweepItem) error) error {
	if len(req.Sizes) == 0 {
		return errors.New("service: sweep needs at least one size")
	}
	seeds := req.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{1}
	}
	for _, n := range req.Sizes {
		for _, seed := range seeds {
			if err := ctx.Err(); err != nil {
				return err
			}
			resp, err := s.Plan(ctx, WorkloadRequest{
				Generator: &Generator{N: n, Seed: seed, DutyRate: req.DutyRate, WakeSeed: req.WakeSeed, Channels: req.Channels,
					SINRAlpha: req.SINRAlpha, SINRBeta: req.SINRBeta, SINRNoise: req.SINRNoise},
				Scheduler: req.Scheduler,
				Budget:    req.Budget,
				NoCache:   req.NoCache,
			})
			item := SweepItem{N: n, Seed: seed}
			if err != nil {
				item.Err = err.Error()
			} else {
				item.Digest = resp.Digest
				item.Scheduler = resp.Scheduler
				item.PA = resp.Result.PA
				item.Latency = resp.Result.Schedule.Latency()
				item.Exact = resp.Result.Exact
				item.CacheHit = resp.CacheHit
				item.Coalesced = resp.Coalesced
				item.ElapsedNs = resp.Elapsed.Nanoseconds()
			}
			if err := emit(item); err != nil {
				return err
			}
		}
	}
	return nil
}

// Metrics snapshots the service counters and latency histograms.
func (s *Service) Metrics() Metrics {
	m := Metrics{
		Errors:            s.errs.Load(),
		EngineStates:      s.engineStates.Load(),
		EngineMemoHits:    s.engineMemoHits.Load(),
		Improvements:      s.improvements.Load(),
		ImproveSlotsSaved: s.improveSlotsSaved.Load(),
		ImproveQueued:     s.improveQueued.Load(),
		ImproveDropped:    s.improveDropped.Load(),
		ImproveQueueDepth: len(s.improveJobs),
		HitLatency:        s.hitLatency.Snapshot(),
		MissLatency:       s.missLatency.Snapshot(),
	}
	for i := range m.Generations {
		m.Generations[i] = s.genHist[i].Load()
	}
	for _, st := range s.table {
		m.Workloads = append(m.Workloads, st.snapshot())
	}
	return m
}
