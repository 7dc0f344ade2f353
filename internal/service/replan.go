package service

import (
	"context"
	"time"

	"mlbs/internal/churn"
	"mlbs/internal/core"
	"mlbs/internal/graphio"
	"mlbs/internal/obs"
)

// ReplanRequest asks the service to repair a cached plan after a topology
// delta instead of searching the mutated instance from scratch. The
// embedded envelope selects the *base* instance the delta applies to
// (exactly one of Instance and Generator) and the engine used for the
// residual (or fallback cold) search; its NoCache bypasses the
// replan-cache lookup only (the outcome is still stored, and the base
// plan still resolves through the plan cache), and its ImproveBudget is
// ignored. Repairs are cached by (base digest, delta digest); cold
// repairs — full engine searches — are additionally published into the
// plan cache under the mutated instance's digest.
type ReplanRequest struct {
	WorkloadRequest
	// Delta is the ordered event sequence to apply to the base instance.
	Delta churn.Delta
}

// ReplanResponse is one replan answer. Result is shared and immutable.
type ReplanResponse struct {
	// Served.Digest content-addresses the mutated instance, BaseDigest the
	// base one; Served's CacheHit/Coalesced describe the replan cache.
	Served
	BaseDigest string
	Result     *core.Result
	// Strategy, KeptAdvances and BaseAdvances report the blast-radius
	// classification (see churn.Strategy).
	Strategy     churn.Strategy
	KeptAdvances int
	BaseAdvances int
	// BasePlanHit reports whether the base plan came from the plan cache.
	// It is only meaningful when this caller actually computed the repair
	// (a replan-cache hit resolves no base plan at all).
	BasePlanHit bool
}

// replanWorkload is the churn-repair pipeline, cached by (base plan key,
// delta digest). Its work counters classify every computed repair by
// churn.Strategy.
var replanWorkload = declare(workload[*replanOutcome]{
	name: "replan", capacity: 1024, shards: 8,
	counters: []Counter{
		{Name: string(churn.StrategyPrefix), Help: "Repairs classified prefix-reusable."},
		{Name: string(churn.StrategyIncremental), Help: "Repairs classified incremental."},
		{Name: string(churn.StrategyCold), Help: "Repairs that fell back to a cold full search."},
	},
})

// replanOutcome is the cached product of one repair. The mutated instance
// itself is not retained — its digest is, and the repaired plan is stored
// in the plan cache under that digest.
type replanOutcome struct {
	res          *core.Result
	digest       string
	strategy     churn.Strategy
	keptAdvances int
	baseAdvances int
}

// execReplan repairs basePlan after delta on the worker's reusable
// replanner (which wraps the same per-spec engine the worker's plan
// searches use — one goroutine, one arena set). The replanner never
// mutates the shared base plan.
func (w *worker) execReplan(s *Service, base core.Instance, sp spec, basePlan *core.Schedule, delta churn.Delta, tr *obs.Trace) (*replanOutcome, error) {
	span := tr.Root().Child("repair")
	defer span.End()
	sp = resolveSpec(sp, base)
	rp, ok := w.replanners[sp]
	if !ok {
		rp = churn.NewReplanner(churn.ReplanConfig{Scheduler: w.scheduler(sp)})
		w.replanners[sp] = rp
	}
	rr, err := rp.Replan(base, basePlan, delta)
	if err != nil {
		return nil, err
	}
	s.engineStates.Add(int64(rr.Result.Stats.Expanded))
	s.engineMemoHits.Add(int64(rr.Result.Stats.MemoHits))
	if span != nil {
		span.SetStr("strategy", string(rr.Strategy))
		span.SetInt("kept_advances", int64(rr.KeptAdvances))
		span.SetInt("base_advances", int64(rr.BaseAdvances))
		if rr.BaseAdvances > 0 {
			span.SetFloat("kept_frac", float64(rr.KeptAdvances)/float64(rr.BaseAdvances))
		}
		span.SetInt("expanded", int64(rr.Result.Stats.Expanded))
		span.SetInt("end_slot", int64(rr.Result.Schedule.End()))
	}
	digest, err := graphio.InstanceDigest(rr.Instance)
	if err != nil {
		return nil, err
	}
	return &replanOutcome{
		res:          rr.Result,
		digest:       digest.String(),
		strategy:     rr.Strategy,
		keptAdvances: rr.KeptAdvances,
		baseAdvances: rr.BaseAdvances,
	}, nil
}

// Replan answers one churn request: resolve the base instance, obtain its
// plan through the plan cache, then serve the repaired plan from the
// replan cache keyed by (base digest, delta digest) — repairing at most
// once even under concurrent identical requests. Cold repairs are
// additionally stored in the plan cache under the *mutated* instance's
// digest (they are exactly what a Plan request would compute), so the
// churned topology content-addresses like any other.
func (s *Service) Replan(ctx context.Context, req ReplanRequest) (ReplanResponse, error) {
	start := time.Now()
	sp, err := parseSpec(req.Scheduler, req.Budget)
	if err != nil {
		return ReplanResponse{}, err
	}
	if err := req.Delta.Validate(); err != nil {
		return ReplanResponse{}, err
	}
	deltaDigest, err := churn.DeltaDigest(req.Delta)
	if err != nil {
		return ReplanResponse{}, err
	}
	base, baseDigest, err := s.admit(ctx, replanWorkload.of(s), req.WorkloadRequest, sp.kind, graphio.InstanceDigest)
	if err != nil {
		return ReplanResponse{}, err
	}
	defer s.inflight.Done()
	pkey := planKey(baseDigest, sp)
	rkey := pkey + "|replan|" + deltaDigest.String()

	// The base plan resolves lazily, inside the repair computation: a
	// replan-cache hit must not pay a base-plan search (the base may have
	// been evicted from the plan cache while the repair is still hot).
	// Steady-state churn traffic repairing the same base over and over
	// finds the base plan in the plan cache on every actual repair.
	var baseHit bool
	out, hit, coalesced, err := lookup(ctx, s, "cache", replanWorkload.cache(s), rkey, req.NoCache,
		func(ctx context.Context) (*replanOutcome, error) {
			basePlan, planHit, _, err := cachedCompute(ctx, planWorkload.cache(s), pkey, false, s.search(pkey, base, sp, 0))
			if err != nil {
				return nil, err
			}
			baseHit = planHit
			return dispatch(ctx, s, rkey, func(w *worker, tr *obs.Trace) (*replanOutcome, error) {
				return w.execReplan(s, base, sp, basePlan.Schedule, req.Delta, tr)
			})
		},
		func(cs *obs.Span, out *replanOutcome, _ bool) {
			cs.SetBool("base_plan_hit", baseHit)
			cs.SetStr("strategy", string(out.strategy))
		})
	if err != nil {
		return ReplanResponse{}, err
	}
	if !hit && !coalesced {
		replanWorkload.of(s).add(string(out.strategy), 1)
		if out.strategy == churn.StrategyCold {
			// A cold repair ran the actual engine on the mutated instance —
			// byte-for-byte what a Plan request would compute — so publish
			// it under the mutated instance's own digest for later Plan
			// traffic. Prefix/incremental repairs stay in the replan cache
			// only: they are valid but possibly suboptimal, and a Plan
			// request for an exactness-claiming scheduler must never be
			// answered with one.
			planWorkload.cache(s).Put(planKey(out.digest, sp), out.res)
		}
	}
	return ReplanResponse{
		Served:       Served{out.digest, out.res.Scheduler, hit, coalesced, time.Since(start)},
		BaseDigest:   baseDigest,
		Result:       out.res,
		Strategy:     out.strategy,
		KeptAdvances: out.keptAdvances,
		BaseAdvances: out.baseAdvances,
		BasePlanHit:  baseHit,
	}, nil
}
