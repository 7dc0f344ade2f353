package service

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"mlbs/internal/core"
	"mlbs/internal/graphio"
	"mlbs/internal/obs"
	"mlbs/internal/reliability"
)

// MaxValidateTrials caps one validation's Monte-Carlo batch so a single
// request cannot pin a worker indefinitely.
const MaxValidateTrials = 100_000

// ValidateRequest asks the service what a schedule actually delivers on a
// lossy channel: plan the instance (through the regular plan cache), then
// Monte-Carlo-replay the schedule under the loss model. The embedded
// envelope selects the instance and the plan whose schedule is validated;
// its NoCache bypasses the reliability-report cache only (the plan cache
// still serves the schedule), and its ImproveBudget is ignored.
type ValidateRequest struct {
	WorkloadRequest
	// Loss is the stochastic channel (defaults: iid kind).
	Loss reliability.LossModel
	// Trials sizes the Monte-Carlo batch; 0 selects the reliability
	// package default, values above MaxValidateTrials are rejected.
	Trials int
	// Target, when > 0, additionally runs conflict-aware retransmission
	// repair until the mean delivery ratio reaches it (see
	// reliability.RepairConfig).
	Target float64
	// MaxExtraSlots caps the repair latency penalty; 0 selects the
	// default.
	MaxExtraSlots int
}

// ValidateResponse is one validation answer. Report (and Repair, when a
// target was set) are shared and immutable.
type ValidateResponse struct {
	// Served's CacheHit/Coalesced describe the reliability-report cache.
	Served
	// Report is the Monte-Carlo estimate — for repair runs, the estimate
	// of the *repaired* schedule (Repair.Before holds the baseline).
	Report *reliability.Report
	Repair *reliability.RepairResult
	// PlanCacheHit reports whether the underlying schedule came from the
	// plan cache.
	PlanCacheHit bool
}

// validateKey extends the plan key with everything the Monte-Carlo answer
// depends on: loss-model parameters, trial count, and the repair target.
func validateKey(pkey string, m reliability.LossModel, trials int, target float64, maxExtra int) string {
	return pkey + "|v|" + m.Kind +
		"|" + strconv.FormatFloat(m.Rate, 'x', -1, 64) +
		"|" + strconv.FormatUint(m.Seed, 10) +
		"|" + strconv.Itoa(trials) +
		"|" + strconv.FormatFloat(target, 'x', -1, 64) +
		"|" + strconv.Itoa(maxExtra)
}

// validateWorkload is the Monte-Carlo reliability pipeline, cached by the
// plan key extended with the loss model, trial count and repair target.
var validateWorkload = declare(workload[*validateOutcome]{
	name: "validate", capacity: 1024, shards: 8,
	counters: []Counter{{Name: "trials", Help: "Monte-Carlo trials executed."}},
})

// validateOutcome is the cached product of one validation: the estimate,
// plus the repair result when a target was requested.
type validateOutcome struct {
	report *reliability.Report
	repair *reliability.RepairResult
}

// execValidate runs one Monte-Carlo validation of sched on the worker's
// reusable estimator, repairing toward target when it is > 0. Trials run
// single-threaded here — the pool provides the concurrency across
// requests, and the report is identical either way. Repair never mutates
// the (shared, immutable) schedule it is given; it clones before
// appending.
func (w *worker) execValidate(in core.Instance, sched *core.Schedule, model reliability.LossModel,
	trials int, target float64, maxExtra int) (*validateOutcome, error) {
	if w.est == nil {
		w.est = reliability.NewEstimator()
	}
	if target > 0 {
		rr, err := w.est.Repair(in, sched, model, reliability.RepairConfig{
			Target:        target,
			Trials:        trials,
			Workers:       1,
			MaxExtraSlots: maxExtra,
		})
		if err != nil {
			return nil, err
		}
		return &validateOutcome{report: rr.After, repair: rr}, nil
	}
	rep, err := w.est.Estimate(in, sched, model, reliability.Config{Trials: trials, Workers: 1})
	if err != nil {
		return nil, err
	}
	return &validateOutcome{report: rep}, nil
}

// Validate answers one reliability request: resolve the instance, obtain
// its schedule through the plan cache, then serve the Monte-Carlo report
// from the reliability cache — computing it at most once even under
// concurrent identical requests.
func (s *Service) Validate(ctx context.Context, req ValidateRequest) (ValidateResponse, error) {
	start := time.Now()
	sp, err := parseSpec(req.Scheduler, req.Budget)
	if err != nil {
		return ValidateResponse{}, err
	}
	model, err := req.Loss.Normalize()
	if err != nil {
		return ValidateResponse{}, err
	}
	trials := req.Trials
	if trials <= 0 {
		trials = reliability.DefaultTrials
	}
	if trials > MaxValidateTrials {
		return ValidateResponse{}, fmt.Errorf("service: %d trials exceeds the cap of %d", trials, MaxValidateTrials)
	}
	if req.Target < 0 || req.Target > 1 {
		return ValidateResponse{}, fmt.Errorf("service: repair target %v outside [0, 1]", req.Target)
	}
	maxExtra := req.MaxExtraSlots
	if maxExtra <= 0 {
		maxExtra = reliability.DefaultMaxExtraSlots
	}
	if req.Target == 0 {
		// No repair: the slot budget cannot influence the answer, so
		// normalize it out of the cache key — distinct max_extra_slots
		// values must not fragment the cache over identical work.
		maxExtra = 0
	}
	in, digest, err := s.admit(ctx, validateWorkload.of(s), req.WorkloadRequest, sp.kind, graphio.InstanceDigest)
	if err != nil {
		return ValidateResponse{}, err
	}
	defer s.inflight.Done()
	pkey := planKey(digest, sp)

	// The schedule itself always goes through the plan cache: re-running
	// the search would not change the Monte-Carlo answer, only waste a
	// worker.
	res, planHit, _, err := lookup(ctx, s, "cache", planWorkload.cache(s), pkey, false, s.search(pkey, in, sp, 0), nil)
	if err != nil {
		return ValidateResponse{}, err
	}

	vkey := validateKey(pkey, model, trials, req.Target, maxExtra)
	out, hit, coalesced, err := lookup(ctx, s, "mc_validate", validateWorkload.cache(s), vkey, req.NoCache,
		func(ctx context.Context) (*validateOutcome, error) {
			return dispatch(ctx, s, vkey, func(w *worker, _ *obs.Trace) (*validateOutcome, error) {
				out, err := w.execValidate(in, res.Schedule, model, trials, req.Target, maxExtra)
				if err == nil {
					// Repair re-estimates once per round on top of the
					// baseline estimate; count every replay actually run.
					batches := int64(1)
					if out.repair != nil {
						batches = int64(out.repair.Rounds) + 1
					}
					validateWorkload.of(s).add("trials", int64(trials)*batches)
				}
				return out, err
			})
		},
		func(vs *obs.Span, out *validateOutcome, _ bool) {
			vs.SetInt("trials", int64(trials))
			vs.SetFloat("target", req.Target)
			if out.report != nil {
				vs.SetFloat("delivery_mean", out.report.MeanDeliveryRatio)
			}
		})
	if err != nil {
		return ValidateResponse{}, err
	}
	return ValidateResponse{Served: Served{digest, res.Scheduler, hit, coalesced, time.Since(start)},
		Report: out.report, Repair: out.repair, PlanCacheHit: planHit}, nil
}
