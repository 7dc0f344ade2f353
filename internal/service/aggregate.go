package service

import (
	"context"
	"fmt"
	"time"

	"mlbs/internal/aggregate"
	"mlbs/internal/core"
	"mlbs/internal/graphio"
	"mlbs/internal/obs"
)

// AggregateRequest asks the service for a conflict-aware minimum-latency
// convergecast schedule: every node's reading routed to the sink (the
// instance's Source read in reverse) along an aggregation tree, merged at
// parents on the way. The embedded envelope selects the instance and the
// tree policy — Scheduler is "" or "agg-spt" (shortest-path tree, the
// default) or "agg-bounded" (degree-bounded SPT); Budget and ImproveBudget
// are ignored, and NoCache bypasses the convergecast-plan cache (the
// result is still stored).
type AggregateRequest struct {
	WorkloadRequest
}

// AggregateResponse is one aggregation answer. Result is shared and
// immutable.
type AggregateResponse struct {
	// Served.Digest content-addresses the instance *as an aggregation
	// problem* — the broadcast digest stream plus the "agg" tag, so
	// convergecast and broadcast plans for one topology never alias.
	Served
	Result *aggregate.Result
}

// aggregateWorkload is the convergecast pipeline, cached by the
// "agg"-tagged digest and tree policy.
var aggregateWorkload = declare(workload[*aggregate.Result]{
	name: "aggregate", capacity: 1024, shards: 8,
	counters: []Counter{{Name: "searches", Help: "Convergecast scheduler runs actually executed."}},
})

// parseAggSpec normalizes the aggregation scheduler selection.
func parseAggSpec(name string) (string, error) {
	switch name {
	case "", "agg-spt":
		return "agg-spt", nil
	case "agg-bounded":
		return "agg-bounded", nil
	default:
		return "", fmt.Errorf("service: unknown aggregation scheduler %q (want agg-spt|agg-bounded)", name)
	}
}

// aggScheduler returns the worker's reusable convergecast scheduler for a
// resolved kind, building it on first use. Only the worker's own goroutine
// calls this.
func (w *worker) aggScheduler(kind string) *aggregate.Scheduler {
	sched, ok := w.aggs[kind]
	if !ok {
		sched = &aggregate.Scheduler{}
		if kind == "agg-bounded" {
			sched.Tree = aggregate.TreeBounded
		}
		w.aggs[kind] = sched
	}
	return sched
}

// execAggregate runs one convergecast scheduling job on the worker's
// reusable scheduler.
func (w *worker) execAggregate(s *Service, in core.Instance, kind string, tr *obs.Trace) (*aggregate.Result, error) {
	span := tr.Root().Child("agg_search")
	defer span.End()
	res, err := w.aggScheduler(kind).Schedule(in)
	if err != nil {
		return nil, err
	}
	aggregateWorkload.of(s).add("searches", 1)
	if span != nil {
		span.SetStr("scheduler", res.Scheduler)
		span.SetInt("latency_slots", int64(res.LatencySlots))
		span.SetInt("advances", int64(len(res.Schedule.Advances)))
	}
	return res, nil
}

// Aggregate answers one convergecast request: from the aggregation cache
// when the instance has been scheduled before, otherwise by exactly one
// scheduler run even under concurrent identical requests — the same
// serving discipline Plan uses, against a separate cache keyed by the
// "agg"-tagged digest.
func (s *Service) Aggregate(ctx context.Context, req AggregateRequest) (AggregateResponse, error) {
	start := time.Now()
	kind, err := parseAggSpec(req.Scheduler)
	if err != nil {
		return AggregateResponse{}, err
	}
	in, digest, err := s.admit(ctx, aggregateWorkload.of(s), req.WorkloadRequest, kind, graphio.AggInstanceDigest)
	if err != nil {
		return AggregateResponse{}, err
	}
	defer s.inflight.Done()
	key := digest + "|" + kind

	res, hit, coalesced, err := lookup(ctx, s, "cache", aggregateWorkload.cache(s), key, req.NoCache,
		func(ctx context.Context) (*aggregate.Result, error) {
			return dispatch(ctx, s, key, func(w *worker, tr *obs.Trace) (*aggregate.Result, error) {
				return w.execAggregate(s, in, kind, tr)
			})
		}, nil)
	if err != nil {
		return AggregateResponse{}, err
	}
	return AggregateResponse{Served: Served{digest, res.Scheduler, hit, coalesced, time.Since(start)}, Result: res}, nil
}
