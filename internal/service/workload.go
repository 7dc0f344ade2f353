package service

import (
	"context"
	"sync/atomic"

	"mlbs/internal/core"
	"mlbs/internal/graphio"
	"mlbs/internal/obs"
	"mlbs/internal/plancache"
)

// workload declares one serving pipeline — plan, aggregate, validate,
// replan — once, as a package variable in the workload's own file. New
// gives every Service its own cache and counters for each declared
// workload, and Metrics (hence /metrics) walks them in declaration order.
// V is the type the workload's cache holds.
type workload[V any] struct {
	id int
	// name is the workload's metric prefix: mlbs_<name>_requests_total,
	// mlbs_<name>_cache_hits_total and so on.
	name string
	// capacity and shards bound the workload's cache; capacity 0 takes
	// Config.CacheCapacity.
	capacity, shards int
	// counters name the work counters kept beside the request count, each
	// exported as mlbs_<name>_<Counter.Name>_total.
	counters []Counter
}

// workloadState is one Service's live state for a declared workload.
type workloadState struct {
	name     string
	cache    interface{ Stats() plancache.Stats } // the workload's *plancache.Cache[V]
	requests atomic.Int64
	counters []Counter      // declared names and HELP texts
	counts   []atomic.Int64 // live values, parallel to counters
}

// declared builds each declared workload's per-Service state, in
// declaration order; a workload's id is its index here and in
// Service.table.
var declared []func(Config) *workloadState

// declare registers a workload. Call it only from a package-level variable
// initializer.
func declare[V any](wl workload[V]) *workload[V] {
	wl.id = len(declared)
	declared = append(declared, func(cfg Config) *workloadState {
		capacity := wl.capacity
		if capacity == 0 {
			capacity = cfg.CacheCapacity
		}
		return &workloadState{name: wl.name, cache: plancache.New[V](capacity, wl.shards),
			counters: wl.counters, counts: make([]atomic.Int64, len(wl.counters))}
	})
	return &wl
}

// of returns s's state for the workload.
func (wl *workload[V]) of(s *Service) *workloadState { return s.table[wl.id] }

// cache returns s's cache for the workload.
func (wl *workload[V]) cache(s *Service) *plancache.Cache[V] {
	return wl.of(s).cache.(*plancache.Cache[V])
}

// add bumps the named work counter.
func (st *workloadState) add(name string, delta int64) {
	for i, c := range st.counters {
		if c.Name == name {
			st.counts[i].Add(delta)
			return
		}
	}
	panic("service: workload " + st.name + " has no counter " + name)
}

func (st *workloadState) snapshot() WorkloadMetrics {
	m := WorkloadMetrics{Name: st.name, Requests: st.requests.Load(), Cache: st.cache.Stats()}
	for i, c := range st.counters {
		c.Value = st.counts[i].Load()
		m.Counters = append(m.Counters, c)
	}
	return m
}

// WorkloadMetrics is one workload's traffic: the requests it received
// (after the instance resolved), its work counters and its cache's
// counters.
type WorkloadMetrics struct {
	// Name is the workload's metric prefix (mlbs_<Name>_*).
	Name     string
	Requests int64
	Counters []Counter
	Cache    plancache.Stats
}

// Counter is one work counter of a workload: its name, HELP text and, in
// a snapshot, its value.
type Counter struct {
	Name, Help string
	Value      int64
}

// Counter returns the named work counter's value (0 for an unknown name).
func (m WorkloadMetrics) Counter(name string) int64 {
	for _, c := range m.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// admit is the request preamble every workload shares: it registers the
// request as in flight (failing with ErrClosed once Close has begun),
// honours a cancelled ctx, then resolves the instance and content-
// addresses it with digest under a "resolve" span, and counts the request
// against st. It returns the instance and its digest in hex. On success
// the caller holds an in-flight slot and must release it with
// s.inflight.Done().
func (s *Service) admit(ctx context.Context, st *workloadState, req WorkloadRequest, scheduler string,
	digest func(core.Instance) (graphio.Digest, error)) (in core.Instance, hex string, err error) {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return in, "", ErrClosed
	}
	s.inflight.Add(1)
	s.mu.RUnlock()
	defer func() {
		if err != nil {
			s.inflight.Done()
		}
	}()
	if err = ctx.Err(); err != nil {
		return in, "", err
	}
	rs := obs.FromContext(ctx).Root().Child("resolve")
	defer rs.End()
	if in, err = s.resolve(req); err != nil {
		return in, "", err
	}
	d, err := digest(in)
	if err != nil {
		return in, "", err
	}
	if rs != nil {
		rs.SetInt("nodes", int64(in.G.N()))
		rs.SetStr("scheduler", scheduler)
	}
	st.requests.Add(1)
	return in, d.String(), nil
}

// dispatch runs fn on the worker shard owned by key and waits for its
// result. The caller's trace rides along: under singleflight only the
// leader's context reaches this point, so exactly one trace collects the
// worker-side spans (handing the pointer across goroutines is safe, every
// span operation takes the trace's own mutex). Once queued the job runs
// to completion (its budget or trial count bounds the time); ctx only
// guards the queueing itself.
func dispatch[V any](ctx context.Context, s *Service, key string, fn func(*worker, *obs.Trace) (V, error)) (V, error) {
	// plancache.KeyHash, not a local hash: worker selection deliberately
	// co-shards with the cache so repeats of an instance land on the
	// worker whose engine/estimator arenas are already sized for it.
	w := s.workers[int(plancache.KeyHash(key)%uint64(len(s.workers)))]
	tr := obs.FromContext(ctx)
	var v V
	var err error
	done := make(chan struct{})
	select {
	case w.jobs <- func(w *worker) {
		v, err = fn(w, tr)
		close(done)
	}:
	case <-ctx.Done():
		return v, ctx.Err()
	}
	<-done
	return v, err
}

// lookup is the cache phase every workload shares: it serves key from c
// through compute (see cachedCompute) under a span named phase and counts
// a failure against the service's error total. annotate, when non-nil,
// adds the workload's own attributes to the span of a served value.
func lookup[V any](ctx context.Context, s *Service, phase string, c *plancache.Cache[V], key string, noCache bool,
	compute func(context.Context) (V, error), annotate func(sp *obs.Span, val V, hit bool)) (val V, hit, coalesced bool, err error) {
	sp := obs.FromContext(ctx).Root().Child(phase)
	defer sp.End()
	if val, hit, coalesced, err = cachedCompute(ctx, c, key, noCache, compute); err != nil {
		s.errs.Add(1)
		return val, false, false, err
	}
	if sp != nil {
		sp.SetBool("hit", hit)
		sp.SetBool("coalesced", coalesced)
		if annotate != nil {
			annotate(sp, val, hit)
		}
	}
	return val, hit, coalesced, nil
}

// cachedCompute is the shared serving discipline of every content-
// addressed cache in the service: serve key from c, computing at most
// once even under concurrent identical requests. noCache bypasses the
// lookup but still stores the result. The computation always runs with a
// context detached from the caller's cancellation — it is shared by every
// coalesced waiter, so it must not die with the leader's request context
// (a leader disconnecting would fail N−1 innocent callers).
func cachedCompute[V any](ctx context.Context, c *plancache.Cache[V], key string, noCache bool,
	compute func(context.Context) (V, error)) (val V, hit, coalesced bool, err error) {
	if noCache {
		// Nothing is shared on the bypass path — the lone caller's own
		// context governs its computation.
		val, err = compute(ctx)
		if err == nil {
			c.Put(key, val)
		}
		return val, false, false, err
	}
	shared := context.WithoutCancel(ctx)
	return c.GetOrCompute(key, func() (V, error) {
		return compute(shared)
	})
}
