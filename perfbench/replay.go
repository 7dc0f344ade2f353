package main

import (
	"fmt"
	"time"

	"mlbs/internal/aggregate"
	"mlbs/internal/churn"
	"mlbs/internal/core"
	"mlbs/internal/emodel"
	"mlbs/internal/graphio"
	"mlbs/internal/reliability"
)

// span is one traced call into a layer. Times are nanoseconds since the
// tracer started; parent is an index into the tracer's spans (-1 for a
// root) and req the request id the call served (-1 outside a request).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// tracer keeps spans in memory. A nil tracer records nothing, which is
// how the untraced replay runs the very same code.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
	req   int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), req: -1} }

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Req: t.req})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// setReq attributes the spans that follow to request id.
func (t *tracer) setReq(id int) {
	if t != nil {
		t.req = id
	}
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// counts are the layer counters the traced replay records next to its
// spans, so ratios come from where the work happens.
type counts struct {
	searches, exact, states, memoHits int
	trials                            int
	replans, coldReplans              int
}

// answer is the locally computed outcome of one request: what the output
// check holds each HTTP response to.
type answer struct {
	slots  int
	digest string
	plan   *core.Result        // plan and replan
	agg    *aggregate.Result   // aggregate
	report *reliability.Report // validate
}

// replayer answers requests in-process the way the service does, calling
// each layer's public functions around tracer spans. Its caches stand in
// for the service's plan, aggregate, validate and replan caches.
type replayer struct {
	tr     *tracer
	cnt    counts
	search *tracedSearch
	agg    aggregate.Scheduler
	aggB   aggregate.Scheduler
	est    *reliability.Estimator
	rp     *churn.Replanner
	plans  map[string]*core.Result
	cached map[string]*answer
}

func newReplayer(tr *tracer) *replayer {
	rp := &replayer{
		tr:     tr,
		est:    reliability.NewEstimator(),
		aggB:   aggregate.Scheduler{Tree: aggregate.TreeBounded},
		plans:  make(map[string]*core.Result),
		cached: make(map[string]*answer),
	}
	rp.search = newTracedSearch(tr, &rp.cnt)
	rp.rp = churn.NewReplanner(churn.ReplanConfig{Scheduler: rp.search})
	return rp
}

// tracedSearch is the service's G-OPT engine with the program's own
// E-model incumbent wrapped in a span, so the weight build shows as an
// emodel.build span nested in core.search.
type tracedSearch struct {
	tr  *tracer
	cnt *counts
	en  *core.Engine
}

func newTracedSearch(tr *tracer, cnt *counts) *tracedSearch {
	em := core.NewEModel(emodel.TwoPass)
	incumbent := &core.Policy{
		RuleName: em.RuleName,
		NewRule: func(in core.Instance) (core.SelectRule, error) {
			sp := tr.begin("emodel.build")
			rule, err := em.NewRule(in)
			tr.end(sp)
			return rule, err
		},
	}
	s := core.NewSearch("G-OPT", core.SearchConfig{Moves: core.GreedyMoves, Budget: core.DefaultBudget, Incumbent: incumbent})
	return &tracedSearch{tr: tr, cnt: cnt, en: s.NewEngine()}
}

func (s *tracedSearch) Name() string { return s.en.Name() }

func (s *tracedSearch) Schedule(in core.Instance) (*core.Result, error) {
	sp := s.tr.begin("core.search")
	res, err := s.en.Schedule(in)
	s.tr.end(sp)
	if err == nil {
		s.cnt.searches++
		s.cnt.states += res.Stats.Expanded
		s.cnt.memoHits += res.Stats.MemoHits
		if res.Exact {
			s.cnt.exact++
		}
	}
	return res, err
}

// answer runs one request through decode, digest, the endpoint's layers
// and encode, serving from the replay caches where the service would.
// Spans of unrecorded requests (the warm-up) carry request id -2.
func (rp *replayer) answer(r *request, recorded bool) (*answer, error) {
	id := -2
	if recorded {
		id = r.id
	}
	rp.tr.setReq(id)
	root := rp.tr.begin("request")
	defer func() {
		rp.tr.end(root)
		rp.tr.setReq(-1)
	}()
	in := r.inst
	if r.inline != nil {
		sp := rp.tr.begin("graphio.decode")
		dec, err := graphio.DecodeInstance(r.inline)
		rp.tr.end(sp)
		if err != nil {
			return nil, err
		}
		in = dec
	}
	digestOf := graphio.InstanceDigest
	if r.ep == epAggregate {
		digestOf = graphio.AggInstanceDigest
	}
	sp := rp.tr.begin("graphio.digest")
	d, err := digestOf(in)
	rp.tr.end(sp)
	if err != nil {
		return nil, err
	}
	digest := d.String()
	key := r.ep + "|" + digest
	switch r.ep {
	case epAggregate:
		key += fmt.Sprintf("|%v", r.bounded)
	case epValidate:
		key += fmt.Sprintf("|%v", r.loss)
	case epReplan:
		dd, err := churn.DeltaDigest(r.delta)
		if err != nil {
			return nil, err
		}
		key += "|" + dd.String()
	}
	a, hit := rp.cached[key]
	if !hit || r.noCache {
		if a, err = rp.compute(r, in, digest); err != nil {
			return nil, err
		}
		rp.cached[key] = a
	}
	return a, rp.encode(a)
}

// planFor is the service's base-plan lookup: cached, or one search.
func (rp *replayer) planFor(in core.Instance, digest string) (*core.Result, error) {
	if res, ok := rp.plans[digest]; ok {
		return res, nil
	}
	res, err := rp.search.Schedule(in)
	if err != nil {
		return nil, err
	}
	rp.plans[digest] = res
	return res, nil
}

func (rp *replayer) compute(r *request, in core.Instance, digest string) (*answer, error) {
	switch r.ep {
	case epPlan:
		var res *core.Result
		var err error
		if r.noCache {
			res, err = rp.search.Schedule(in)
			rp.plans[digest] = res
		} else {
			res, err = rp.planFor(in, digest)
		}
		if err != nil {
			return nil, err
		}
		return &answer{slots: res.Schedule.Latency(), digest: digest, plan: res}, nil
	case epAggregate:
		sched := &rp.agg
		if r.bounded {
			sched = &rp.aggB
		}
		sp := rp.tr.begin("aggregate.schedule")
		res, err := sched.Schedule(in)
		rp.tr.end(sp)
		if err != nil {
			return nil, err
		}
		return &answer{slots: res.LatencySlots, digest: digest, agg: res}, nil
	case epValidate:
		base, err := rp.planFor(in, digest)
		if err != nil {
			return nil, err
		}
		sp := rp.tr.begin("reliability.estimate")
		rep, err := rp.est.Estimate(in, base.Schedule, r.loss, reliability.Config{Trials: validateTrials, Workers: 1})
		rp.tr.end(sp)
		if err != nil {
			return nil, err
		}
		rp.cnt.trials += rep.Trials
		return &answer{slots: rep.ScheduleLatency, digest: digest, report: rep}, nil
	case epReplan:
		base, err := rp.planFor(in, digest)
		if err != nil {
			return nil, err
		}
		sp := rp.tr.begin("churn.replan")
		rr, err := rp.rp.Replan(in, base.Schedule, r.delta)
		rp.tr.end(sp)
		if err != nil {
			return nil, err
		}
		rp.cnt.replans++
		if rr.Strategy == churn.StrategyCold {
			rp.cnt.coldReplans++
		}
		sp = rp.tr.begin("graphio.digest")
		md, err := graphio.InstanceDigest(rr.Instance)
		rp.tr.end(sp)
		if err != nil {
			return nil, err
		}
		return &answer{slots: rr.Result.Schedule.Latency(), digest: md.String(), plan: rr.Result}, nil
	}
	return nil, fmt.Errorf("unknown endpoint %q", r.ep)
}

// encode serializes the answer's wire payload, as the handler does.
func (rp *replayer) encode(a *answer) error {
	sp := rp.tr.begin("graphio.encode")
	defer rp.tr.end(sp)
	var err error
	switch {
	case a.plan != nil:
		_, err = graphio.EncodeResult(a.plan)
	case a.agg != nil:
		_, err = graphio.EncodeAggResult(a.agg)
	case a.report != nil:
		_, err = graphio.EncodeReliabilityReport(a.report)
	}
	return err
}

// localRun is one replayer answering one workload: the warm-up once, then
// recorded passes.
type localRun struct {
	w       *workload
	rp      *replayer
	answers map[int]*answer // first pass, by request id
	took    time.Duration   // the recorded passes
	reps    int
}

func newLocalRun(w *workload, tr *tracer) (*localRun, error) {
	s := &localRun{w: w, rp: newReplayer(tr), answers: make(map[int]*answer, len(w.pass))}
	for _, r := range w.warm {
		if _, err := s.rp.answer(r, false); err != nil {
			return nil, fmt.Errorf("replay %s: %w", r.ep, err)
		}
	}
	s.rp.cnt = counts{}
	return s, nil
}

// pass answers the pass once, recorded.
func (s *localRun) pass() error {
	t0 := time.Now()
	for _, r := range s.w.pass {
		a, err := s.rp.answer(r, true)
		if err != nil {
			return fmt.Errorf("replay %s: %w", r.ep, err)
		}
		if s.reps == 0 {
			s.answers[r.id] = a
		}
	}
	s.took += time.Since(t0)
	s.reps++
	return nil
}
