package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// tracedRun is the traced in-process replay of one workload next to an
// untraced replay of the same passes.
type tracedRun struct {
	*localRun
	tr       *tracer
	untraced time.Duration
	layers   map[string]*layer
	// inService is, per request id, the mean time per pass of the layer
	// calls that run inside the service's own elapsed window (all but
	// the handler's decode and encode).
	inService map[int]float64
}

// layer sums one span name's calls: total duration and self time (the
// duration minus what its child spans cover).
type layer struct {
	calls     int
	dur, self time.Duration
}

// replayMin is how long the replays run at least, so per-call times of
// cheap layers average over many calls.
const replayMin = time.Second

// traceReplay alternates untraced and traced passes over the same
// requests until the untraced ones have taken replayMin, so host noise
// falls on both alike. The traced run rebuilds the workload so that
// topology.Generate is traced too.
func traceReplay(o options, w *workload) (*tracedRun, error) {
	un, err := newLocalRun(w, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	tw, err := buildWorkload(o.workload, o.seed, tr)
	if err != nil {
		return nil, err
	}
	traced, err := newLocalRun(tw, tr)
	if err != nil {
		return nil, err
	}
	for un.reps == 0 || un.took < replayMin && un.reps < 1000 {
		if err := un.pass(); err != nil {
			return nil, err
		}
		if err := traced.pass(); err != nil {
			return nil, err
		}
	}
	run := &tracedRun{localRun: traced, tr: tr, untraced: un.took, layers: make(map[string]*layer), inService: make(map[int]float64)}
	run.summarize()
	return run, nil
}

// summarize folds the spans into per-layer sums. Only recorded requests
// count, plus topology generation, which happens outside any request.
func (t *tracedRun) summarize() {
	spans := t.tr.spans
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	for i, s := range spans {
		if s.Req < 0 && s.Name != "topology.generate" {
			continue
		}
		d := time.Duration(s.End - s.Start)
		l := t.layers[s.Name]
		if l == nil {
			l = &layer{}
			t.layers[s.Name] = l
		}
		l.calls++
		l.dur += d
		l.self += d - child[i]
		if s.Parent >= 0 && spans[s.Parent].Name == "request" && s.Name != "graphio.decode" && s.Name != "graphio.encode" {
			t.inService[s.Req] += ms(d) / float64(t.reps)
		}
	}
}

// meanMs is a layer's mean duration per call, in ms (0 when never called).
func (t *tracedRun) meanMs(name string) float64 {
	l := t.layers[name]
	if l == nil {
		return 0
	}
	return mean(ms(l.dur), l.calls)
}

func (t *tracedRun) selfMs(name string) float64 {
	l := t.layers[name]
	if l == nil {
		return 0
	}
	return mean(ms(l.self), l.calls)
}

// layerMetrics computes the per-layer metrics from the measured phase's
// server-side figures and the traced replay.
func layerMetrics(m *measured, t *tracedRun) map[string]metric {
	n := len(m.ph.samples)
	var self, elapsed, unattributed []float64
	size := 0
	for _, s := range m.ph.samples {
		self = append(self, ms(s.lat-s.elapsed))
		elapsed = append(elapsed, ms(s.elapsed))
		unattributed = append(unattributed, ms(s.elapsed)-t.inService[s.req])
		size += s.size
	}
	delta := func(name string) float64 { return m.after[name] - m.before[name] }
	var hits, lookups float64
	for _, c := range []string{"plan", "aggregate", "validate", "replan"} {
		h, miss := delta("mlbs_"+c+"_cache_hits_total"), delta("mlbs_"+c+"_cache_misses_total")
		hits += h
		lookups += h + miss
	}
	c := t.rp.cnt
	requests := len(t.answers) * t.reps
	estimate := t.layers["reliability.estimate"]
	trialsPerS := 0.0
	if estimate != nil && estimate.dur > 0 {
		trialsPerS = float64(c.trials) / estimate.dur.Seconds()
	}
	return map[string]metric{
		"mlb-serve.http_self_ms_p50":  {percentile(self, 0.50), "ms"},
		"service.elapsed_ms_p50":      {percentile(elapsed, 0.50), "ms"},
		"service.elapsed_ms_p90":      {percentile(elapsed, 0.90), "ms"},
		"service.unattributed_ms_p50": {percentile(unattributed, 0.50), "ms"},
		"plancache.hit_ratio":         {ratio(hits, lookups), "ratio"},
		"plancache.evictions":         {delta("mlbs_plan_cache_evictions_total"), "count"},
		"topology.generate_ms":        {t.meanMs("topology.generate"), "ms"},
		"graphio.digest_us":           {1000 * t.meanMs("graphio.digest"), "us"},
		"graphio.encode_us":           {1000 * t.meanMs("graphio.encode"), "us"},
		"graphio.decode_us":           {1000 * t.meanMs("graphio.decode"), "us"},
		"graphio.response_kb":         {mean(float64(size)/1024, n), "KB"},
		"emodel.build_ms":             {t.meanMs("emodel.build"), "ms"},
		"core.search_ms":              {t.meanMs("core.search"), "ms"},
		"core.search_self_ms":         {t.selfMs("core.search"), "ms"},
		"core.states_per_req":         {mean(float64(c.states), requests), "count"},
		"core.memo_hit_ratio":         {ratio(float64(c.memoHits), float64(c.memoHits+c.states)), "ratio"},
		"core.exact_ratio":            {ratio(float64(c.exact), float64(c.searches)), "ratio"},
		"reliability.estimate_ms":     {t.meanMs("reliability.estimate"), "ms"},
		"sim.trials_per_s":            {trialsPerS, "1/s"},
		"aggregate.schedule_ms":       {t.meanMs("aggregate.schedule"), "ms"},
		"churn.replan_ms":             {t.meanMs("churn.replan"), "ms"},
		"churn.cold_ratio":            {ratio(float64(c.coldReplans), float64(c.replans)), "ratio"},
		"runtime.gc_per_1k_req":       {1000 * mean(delta("mlbs_gc_cycles_total"), n), "count"},
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// report prints each layer's calls, mean time and self time, with its
// share of the traced passes' total self time.
func (t *tracedRun) report(out io.Writer) {
	names := make([]string, 0, len(t.layers))
	var total time.Duration
	for name, l := range t.layers {
		names = append(names, name)
		if name != "topology.generate" {
			total += l.self
		}
	}
	slices.SortFunc(names, func(a, b string) int { return int(t.layers[b].self - t.layers[a].self) })
	fmt.Fprintf(out, "traced replay: %d passes, traced %.1f ms, untraced %.1f ms\n",
		t.reps, ms(t.took), ms(t.untraced))
	fmt.Fprintf(out, "%-22s %8s %12s %12s %7s\n", "layer", "calls", "mean_ms", "self_ms", "share")
	for _, name := range names {
		l := t.layers[name]
		share := ""
		if name != "topology.generate" && total > 0 {
			share = fmt.Sprintf("%6.1f%%", 100*float64(l.self)/float64(total))
		}
		fmt.Fprintf(out, "%-22s %8d %12.4f %12.2f %7s\n", name, l.calls, mean(ms(l.dur), l.calls), ms(l.self), share)
	}
}

// writeSpans writes every span as one JSON line.
func (t *tracedRun) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
