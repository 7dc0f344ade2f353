// Command perfbench is the repository's end-to-end benchmark. It starts
// the real mlb-serve binary on loopback, drives one workload from a
// closed-loop load generator, checks every answer against an in-process
// replay of the same requests, and prints one JSON result line. With
// --trace 1 the replay is traced layer by layer and the result carries the
// per-layer metrics instead of the end-to-end ones. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"syscall"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	server   string
	out      string
	setups   int // set-ups per run; setup_s is their median
	// minSamples keeps a slow host measuring until p90 has at least ten
	// samples beyond it.
	minSamples int
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	o := options{setups: 3, minSamples: 100}
	var trace int
	var repeat int
	var config string
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames))
	flag.Uint64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced replay and reports per-layer metrics")
	flag.StringVar(&o.server, "server", "", "path of the mlb-serve binary")
	flag.StringVar(&o.out, "out", ".", "directory for span files")
	flag.IntVar(&repeat, "repeat", 0, "steadiness report: run every workload this many times, interleaved")
	flag.StringVar(&config, "config", "BENCHMARK.json", "benchmark definition read by --repeat")
	flag.Parse()
	o.trace = trace == 1

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if repeat > 0 {
		if err := steadiness(ctx, o, repeat, config); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if o.server == "" {
		fmt.Fprintln(os.Stderr, "perfbench: --server is required")
		os.Exit(2)
	}
	res, err := benchmark(ctx, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// measured is everything one run observes around its measured phase.
type measured struct {
	w         *workload
	setups    []float64
	ph        *phase
	before    map[string]float64
	after     map[string]float64
	serverCPU time.Duration
	selfCPU   time.Duration
	steal     float64
	hwm       int64
}

// benchmark runs one workload: set-ups, the measured phase, the replay,
// the output check, and the metrics of the requested mode.
func benchmark(ctx context.Context, o options) (*result, error) {
	m, err := measure(ctx, o)
	if err != nil {
		return nil, err
	}
	var want map[int]*answer
	var traced *tracedRun
	if o.trace {
		if traced, err = traceReplay(o, m.w); err != nil {
			return nil, err
		}
		want = traced.answers
	} else {
		ref, err := newLocalRun(m.w, nil)
		if err != nil {
			return nil, err
		}
		if err := ref.pass(); err != nil {
			return nil, err
		}
		want = ref.answers
	}
	c := checkPhase(m.w, m.ph, want)
	attempted := len(m.ph.samples)
	res := &result{
		Correct:   len(c.errs) == 0 && c.ok == attempted,
		Attempted: attempted,
		Failed:    attempted - c.ok,
	}
	for _, e := range c.errs {
		fmt.Fprintln(os.Stderr, "perfbench: check:", e)
	}
	diag := diagnostics(m)
	if o.trace {
		res.Metrics = layerMetrics(m, traced)
		traced.report(os.Stderr)
		path := filepath.Join(o.out, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))
		if err := traced.writeSpans(path); err != nil {
			return nil, err
		}
		diag["spans"] = path
		diag["trace.overhead_pct"] = 100 * (traced.took.Seconds()/traced.untraced.Seconds() - 1)
	} else {
		res.Metrics = endToEnd(m, c)
	}
	line, err := json.Marshal(map[string]any{"diagnostics": diag})
	if err != nil {
		return nil, err
	}
	fmt.Println(string(line))
	return res, nil
}

// measure sets the server up o.setups times (keeping the last), then
// runs the measured phase and samples the server and host around it.
func measure(ctx context.Context, o options) (*measured, error) {
	m := &measured{}
	client := newHTTPClient(4)
	var srv *server
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	for i := 0; i < max(1, o.setups); i++ {
		if srv != nil {
			srv.stop()
			srv = nil
		}
		t0 := time.Now()
		w, err := buildWorkload(o.workload, o.seed, nil)
		if err != nil {
			return nil, err
		}
		if srv, err = startServer(o.server, client); err != nil {
			return nil, err
		}
		if err := prime(ctx, client, srv.base, append(slices.Clone(w.warm), w.pass...)); err != nil {
			return nil, err
		}
		m.setups = append(m.setups, time.Since(t0).Seconds())
		m.w = w
	}
	var err error
	if m.before, err = srv.promCounters(ctx, client); err != nil {
		return nil, err
	}
	cpu0, err := procCPU(srv.pid())
	if err != nil {
		return nil, err
	}
	host0, err := readHostCPU()
	if err != nil {
		return nil, err
	}
	self0 := selfCPU()

	serverCPU := func() time.Duration {
		d, err := procCPU(srv.pid())
		if err != nil {
			return 0
		}
		return d
	}
	m.ph = run(ctx, client, srv.base, m.w, time.Duration(o.seconds*float64(time.Second)), o.minSamples, serverCPU)

	m.selfCPU = selfCPU() - self0
	host1, err := readHostCPU()
	if err != nil {
		return nil, err
	}
	m.steal = stealPct(host0, host1)
	cpu1, err := procCPU(srv.pid())
	if err != nil {
		return nil, err
	}
	m.serverCPU = cpu1 - cpu0
	if m.hwm, err = procHWM(srv.pid()); err != nil {
		return nil, err
	}
	if m.after, err = srv.promCounters(ctx, client); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return m, nil
}

// endToEnd computes the metrics a user of mlb-serve sees.
func endToEnd(m *measured, c checked) map[string]metric {
	lat := make([]float64, len(m.ph.samples))
	for i, s := range m.ph.samples {
		lat[i] = ms(s.lat)
	}
	n := len(m.ph.samples)
	rate, cpu := windows(m.ph.marks)
	return map[string]metric{
		"setup_s":            {median(m.setups), "s"},
		"throughput_rps":     {median(rate), "1/s"},
		"latency_p50_ms":     {percentile(lat, 0.50), "ms"},
		"latency_p90_ms":     {percentile(lat, 0.90), "ms"},
		"cpu_ms_per_req":     {median(cpu), "ms"},
		"peak_rss_mb":        {float64(m.hwm) / (1 << 20), "MB"},
		"success_ratio":      {mean(float64(c.ok), n), "ratio"},
		"mean_latency_slots": {c.meanSlots, "slots"},
	}
}

// windows splits the measured phase at pass starts into about ten
// windows of whole passes and returns each window's completion rate and
// server CPU per request. Their medians are the reported figures, so a
// few seconds of host noise move one window, not the result.
func windows(marks []mark) (rate, cpu []float64) {
	passes := len(marks) - 1
	step := max(1, passes/10)
	for lo := 0; lo+step < len(marks); lo += step {
		hi := lo + step
		if hi+step >= len(marks) {
			hi = len(marks) - 1 // the tail joins the last window
		}
		a, b := marks[lo], marks[hi]
		if n := b.done - a.done; n > 0 && b.at > a.at {
			rate = append(rate, float64(n)/(b.at-a.at).Seconds())
			cpu = append(cpu, ms(b.cpu-a.cpu)/float64(n))
		}
		if hi == len(marks)-1 {
			break
		}
	}
	return rate, cpu
}

// diagnostics are the facts that tell a noisy run from a slow program.
func diagnostics(m *measured) map[string]any {
	n := len(m.ph.samples)
	return map[string]any{
		"workload":                m.w.name,
		"go_version":              runtime.Version(),
		"nproc":                   runtime.NumCPU(),
		"cpu_model":               cpuModel(),
		"host.steal_pct":          m.steal,
		"loadgen.cpu_ms_per_req":  mean(ms(m.selfCPU), n),
		"latency_samples":         n,
		"passes":                  n / len(m.w.pass),
		"requests_per_pass":       len(m.w.pass),
		"measured_s":              m.ph.wall.Seconds(),
		"setup_s_each":            m.setups,
		"clients":                 m.w.clients,
		"server_cpu_s":            m.serverCPU.Seconds(),
		"server_cpu_utilization":  m.serverCPU.Seconds() / m.ph.wall.Seconds(),
		"loadgen_cpu_utilization": m.selfCPU.Seconds() / m.ph.wall.Seconds(),
	}
}
