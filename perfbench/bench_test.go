package main

import (
	"bytes"
	"context"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

func mustBuild(t *testing.T, name string, seed uint64) *workload {
	t.Helper()
	w, err := buildWorkload(name, seed, nil)
	if err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	return w
}

func requestBytes(w *workload) [][]byte {
	var out [][]byte
	for _, r := range append(slices.Clone(w.warm), w.pass...) {
		out = append(out, []byte(r.ep), r.body)
	}
	for p := 0; p < 3; p++ {
		for _, i := range w.passOrder(p) {
			out = append(out, w.pass[i].body)
		}
	}
	return out
}

func TestSameSeedSameRequests(t *testing.T) {
	for _, name := range workloadNames {
		a, b := requestBytes(mustBuild(t, name, 5)), requestBytes(mustBuild(t, name, 5))
		if len(a) != len(b) {
			t.Fatalf("%s: %d vs %d request parts", name, len(a), len(b))
		}
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("%s: request part %d differs between builds with one seed", name, i)
			}
		}
	}
}

func TestDifferentSeedDifferentInstances(t *testing.T) {
	for _, name := range workloadNames {
		a, b := mustBuild(t, name, 5), mustBuild(t, name, 6)
		inline := 0
		for i, r := range a.pass {
			if r.inline == nil {
				continue
			}
			inline++
			if bytes.Equal(r.inline, b.pass[i].inline) {
				t.Errorf("%s: request %d ships the same instance under seeds 5 and 6", name, i)
			}
		}
		if inline == 0 {
			t.Errorf("%s: no inline instances", name)
		}
		if slices.Equal(a.passOrder(0), b.passOrder(0)) {
			t.Errorf("%s: seeds 5 and 6 send the first pass in the same order", name)
		}
	}
}

func replayOnce(t *testing.T, name string, seed uint64) *localRun {
	t.Helper()
	s, err := newLocalRun(mustBuild(t, name, seed), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.pass(); err != nil {
		t.Fatal(err)
	}
	return s
}

// The seed moves the deployments, never the work: every answer and every
// search's effort is the same under two seeds.
func TestSeedKeepsWork(t *testing.T) {
	for _, name := range []string{"sync-cold", "derive-cold"} {
		a, b := replayOnce(t, name, 5), replayOnce(t, name, 6)
		if a.rp.cnt != b.rp.cnt {
			t.Errorf("%s: layer counts %+v vs %+v", name, a.rp.cnt, b.rp.cnt)
		}
		for id, x := range a.answers {
			y := b.answers[id]
			if x.slots != y.slots || x.digest == y.digest {
				t.Errorf("%s request %d: slots %d vs %d, digests equal %v", name, id, x.slots, y.slots, x.digest == y.digest)
			}
			if x.plan != nil && x.plan.Stats.Expanded != y.plan.Stats.Expanded {
				t.Errorf("%s request %d: %d vs %d states", name, id, x.plan.Stats.Expanded, y.plan.Stats.Expanded)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if got != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles = %v", got)
	}
}

func names[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

func TestMetricNamesMatchDefinition(t *testing.T) {
	def, err := readDefinition("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var e2e, layers, workloads []string
	units := make(map[string]string)
	for _, m := range def.EndToEnd {
		e2e, units[m.Name] = append(e2e, m.Name), m.Unit
	}
	for _, m := range def.PerLayer {
		layers, units[m.Name] = append(layers, m.Name), m.Unit
	}
	for _, w := range def.Workloads {
		workloads = append(workloads, w.Name)
	}
	slices.Sort(e2e)
	slices.Sort(layers)
	if !slices.Equal(workloads, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", workloads, workloadNames)
	}
	m := &measured{
		w:  &workload{pass: []*request{{}}},
		ph: &phase{samples: []sample{{}}, marks: []mark{{}, {at: time.Second, done: 1}}, wall: time.Second},
	}
	got := endToEnd(m, checked{})
	if n := names(got); !slices.Equal(n, e2e) {
		t.Errorf("end-to-end metrics %v, BENCHMARK.json %v", n, e2e)
	}
	tr := &tracedRun{
		localRun:  &localRun{rp: newReplayer(nil), answers: map[int]*answer{0: {}}, reps: 1, took: time.Second},
		tr:        newTracer(),
		untraced:  time.Second,
		layers:    map[string]*layer{},
		inService: map[int]float64{},
	}
	gotLayers := layerMetrics(m, tr)
	if n := names(gotLayers); !slices.Equal(n, layers) {
		t.Errorf("per-layer metrics %v, BENCHMARK.json %v", n, layers)
	}
	for _, all := range []map[string]metric{got, gotLayers} {
		for k, v := range all {
			if v.Unit != units[k] {
				t.Errorf("%s: unit %q, BENCHMARK.json %q", k, v.Unit, units[k])
			}
		}
	}
}

// A short run of every workload against the real server passes the
// output check.
func TestSmokeRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs mlb-serve")
	}
	dir := t.TempDir()
	server := filepath.Join(dir, "mlb-serve")
	if out, err := exec.Command("go", "build", "-o", server, "mlbs/cmd/mlb-serve").CombinedOutput(); err != nil {
		t.Fatalf("build mlb-serve: %v\n%s", err, out)
	}
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			o := options{workload: name, seed: 3, seconds: 0.1, trace: trace, server: server, out: dir, setups: 1}
			res, err := benchmark(context.Background(), o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if !trace && res.Metrics["success_ratio"].Value != 1 {
				t.Errorf("%s: success_ratio %v", name, res.Metrics["success_ratio"].Value)
			}
		}
	}
}
