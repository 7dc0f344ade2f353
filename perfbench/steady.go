package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// definition is the part of BENCHMARK.json the steadiness report reads.
type definition struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readDefinition(path string) (*definition, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d definition
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// steadiness runs every workload repeat times, interleaved (workload A,
// B, … then A, B, … again) with a new seed each round, and prints each
// metric's median, quartiles and (Q3−Q1)/median. It fails when an
// end-to-end metric spreads wider than its bound.
func steadiness(ctx context.Context, o options, repeat int, config string) error {
	def, err := readDefinition(config)
	if err != nil {
		return err
	}
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	values := make(map[string]map[string][]float64) // workload → metric → runs
	for _, w := range names {
		values[w] = make(map[string][]float64)
	}
	for i := 0; i < repeat; i++ {
		for _, w := range names {
			seed := o.seed + uint64(i)
			res, err := runChild(ctx, o, w, seed)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: output check failed", w, seed)
			}
			keys := make([]string, 0, len(res.Metrics))
			for k, m := range res.Metrics {
				values[w][k] = append(values[w][k], m.Value)
				keys = append(keys, k)
			}
			slices.Sort(keys)
			fmt.Fprintf(os.Stderr, "steadiness: %s seed %d:", w, seed)
			for _, k := range keys {
				fmt.Fprintf(os.Stderr, " %s=%.5g", k, res.Metrics[k].Value)
			}
			fmt.Fprintln(os.Stderr)
		}
	}
	bounds := make(map[string]float64)
	for _, m := range def.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	flagged := 0
	fmt.Printf("%-12s %-28s %12s %12s %12s %8s %6s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	for _, w := range names {
		metrics := make([]string, 0, len(values[w]))
		for k := range values[w] {
			metrics = append(metrics, k)
		}
		slices.Sort(metrics)
		for _, k := range metrics {
			q := quartiles(values[w][k])
			spread := 0.0
			if q[1] != 0 {
				spread = (q[2] - q[0]) / q[1]
			}
			mark, bound := "", ""
			if b, ok := bounds[k]; ok {
				bound = strconv.FormatFloat(b, 'f', 2, 64)
				if spread > b {
					mark = "  FLAG: spread exceeds bound"
					flagged++
				}
			}
			fmt.Printf("%-12s %-28s %12.5g %12.5g %12.5g %8.4f %6s%s\n", w, k, q[0], q[1], q[2], spread, bound, mark)
		}
	}
	if flagged > 0 {
		return fmt.Errorf("%d end-to-end metrics spread wider than their bound", flagged)
	}
	return nil
}

// runChild runs one benchmark in a child process of this binary and
// parses its result line.
func runChild(ctx context.Context, o options, workload string, seed uint64) (*result, error) {
	trace := "0"
	if o.trace {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, os.Args[0],
		"--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", trace,
		"--server", o.server, "--out", o.out)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return nil, runErr
		}
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &res, nil
}
