package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// child runs this program once more, as a separate process, on one
// workload and seed, and returns its output.
func child(o options, workload string, seed uint64, stderr io.Writer) ([]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(o.seconds), "--trace", strconv.Itoa(o.trace), "--out", o.out)
	cmd.Stderr = stderr
	return cmd.Output()
}

// parseOutput reads a run's result line (the last line) and its
// all-metrics line.
func parseOutput(out []byte) (res result, all map[string]jsonMetric, err error) {
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, nil, fmt.Errorf("result line: %w", err)
	}
	for _, l := range lines {
		if rest, ok := strings.CutPrefix(l, allMetricsPrefix); ok {
			if err := json.Unmarshal([]byte(rest), &all); err != nil {
				return res, nil, fmt.Errorf("all-metrics line: %w", err)
			}
		}
	}
	return res, all, nil
}

func selected(o options) []string {
	if o.workload == "all" {
		return workloadNames()
	}
	return []string{o.workload}
}

// runAll runs every workload once, each in its own process, prints their
// reports, and ends with one JSON line whose metrics are keyed
// workload/metric.
func runAll(o options, stdout, stderr io.Writer) int {
	sum := result{Correct: true, Metrics: map[string]jsonMetric{}}
	code := 0
	for _, name := range selected(o) {
		out, err := child(o, name, o.seed, stderr)
		stdout.Write(out)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
			code = 1
			sum.Correct = false
			continue
		}
		res, _, err := parseOutput(out)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		sum.Correct = sum.Correct && res.Correct
		sum.Attempted += res.Attempted
		sum.Failed += res.Failed
		for k, v := range res.Metrics {
			sum.Metrics[name+"/"+k] = v
		}
	}
	b, _ := json.Marshal(sum) // values came from JSON; they marshal back
	fmt.Fprintf(stdout, "%s\n", b)
	return code
}

// benchSpec is the part of BENCHMARK.json repeat mode reads.
type benchSpec struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// repeatRuns runs each selected workload o.repeat times with seeds
// o.seed, o.seed+1, ... and prints, per metric, the median, the
// quartiles (as Python's statistics.quantiles computes them) and the
// spread (q3-q1)/median next to the metric's bound in BENCHMARK.json.
func repeatRuns(o options, stdout, stderr io.Writer) int {
	bounds := map[string]float64{}
	if b, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var spec benchSpec
		if err := json.Unmarshal(b, &spec); err != nil {
			fmt.Fprintln(stderr, "perfbench: BENCHMARK.json:", err)
			return 1
		}
		for _, m := range spec.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	code := 0
	for _, name := range selected(o) {
		values := map[string][]float64{}
		units := map[string]string{}
		for i := 0; i < o.repeat; i++ {
			seed := o.seed + uint64(i)
			out, err := child(o, name, seed, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", name, seed, err)
				return 1
			}
			res, all, err := parseOutput(out)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", name, seed, err)
				return 1
			}
			if !res.Correct {
				code = 1
			}
			for k, v := range all {
				values[k] = append(values[k], v.Value)
				units[k] = v.Unit
			}
			fmt.Fprintf(stderr, "perfbench: %s seed %d done\n", name, seed)
		}
		printSpread(stdout, name, o, values, units, bounds)
	}
	return code
}

func printSpread(w io.Writer, name string, o options, values map[string][]float64, units map[string]string, bounds map[string]float64) {
	var names []string
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s: %d runs, seeds %d..%d, trace=%d\n", name, o.repeat, o.seed, o.seed+uint64(o.repeat)-1, o.trace)
	fmt.Fprintf(w, "%-30s %14s %14s %14s %8s %7s %s\n", "metric", "median", "q1", "q3", "spread", "bound", "unit")
	for _, k := range names {
		xs := values[k]
		med := median(append([]float64(nil), xs...))
		q1, q3 := med, med
		if len(xs) >= 2 {
			q1, q3 = quartiles(append([]float64(nil), xs...))
		}
		spread := ratio(q3-q1, med)
		bound, verdict := "-", ""
		if b, ok := bounds[k]; ok && o.trace == 0 {
			bound = strconv.FormatFloat(b, 'f', 2, 64)
			switch {
			case k == "setup_s":
				verdict = "(spread not gated)"
			case spread <= b/3:
				verdict = "steady"
			case spread <= b:
				verdict = "within bound"
			default:
				verdict = "WIDER THAN BOUND"
			}
		}
		fmt.Fprintf(w, "%-30s %14.6g %14.6g %14.6g %8.4f %7s %s %s\n", k, med, q1, q3, spread, bound, units[k], verdict)
	}
}
