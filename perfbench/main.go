// Command perfbench is the repository's benchmark: it runs one named
// workload against csdsd's server over loopback or against the library
// in-process, checks every output, and prints each metric by name with
// its unit. The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// holding the end-to-end metrics (--trace 0) or the per-layer metrics of
// a second, traced run (--trace 1). Run it from the repository root:
//
//	bash perfbench/run.sh --workload net-point --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all               # every workload
//	bash perfbench/run.sh --workload lib-mixed --repeat 10  # spread per metric
//
// See perfbench/README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	_ "csds/internal/bst"
	_ "csds/internal/combinator"
	_ "csds/internal/hashtable"
	_ "csds/internal/list"
	_ "csds/internal/skiplist"
)

// endToEnd and perLayer name the metrics the JSON line carries, in the
// order of BENCHMARK.json; every workload measures each of them. The
// human-readable report prints more (families a workload alone runs,
// p999, parser time), which the JSON line leaves out.
var (
	endToEnd = []string{
		"setup_s", "ops_per_s",
		"get_p50_us", "get_p99_us", "update_p50_us", "update_p99_us",
		"live_heap_mb",
	}
	perLayer = []string{
		"server.self_us_per_req", "server.keys_per_crossing", "server.shed_frac",
		"combinator.self_ns_per_get", "combinator.self_ns_per_update",
		"leaf.ns_per_get", "leaf.ns_per_update",
		"leaf.lock_wait_frac", "leaf.restart_frac",
		"ebr.retired_per_update", "ebr.reclaim_lag_max", "ebr.pool_hit_frac",
		"gc.cycles", "allocs_per_op",
		"bench.own_frac", "trace.overhead_frac",
	}
)

// setups is how many times an end-to-end run sets up; setup_s is their
// median.
const setups = 11

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	repeat   int
	out      string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	fs.Uint64Var(&o.seed, "seed", 1, "seed the op streams are drawn from")
	fs.IntVar(&o.seconds, "seconds", 20, "length of the timed window in seconds")
	fs.IntVar(&o.trace, "trace", 0, "1: per-layer metrics from an untraced and a traced run, half the window each")
	fs.IntVar(&o.repeat, "repeat", 0, "run K times with seeds seed..seed+K-1 and print each metric's median, quartiles and spread")
	fs.StringVar(&o.out, "out", ".bench_build/perfbench", "directory traced runs write their span dump to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || o.seconds < 1 || (o.trace != 0 && o.trace != 1) || o.repeat < 0 {
		fmt.Fprintln(stderr, "perfbench: want --workload W --seed N --seconds S --trace 0|1 [--repeat K]")
		return 2
	}
	if o.workload != "all" {
		if _, ok := lookupWorkload(o.workload); !ok {
			fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s, all)\n", o.workload, strings.Join(workloadNames(), ", "))
			return 2
		}
	}
	switch {
	case o.repeat > 0:
		return repeatRuns(o, stdout, stderr)
	case o.workload == "all":
		return runAll(o, stdout, stderr)
	}
	w, _ := lookupWorkload(o.workload)
	window := time.Duration(o.seconds) * time.Second
	fmt.Fprintf(stdout, "# perfbench %s seed=%d seconds=%d trace=%d\n# why: %s\n", w.name, o.seed, o.seconds, o.trace, w.why)
	if o.trace == 1 {
		return traceRun(w, o, window, stdout, stderr)
	}
	out, err := measure(w, o.seed, window, false, setups)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	printHeader(stdout, out)
	ms := endToEndMetrics(out)
	printMetrics(stdout, ms)
	attempted, failed := counts(out)
	return emit(stdout, stderr, ms, endToEnd, attempted, failed, out.violations)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// traceRun splits the window between an untraced and a traced run of the
// same inputs, so a traced invocation takes as long as an untraced one.
func traceRun(w *workloadDef, o options, window time.Duration, stdout, stderr io.Writer) int {
	window /= 2
	u, err := measure(w, o.seed, window, false, 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: untraced run:", err)
		return 1
	}
	t, err := measure(w, o.seed, window, true, 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: traced run:", err)
		return 1
	}
	pc := calibrateProbe(1 << 18)
	printHeader(stdout, t)
	ms := layerMetrics(u, t, pc)
	printMetrics(stdout, ms)
	printLayerSum(stdout, t, pc)
	path, err := dumpSpans(o.out, w, o.seed, t)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: span dump:", err)
		return 1
	}
	fmt.Fprintf(stdout, "# spans: %s\n", path)
	ua, uf := counts(u)
	ta, tf := counts(t)
	return emit(stdout, stderr, ms, perLayer, ua+ta, uf+tf, append(u.violations, t.violations...))
}

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

func printHeader(w io.Writer, out *runOut) {
	fmt.Fprintf(w, "# spec %s size=%d keyspace=%d mix=%s workers=%d", out.spec, out.w.size, 2*out.w.size, out.w.mix, out.w.workers)
	if out.w.net {
		fmt.Fprintf(w, " (connections, %d requests per flush)", out.w.depth)
	}
	fmt.Fprintln(w)
}

func printMetrics(w io.Writer, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(w, "%-30s %16.6g %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
	all := make(map[string]jsonMetric, len(ms))
	for _, m := range ms {
		all[m.name] = jsonMetric{m.value, m.unit}
	}
	b, _ := json.Marshal(all) // floats from finite arithmetic; maps of them always marshal
	fmt.Fprintf(w, "%s%s\n", allMetricsPrefix, b)
}

// allMetricsPrefix marks the line carrying every printed metric, which
// repeat mode reads alongside the JSON result.
const allMetricsPrefix = "# all-metrics "

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// emit prints the violations and the JSON result line carrying the
// names metrics; it returns the exit code (1 on any violation).
func emit(stdout, stderr io.Writer, ms []metric, names []string, attempted, failed uint64, violations []string) int {
	res := result{Correct: len(violations) == 0, Attempted: attempted, Failed: failed, Metrics: map[string]jsonMetric{}}
	for _, m := range ms {
		if slices.Contains(names, m.name) {
			res.Metrics[m.name] = jsonMetric{m.value, m.unit}
		}
	}
	if len(res.Metrics) != len(names) {
		fmt.Fprintf(stderr, "perfbench: measured %d of the %d metrics %v\n", len(res.Metrics), len(names), names)
		return 1
	}
	for _, v := range violations {
		fmt.Fprintln(stderr, "perfbench: VIOLATION:", v)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !res.Correct {
		return 1
	}
	return 0
}

// counts returns the requests attempted and failed in the window.
func counts(out *runOut) (attempted, failed uint64) {
	for _, r := range out.recs {
		for _, n := range r.reqs {
			attempted += n
		}
		failed += r.failed
	}
	return attempted, failed
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEndMetrics are what a caller sees: set-up time, request rate,
// latency per request family, failures and memory.
func endToEndMetrics(out *runOut) []metric {
	attempted, failed := counts(out)
	setup := fmt.Sprintf("median of %d set-ups: build, prefill %d keys", len(out.setupS), out.w.size)
	if out.w.net {
		setup += ", boot the server, connect"
	}
	ms := []metric{
		{"setup_s", median(append([]float64(nil), out.setupS...)), "s", setup},
		{"ops_per_s", out.opsPerSec, "1/s", fmt.Sprintf("median of %d sub-windows; %d requests", out.plan.n, attempted)},
	}
	for f := family(0); f < numFam; f++ {
		fs := out.fams[f]
		if fs.n == 0 {
			continue
		}
		note := fmt.Sprintf("median of per-sub-window quantiles; n=%d", fs.n)
		ms = append(ms,
			metric{f.String() + "_p50_us", fs.p50 / 1e3, "us", note},
			metric{f.String() + "_p99_us", fs.p99 / 1e3, "us", note})
	}
	ms = append(ms,
		metric{"failed_frac", ratio(float64(failed), float64(attempted)), "frac", fmt.Sprintf("%d shed or errored", failed)},
		metric{"live_heap_mb", out.heapMB, "MB", "heap after a forced GC, structure live, inputs released"})
	return ms
}
