// Command perfbench is the end-to-end benchmark of the cuisinevol
// repository. One process runs one workload — the paper pipeline through
// the built CLI, or closed-loop HTTP traffic against in-process servers
// on a loopback listener — checks every output, and prints each metric
// by name with its unit. The last line of standard output is one JSON
// object:
//
//	{"correct": true, "attempted": 1200, "failed": 0, "metrics": {"wall_s": {"value": 9.41, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run records spans around the calls into each layer and reports the
// per-layer metrics instead. Usage (from the repository root, after
// building the CLI):
//
//	perfbench -workload serve-repeat -seed 42 -seconds 10 -trace 0 -bin ./cuisinevol
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// corpusScale is the corpus scale every workload runs at: 0.1 of the
// paper's corpus, about 15.8k recipes over 25 cuisines.
const corpusScale = 0.1

// corpusSeed fixes the corpus: every run works on the corpus the paper's
// seed generates. The workload seed drives only what a run does with it
// (request mixes, model replicate seeds, appended records), so runs on
// different seeds do comparable work.
const corpusSeed = 42

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports every one of them, measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"peak_rss_mb", "MB"},
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"ok_rate", "ratio"},
}

// perLayer are the metrics of single layers, measured in a traced run.
// A workload that does not exercise a layer reports 0 for it.
var perLayer = []metricDef{
	{"experiment.table1_s", "s"},
	{"experiment.fig1_s", "s"},
	{"experiment.fig2_s", "s"},
	{"experiment.fig3_s", "s"},
	{"experiment.fig4_s", "s"},
	{"experiment.fig4_categories_s", "s"},
	{"evomodel.run_ms", "ms"},
	{"itemset.mine_raw_ms", "ms"},
	{"itemset.sets_per_mine", "count"},
	{"server.handler_us", "us"},
	{"server.wire_us", "us"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.computations_per_req", "count"},
	{"server.coalesced_per_req", "count"},
	{"server.append_p50_ms", "ms"},
	{"server.append_p90_ms", "ms"},
	{"itemset.mine_indexed_us", "us"},
	{"overrep.topk_us", "us"},
	{"itemset.index_hit_ratio", "ratio"},
	{"peering.proxied_share", "ratio"},
	{"peering.forward_us", "us"},
	{"corpusstore.append_ms", "ms"},
	{"corpusstore.register_ms", "ms"},
	{"corpusstore.resolve_us", "us"},
	{"itemset.live_append_us", "us"},
	{"itemset.live_snapshot_ms", "ms"},
	{"itemset.index_build_ms", "ms"},
	{"itemset.index_builds_per_read", "count"},
	{"corpusstore.store_bytes", "bytes"},
	{"synth.generate_s", "s"},
	{"corpusstore.import_s", "s"},
	{"trace.accounted_share", "ratio"},
	{"trace.overhead", "ratio"},
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    uint64
	timed   time.Duration // length of the timed phase
	tr      *tracer       // nil with tracing off
	bin     string        // the built cuisinevol CLI
	out     string        // scratch and report directory
	clients int           // closed-loop client goroutines
	scale   float64       // corpus scale
	// Test hooks for toy-size runs: wrap sees every served handler (to
	// inject faults), relaxTail lets a short run report its slowest read
	// as the p99 instead of failing for want of samples.
	wrap      func(http.Handler) http.Handler
	relaxTail bool
}

// outcome is what a workload measured. failed counts operations that
// failed, were refused, or returned wrong bytes; failures keeps the
// first few reasons.
type outcome struct {
	attempted int
	failed    int
	failures  []string
	e2e       map[string]float64
	layers    map[string]float64
	detail    map[string]float64 // counters and extra figures, printed only
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}, detail: map[string]float64{}}
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 10 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

type workloadFunc func(rc *runConfig) (*outcome, error)

var workloads = map[string]workloadFunc{
	"paper-all":      runPaperAll,
	"serve-repeat":   runServeRepeat,
	"serve-distinct": runServeDistinct,
	"serve-live":     runServeLive,
}

func main() { os.Exit(run()) }

func run() int {
	start := time.Now()
	name := flag.String("workload", "", "workload to run: paper-all, serve-repeat, serve-distinct or serve-live")
	seed := flag.Uint64("seed", 42, "workload seed: the corpus and the request mix are functions of it")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	bin := flag.String("bin", "", "path of the built cuisinevol binary")
	out := flag.String("out", ".bench_build/perfbench-out", "directory for scratch files, reports and traces")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || *bin == "" {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload (paper-all|serve-repeat|serve-distinct|serve-live), -seconds > 0, -trace 0|1 and -bin")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	binPath, err := filepath.Abs(*bin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rc := &runConfig{
		seed:    *seed,
		timed:   time.Duration(*seconds * float64(time.Second)),
		bin:     binPath,
		out:     *out,
		clients: min(2, runtime.NumCPU()),
		scale:   corpusScale,
	}
	if *trace == 1 {
		rc.tr = newTracer()
	}
	env := captureEnv(*name, *seed, *trace)
	envLine, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envLine)

	res, err := w(rc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	defs, values := endToEnd, res.e2e
	if rc.tr != nil {
		defs, values = perLayer, res.layers
	}
	metrics := make(map[string]map[string]any, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && rc.tr == nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", *name, d.name)
			return 1
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
		fmt.Printf("metric %-32s %14.6g %s\n", d.name, v, d.unit)
	}
	keys := make([]string, 0, len(res.detail))
	for k := range res.detail {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("detail %-32s %14.6g\n", k, res.detail[k])
	}
	for _, f := range res.failures {
		fmt.Printf("failure %s\n", f)
	}
	fmt.Printf("attempted %d failed %d error_rate %.6g run_s %.3f\n",
		res.attempted, res.failed, ratio(float64(res.failed), float64(res.attempted)), time.Since(start).Seconds())

	report := map[string]any{"env": env, "metrics": metrics, "detail": res.detail, "failures": res.failures,
		"attempted": res.attempted, "failed": res.failed}
	base := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d", *name, *seed, *trace))
	if b, err := json.MarshalIndent(report, "", "  "); err == nil {
		if err := os.WriteFile(base+".json", b, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing report:", err)
		}
	}
	if rc.tr != nil {
		if err := rc.tr.writeJSONL(base + ".spans.jsonl"); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		}
	}

	final, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0 && res.attempted > 0,
		"attempted": max(res.attempted, 1),
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(final))
	return 0
}
