// Command benchjson converts `go test -bench` output on stdin into the
// repo's benchmark-baseline JSON, the machine-readable perf trajectory
// committed as BENCH_fig_pipeline.json. Every input line is echoed to
// stderr so the run stays visible when piped:
//
//	go test -run '^$' -bench 'Eclat|Fig3|Fig4' -benchmem ./... \
//	    | go run ./cmd/benchjson > BENCH_fig_pipeline.json
//
// (or just `make bench-baseline`). Parsed per benchmark: iteration
// count, ns/op, and any further "<value> <unit>" pairs (B/op,
// allocs/op, custom b.ReportMetric units like mae or nm_over_cm).
//
// With -compare, the fresh run is additionally gated against a
// committed baseline and the exit status reports regressions:
//
//	go test -run '^$' -bench '...' -benchmem ./... \
//	    | go run ./cmd/benchjson -compare BENCH_fig_pipeline.json -tolerance 0.15 > /dev/null
//
// (or `make benchgate`). A benchmark regresses when its ns/op exceeds
// the baseline by more than the tolerance fraction, or its allocs/op
// does so beyond a small absolute slack. Benchmarks present on only one
// side are reported but never fail the gate, so adding a benchmark does
// not require regenerating the baseline in the same change.
//
// With -alloc-gate <regexp> (requires -compare), the gate switches to
// allocation-only mode: only benchmarks matching the regexp are gated,
// only on allocs/op (against -alloc-tolerance, default 0.25), and ns/op
// drift is demoted to a note. Allocation counts are deterministic, so
// this mode is safe to enforce on shared CI runners where wall-clock
// gating would flake:
//
//	go test -run '^$' -bench 'EvolveRun|EnsembleReplicates|Fig4' -benchmem . \
//	    | go run ./cmd/benchjson -compare BENCH_fig_pipeline.json \
//	        -alloc-gate 'EvolveRun|EnsembleReplicates|Fig4' > /dev/null
//
// (or `make benchgate-allocs`).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	BytesPerOp *float64           `json:"bytes_per_op,omitempty"`
	AllocsPer  *float64           `json:"allocs_per_op,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`

	// procs is the GOMAXPROCS the benchmark ran at, read from the -N
	// suffix go test appends to its name (no suffix means 1).
	procs int
}

// Baseline is the file-level envelope.
type Baseline struct {
	Generated  string      `json:"generated"`
	GoVersion  string      `json:"go_version"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	comparePath := flag.String("compare", "", "baseline JSON to gate the fresh run against; exit 1 on regression")
	tolerance := flag.Float64("tolerance", 0.15, "allowed fractional ns/op and allocs/op growth for -compare")
	allocGate := flag.String("alloc-gate", "", "regexp of benchmarks gated on allocs/op only (ns/op becomes advisory); requires -compare")
	allocTolerance := flag.Float64("alloc-tolerance", 0.25, "allowed fractional allocs/op growth for -alloc-gate")
	flag.Parse()

	var allocRe *regexp.Regexp
	if *allocGate != "" {
		if *comparePath == "" {
			fmt.Fprintln(os.Stderr, "benchjson: -alloc-gate requires -compare")
			os.Exit(1)
		}
		var err error
		if allocRe, err = regexp.Compile(*allocGate); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson: bad -alloc-gate pattern:", err)
			os.Exit(1)
		}
	}

	base, err := parseBenchOutput(os.Stdin, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(base); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: writing json:", err)
		os.Exit(1)
	}

	if *comparePath == "" {
		return
	}
	raw, err := os.ReadFile(*comparePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: reading baseline:", err)
		os.Exit(1)
	}
	var old Baseline
	if err := json.Unmarshal(raw, &old); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: parsing baseline %s: %v\n", *comparePath, err)
		os.Exit(1)
	}
	var regressions, notes []string
	if allocRe != nil {
		regressions, notes = compareAllocs(&old, base, allocRe, *allocTolerance)
	} else {
		regressions, notes = compareBaselines(&old, base, *tolerance)
	}
	for _, n := range notes {
		fmt.Fprintln(os.Stderr, "benchjson: note:", n)
	}
	gateTol := *tolerance
	if allocRe != nil {
		gateTol = *allocTolerance
	}
	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, "benchjson: REGRESSION:", r)
		}
		fmt.Fprintf(os.Stderr, "benchjson: %d regression(s) vs %s (tolerance %.0f%%)\n",
			len(regressions), *comparePath, gateTol*100)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) within %.0f%% of %s\n",
		len(base.Benchmarks), gateTol*100, *comparePath)
}

// parseBenchOutput scans `go test -bench` output, echoing every line to
// echo, and returns the parsed baseline, whose GOMAXPROCS is the one
// the benchmarks ran at. It errors when no benchmark lines appear (a
// typo'd -bench pattern should fail loudly) and when the benchmarks
// ran at more than one GOMAXPROCS, which one baseline cannot record.
func parseBenchOutput(r io.Reader, echo io.Writer) (*Baseline, error) {
	base := &Baseline{
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			base.CPU = cpu
			continue
		}
		if b, ok := parseBenchLine(line); ok {
			if len(base.Benchmarks) == 0 {
				base.GOMAXPROCS = b.procs
			} else if b.procs != base.GOMAXPROCS {
				return nil, fmt.Errorf("%s ran at GOMAXPROCS %d, earlier benchmarks at %d; record one -cpu value",
					b.Name, b.procs, base.GOMAXPROCS)
			}
			base.Benchmarks = append(base.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading stdin: %w", err)
	}
	if len(base.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark lines on stdin")
	}
	return base, nil
}

// allocSlack is the absolute allocs/op growth always permitted on top
// of the fractional tolerance: low-count benchmarks (say 3 allocs/op)
// would otherwise fail on a single extra allocation that the fractional
// rule was never meant to police.
const allocSlack = 2.0

// compareBaselines gates fresh results against old ones. A benchmark
// regresses when ns/op grows beyond the tolerance fraction, or when
// allocs/op grows beyond the fraction plus allocSlack. Benchmarks
// missing from either side become notes, not regressions. ns/op noise
// is the caller's problem: the tolerance must absorb machine jitter
// (the committed default is 15%).
func compareBaselines(old, fresh *Baseline, tolerance float64) (regressions, notes []string) {
	byName := make(map[string]Benchmark, len(old.Benchmarks))
	for _, b := range old.Benchmarks {
		byName[b.Name] = b
	}
	seen := make(map[string]bool, len(fresh.Benchmarks))
	for _, b := range fresh.Benchmarks {
		seen[b.Name] = true
		ref, ok := byName[b.Name]
		if !ok {
			notes = append(notes, fmt.Sprintf("%s: not in baseline (new benchmark?)", b.Name))
			continue
		}
		if limit := ref.NsPerOp * (1 + tolerance); ref.NsPerOp > 0 && b.NsPerOp > limit {
			regressions = append(regressions, fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f (+%.1f%%, limit +%.0f%%)",
				b.Name, b.NsPerOp, ref.NsPerOp, (b.NsPerOp/ref.NsPerOp-1)*100, tolerance*100))
		}
		if b.AllocsPer != nil && ref.AllocsPer != nil {
			if limit := *ref.AllocsPer*(1+tolerance) + allocSlack; *b.AllocsPer > limit {
				regressions = append(regressions, fmt.Sprintf("%s: %.0f allocs/op vs baseline %.0f (limit %.0f)",
					b.Name, *b.AllocsPer, *ref.AllocsPer, limit))
			}
		}
	}
	for _, b := range old.Benchmarks {
		if !seen[b.Name] {
			notes = append(notes, fmt.Sprintf("%s: in baseline but not in this run", b.Name))
		}
	}
	return regressions, notes
}

// compareAllocs is the allocation-only gate behind -alloc-gate: only
// benchmarks matching re are gated, and only their allocs/op counts,
// which are deterministic and therefore safe to enforce on noisy
// runners. ns/op drift beyond the tolerance is reported as a note so
// the signal stays visible without failing the build. The same
// allocSlack applies on top of the fraction, for low-count benchmarks.
func compareAllocs(old, fresh *Baseline, re *regexp.Regexp, tolerance float64) (regressions, notes []string) {
	byName := make(map[string]Benchmark, len(old.Benchmarks))
	for _, b := range old.Benchmarks {
		byName[b.Name] = b
	}
	for _, b := range fresh.Benchmarks {
		ref, ok := byName[b.Name]
		if !ok {
			notes = append(notes, fmt.Sprintf("%s: not in baseline (new benchmark?)", b.Name))
			continue
		}
		if !re.MatchString(b.Name) {
			continue
		}
		if ref.NsPerOp > 0 && b.NsPerOp > ref.NsPerOp*(1+tolerance) {
			notes = append(notes, fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f (+%.1f%%, advisory in alloc mode)",
				b.Name, b.NsPerOp, ref.NsPerOp, (b.NsPerOp/ref.NsPerOp-1)*100))
		}
		if b.AllocsPer == nil || ref.AllocsPer == nil {
			notes = append(notes, fmt.Sprintf("%s: matched -alloc-gate but allocs/op missing (run with -benchmem)", b.Name))
			continue
		}
		if limit := *ref.AllocsPer*(1+tolerance) + allocSlack; *b.AllocsPer > limit {
			regressions = append(regressions, fmt.Sprintf("%s: %.0f allocs/op vs baseline %.0f (limit %.0f)",
				b.Name, *b.AllocsPer, *ref.AllocsPer, limit))
		}
	}
	return regressions, notes
}

// parseBenchLine parses "BenchmarkName-8   100   123 ns/op   4 B/op ...".
func parseBenchLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	name, procs := fields[0], 1
	// Trim the -<GOMAXPROCS> suffix go test appends to benchmark names
	// run at more than one P.
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if n, err := strconv.Atoi(name[i+1:]); err == nil {
			name, procs = name[:i], n
		}
	}
	b := Benchmark{Name: name, Iterations: iters, procs: procs}
	// Remaining fields are "<value> <unit>" pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = &v
		case "allocs/op":
			b.AllocsPer = &v
		default:
			if b.Metrics == nil {
				b.Metrics = make(map[string]float64)
			}
			b.Metrics[unit] = v
		}
	}
	return b, true
}
