package main

import (
	"io"
	"regexp"
	"strings"
	"testing"
)

func fptr(v float64) *float64 { return &v }

func mustCompile(t *testing.T, pattern string) *regexp.Regexp {
	t.Helper()
	re, err := regexp.Compile(pattern)
	if err != nil {
		t.Fatal(err)
	}
	return re
}

func TestParseBenchLine(t *testing.T) {
	b, ok := parseBenchLine("BenchmarkEclatReplicatePool-8   	     960	   1168830 ns/op	   56780 B/op	     808 allocs/op")
	if !ok {
		t.Fatal("line did not parse")
	}
	if b.Name != "BenchmarkEclatReplicatePool" {
		t.Errorf("name = %q, want GOMAXPROCS suffix trimmed", b.Name)
	}
	if b.Iterations != 960 || b.NsPerOp != 1168830 {
		t.Errorf("iters/ns = %d/%v", b.Iterations, b.NsPerOp)
	}
	if b.BytesPerOp == nil || *b.BytesPerOp != 56780 || b.AllocsPer == nil || *b.AllocsPer != 808 {
		t.Errorf("mem stats = %v/%v", b.BytesPerOp, b.AllocsPer)
	}

	// Custom b.ReportMetric units land in Metrics.
	b, ok = parseBenchLine("BenchmarkFig4-4   2   5000 ns/op   0.035 mae")
	if !ok || b.Metrics["mae"] != 0.035 {
		t.Errorf("custom metric: ok=%v metrics=%v", ok, b.Metrics)
	}

	for _, line := range []string{
		"goos: linux",
		"PASS",
		"ok  	cuisinevol/internal/itemset	0.023s",
		"Benchmark",                   // no fields
		"BenchmarkX notanint 1 ns/op", // bad iteration count
		"",
	} {
		if _, ok := parseBenchLine(line); ok {
			t.Errorf("line %q parsed as a benchmark", line)
		}
	}
}

func TestParseBenchOutput(t *testing.T) {
	out := `goos: linux
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkA-8   10   100 ns/op   50 B/op   3 allocs/op
BenchmarkB-8   20   200 ns/op
PASS
`
	base, err := parseBenchOutput(strings.NewReader(out), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if base.CPU != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Errorf("cpu = %q", base.CPU)
	}
	if len(base.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(base.Benchmarks))
	}
	if _, err := parseBenchOutput(strings.NewReader("PASS\n"), io.Discard); err == nil {
		t.Error("benchmark-free input should error")
	}
}

// TestParseBenchOutputGOMAXPROCS: the baseline records the GOMAXPROCS
// the benchmarks ran at, from their -N name suffix (none means 1), not
// the converter's own, and refuses output mixing several values.
func TestParseBenchOutputGOMAXPROCS(t *testing.T) {
	for _, c := range []struct {
		out   string
		procs int
	}{
		{"BenchmarkA   10   100 ns/op\nBenchmarkB/sub=8   20   200 ns/op\n", 1},
		{"BenchmarkA-4   10   100 ns/op\nBenchmarkB/sub=8-4   20   200 ns/op\n", 4},
	} {
		base, err := parseBenchOutput(strings.NewReader(c.out), io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if base.GOMAXPROCS != c.procs {
			t.Errorf("%q: gomaxprocs = %d, want %d", c.out, base.GOMAXPROCS, c.procs)
		}
	}
	mixed := "BenchmarkA   10   100 ns/op\nBenchmarkA-2   10   100 ns/op\n"
	if _, err := parseBenchOutput(strings.NewReader(mixed), io.Discard); err == nil {
		t.Error("output mixing GOMAXPROCS values should error")
	}
}

func TestCompareBaselines(t *testing.T) {
	old := &Baseline{Benchmarks: []Benchmark{
		{Name: "BenchmarkA", NsPerOp: 1000, AllocsPer: fptr(100)},
		{Name: "BenchmarkB", NsPerOp: 1000, AllocsPer: fptr(3)},
		{Name: "BenchmarkGone", NsPerOp: 1},
	}}

	cases := []struct {
		name        string
		fresh       []Benchmark
		regressions int
		notes       int
	}{
		{"within tolerance", []Benchmark{
			{Name: "BenchmarkA", NsPerOp: 1100, AllocsPer: fptr(100)},
			{Name: "BenchmarkB", NsPerOp: 900, AllocsPer: fptr(3)},
		}, 0, 1}, // BenchmarkGone missing → note
		{"ns regression", []Benchmark{
			{Name: "BenchmarkA", NsPerOp: 1200, AllocsPer: fptr(100)},
		}, 1, 2},
		{"alloc regression", []Benchmark{
			{Name: "BenchmarkA", NsPerOp: 1000, AllocsPer: fptr(118)},
		}, 1, 2},
		{"alloc slack absorbs tiny growth", []Benchmark{
			{Name: "BenchmarkB", NsPerOp: 1000, AllocsPer: fptr(5)},
		}, 0, 2},
		{"new benchmark is a note, not a failure", []Benchmark{
			{Name: "BenchmarkA", NsPerOp: 1000, AllocsPer: fptr(100)},
			{Name: "BenchmarkNew", NsPerOp: 9999},
		}, 0, 3},
		{"just inside the limit is not a regression", []Benchmark{
			{Name: "BenchmarkA", NsPerOp: 1149, AllocsPer: fptr(116)},
		}, 0, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			regs, notes := compareBaselines(old, &Baseline{Benchmarks: tc.fresh}, 0.15)
			if len(regs) != tc.regressions {
				t.Errorf("regressions = %v, want %d", regs, tc.regressions)
			}
			if len(notes) != tc.notes {
				t.Errorf("notes = %v, want %d", notes, tc.notes)
			}
		})
	}
}

func TestCompareAllocs(t *testing.T) {
	old := &Baseline{Benchmarks: []Benchmark{
		{Name: "BenchmarkEvolveRun/CM-R", NsPerOp: 1000, AllocsPer: fptr(100)},
		{Name: "BenchmarkFig4ModelComparison", NsPerOp: 1000, AllocsPer: fptr(1000)},
		{Name: "BenchmarkUnrelated", NsPerOp: 1000, AllocsPer: fptr(10)},
		{Name: "BenchmarkNoMem", NsPerOp: 1000},
	}}
	re := mustCompile(t, "EvolveRun|Fig4|NoMem")

	cases := []struct {
		name        string
		fresh       []Benchmark
		regressions int
		notes       int
	}{
		{"within alloc tolerance", []Benchmark{
			{Name: "BenchmarkEvolveRun/CM-R", NsPerOp: 1000, AllocsPer: fptr(120)},
		}, 0, 0},
		{"alloc regression fails", []Benchmark{
			{Name: "BenchmarkFig4ModelComparison", NsPerOp: 1000, AllocsPer: fptr(1300)},
		}, 1, 0},
		{"ns regression is only a note", []Benchmark{
			{Name: "BenchmarkEvolveRun/CM-R", NsPerOp: 5000, AllocsPer: fptr(100)},
		}, 0, 1},
		{"non-matching benchmark never gated", []Benchmark{
			{Name: "BenchmarkUnrelated", NsPerOp: 9000, AllocsPer: fptr(9000)},
		}, 0, 0},
		{"missing allocs on a gated benchmark is a note", []Benchmark{
			{Name: "BenchmarkNoMem", NsPerOp: 1000},
		}, 0, 1},
		{"new benchmark is a note, not a failure", []Benchmark{
			{Name: "BenchmarkEvolveRun/NEW", NsPerOp: 1, AllocsPer: fptr(1)},
		}, 0, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			regs, notes := compareAllocs(old, &Baseline{Benchmarks: tc.fresh}, re, 0.25)
			if len(regs) != tc.regressions {
				t.Errorf("regressions = %v, want %d", regs, tc.regressions)
			}
			if len(notes) != tc.notes {
				t.Errorf("notes = %v, want %d", notes, tc.notes)
			}
		})
	}
}
