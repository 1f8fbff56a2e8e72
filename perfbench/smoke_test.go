package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

var (
	cliOnce sync.Once
	cliPath string
	cliErr  error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if cliPath != "" {
		os.RemoveAll(filepath.Dir(cliPath))
	}
	os.Exit(code)
}

// buildCLI builds cuisinevol once per test binary.
func buildCLI(t *testing.T) string {
	t.Helper()
	cliOnce.Do(func() {
		dir, err := os.MkdirTemp("", "perfbench-cli")
		if err != nil {
			cliErr = err
			return
		}
		cliPath = filepath.Join(dir, "cuisinevol")
		out, err := exec.Command("go", "build", "-o", cliPath, "cuisinevol/cmd/cuisinevol").CombinedOutput()
		if err != nil {
			cliErr = err
			t.Logf("%s", out)
		}
	})
	if cliErr != nil {
		t.Fatalf("building cuisinevol: %v", cliErr)
	}
	return cliPath
}

// corruptEvery flips one byte in every n-th 200 body of a GET under
// /v1/, as a faulty layer between server and client would.
func corruptEvery(n int64) func(http.Handler) http.Handler {
	var count atomic.Int64
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodGet || !strings.HasPrefix(r.URL.Path, "/v1/") {
				h.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			if rec.Code == http.StatusOK && len(body) > 0 && count.Add(1)%n == 0 {
				body[len(body)/2] ^= 0x20
			}
			for k, vs := range rec.Header() {
				w.Header()[k] = vs
			}
			w.WriteHeader(rec.Code)
			w.Write(body)
		})
	}
}

// checkOutcome asserts every metric of the mode was measured, and
// returns the outcome's failure count.
func checkOutcome(t *testing.T, o *outcome, traced bool) int {
	t.Helper()
	if o.attempted == 0 {
		t.Fatal("nothing attempted")
	}
	if traced {
		for _, k := range []string{"trace.accounted_share", "synth.generate_s"} {
			if o.layers[k] <= 0 {
				t.Errorf("%s = %v", k, o.layers[k])
			}
		}
		return o.failed
	}
	for _, d := range endToEnd {
		if v, ok := o.e2e[d.name]; !ok || v <= 0 {
			t.Errorf("%s = %v (measured: %v)", d.name, v, ok)
		}
	}
	return o.failed
}

func TestServeWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("toy-size end-to-end runs")
	}
	for _, name := range []string{"serve-repeat", "serve-distinct", "serve-live"} {
		t.Run(name, func(t *testing.T) {
			rc := toyConfig(t)
			o, err := workloads[name](rc)
			if err != nil {
				t.Fatal(err)
			}
			if n := checkOutcome(t, o, false); n != 0 {
				t.Fatalf("clean run failed %d operations: %v", n, o.failures)
			}

			rc = toyConfig(t)
			rc.tr = newTracer()
			rc.wrap = corruptEvery(7)
			o, err = workloads[name](rc)
			if err != nil {
				t.Fatal(err)
			}
			if n := checkOutcome(t, o, true); n == 0 {
				t.Fatal("corrupted bodies went unnoticed")
			}
		})
	}
}

func TestPaperAllSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("toy-size end-to-end runs")
	}
	rc := toyConfig(t)
	rc.bin = buildCLI(t)
	o, err := runPaperAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	if n := checkOutcome(t, o, false); n != 0 {
		t.Fatalf("clean run failed %d operations: %v", n, o.failures)
	}

	// Corrupt the cached reference: every run must now disagree with it.
	refs, err := filepath.Glob(filepath.Join(rc.out, "ref", "*", "artifacts", "table1.csv"))
	if err != nil || len(refs) != 1 {
		t.Fatalf("reference artifacts: %v, %v", refs, err)
	}
	b, err := os.ReadFile(refs[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x20
	if err := os.WriteFile(refs[0], b, 0o644); err != nil {
		t.Fatal(err)
	}
	o, err = runPaperAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	if o.failed == 0 {
		t.Fatal("a corrupted artifact went unnoticed")
	}

	rc.tr = newTracer()
	o, err = runPaperAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	if n := checkOutcome(t, o, true); n != 0 {
		t.Fatalf("traced run failed: %v", o.failures)
	}
	for _, k := range []string{"experiment.fig4_s", "evomodel.run_ms", "itemset.mine_raw_ms", "itemset.sets_per_mine"} {
		if o.layers[k] <= 0 {
			t.Errorf("%s = %v", k, o.layers[k])
		}
	}
}

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json and the metric
// tables the harness prints in step.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the harness")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s %s, the harness %s %s",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
