package loadtest

import (
	"context"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cuisinevol/internal/recipe"
	"cuisinevol/internal/server"
	"cuisinevol/internal/synth"
)

var (
	corpusOnce   sync.Once
	sharedCorpus *recipe.Corpus
	corpusErr    error
)

func testCorpus(t *testing.T) *recipe.Corpus {
	t.Helper()
	corpusOnce.Do(func() {
		gen := synth.DefaultConfig(42)
		gen.RecipeScale = 0.05
		sharedCorpus, corpusErr = synth.Generate(gen)
	})
	if corpusErr != nil {
		t.Fatal(corpusErr)
	}
	return sharedCorpus
}

// eventually spins (yielding, not sleeping) until cond holds; the
// conditions below are guaranteed to converge within microseconds of an
// already-observed event, so this only smooths over the nanosecond gap
// between an atomic admission decision and its metrics write.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("condition never held: %s", what)
		}
		runtime.Gosched()
	}
}

func metric(t *testing.T, h http.Handler, name string) float64 {
	t.Helper()
	v, ok := Metric(h, name)
	if !ok {
		t.Fatalf("metric %s not exported", name)
	}
	return v
}

// TestShedExactlyBeyondQueueCap is the acceptance invariant: with
// Compute=C slots, queue cap Q and N≫C+Q concurrent distinct requests
// against a server whose computations are all held on a chaos gate,
// exactly C+Q requests admit and the other N−C−Q are shed fast with
// 503 + Retry-After — before any computation finishes, with no
// time-based sleeps anywhere. Shed requests never consume a compute
// slot (the computation counter proves it), the /metrics shed counter
// matches the observed 503s, and every completed response is
// byte-identical to an unloaded baseline server's answer.
func TestShedExactlyBeyondQueueCap(t *testing.T) {
	corpus := testCorpus(t)
	const C, Q, N = 2, 3, 24

	gate := make(chan struct{})
	var blocked atomic.Int64
	opts := server.Options{
		Seed:       42,
		Replicates: 2,
		Compute:    C,
		MaxQueue:   Q,
		Timeout:    -1, // deadlines off: requests resolve by gate, not clock
		Corpus:     corpus,
		Chaos: &server.ChaosConfig{
			Seed:        7,
			LatencyRate: 1, // every computation holds its slot on the gate
			Block: func(ctx context.Context, key string) error {
				blocked.Add(1)
				select {
				case <-gate:
					return nil
				case <-ctx.Done():
					return ctx.Err()
				}
			},
		},
	}
	srv, err := server.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	mix := Distinct(corpus, 1, N)
	run := Start(h, mix)

	// The system fills monotonically — C slots, then Q queue entries,
	// then sheds — so the first N−C−Q completions must all be 503s.
	shed := run.Await(N - C - Q)
	for _, res := range shed {
		if res.Status != http.StatusServiceUnavailable {
			t.Fatalf("pre-gate completion %s: status %d (want 503), body %s", res.Path, res.Status, res.Body)
		}
		if res.RetryAfter == "" {
			t.Fatalf("shed response %s missing Retry-After", res.Path)
		}
		if !strings.Contains(res.Body, "retry_after_seconds") {
			t.Fatalf("shed response %s lacks structured retry hint: %s", res.Path, res.Body)
		}
	}

	// Exactly C computations hold slots and Q wait; metrics agree with
	// the observed sheds before anything completes.
	eventually(t, "C computations blocked", func() bool { return blocked.Load() == C })
	eventually(t, "inflight gauge = C", func() bool { return metric(t, h, "cuisinevol_compute_inflight") == C })
	eventually(t, "waiting gauge = Q", func() bool { return metric(t, h, "cuisinevol_compute_waiting") == Q })
	if got := metric(t, h, "cuisinevol_shed_total"); got != N-C-Q {
		t.Fatalf("shed_total = %v, want %d", got, N-C-Q)
	}

	// Open the gate: every admitted request completes normally.
	close(gate)
	rest := run.Wait().Results
	if len(rest) != C+Q {
		t.Fatalf("admitted %d requests, want exactly C+Q = %d", len(rest), C+Q)
	}
	for _, res := range rest {
		if res.Status != http.StatusOK {
			t.Fatalf("admitted request %s: status %d, body %s", res.Path, res.Status, res.Body)
		}
	}
	// Shed requests never consumed a compute slot: only the admitted
	// C+Q ever computed.
	if got := srv.Computations(); got != C+Q {
		t.Fatalf("computations = %d, want %d (sheds must not compute)", got, C+Q)
	}

	// Completed responses are byte-identical to an unloaded server.
	baseSrv, err := server.New(server.Options{
		Seed: 42, Replicates: 2, Compute: C, Timeout: -1, Corpus: corpus,
	})
	if err != nil {
		t.Fatal(err)
	}
	baseline := Baseline(baseSrv.Handler(), mix)
	for _, res := range rest {
		want, ok := baseline[res.Path]
		if !ok {
			t.Fatalf("baseline has no 200 for %s", res.Path)
		}
		if res.Body != want {
			t.Fatalf("loaded response for %s differs from unloaded baseline", res.Path)
		}
	}
}

// TestDeadlineBudgetEnforced holds every computation on a never-opened
// gate and asserts the deadline layer turns each admitted request into
// a structured 504 with Retry-After — no request outlives its budget by
// more than scheduling slack, the timeout counter matches the observed
// 504s, and the stuck computations release their slots (the Block hook
// observes the cancellation the flight group propagates).
func TestDeadlineBudgetEnforced(t *testing.T) {
	corpus := testCorpus(t)
	const C, Q, N = 1, 8, 4
	const budget = 250 * time.Millisecond

	gate := make(chan struct{}) // never opened: only deadlines resolve requests
	opts := server.Options{
		Seed:       42,
		Replicates: 2,
		Compute:    C,
		MaxQueue:   Q,
		Timeout:    budget,
		Corpus:     corpus,
		Chaos: &server.ChaosConfig{
			Seed:        7,
			LatencyRate: 1,
			Block: func(ctx context.Context, key string) error {
				select {
				case <-gate:
					return nil
				case <-ctx.Done():
					return ctx.Err()
				}
			},
		},
	}
	srv, err := server.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	mix := Distinct(corpus, 2, N) // N <= C+Q: nothing sheds, everything times out
	rep := Start(h, mix).Wait()

	for _, res := range rep.Results {
		if res.Status != http.StatusGatewayTimeout {
			t.Fatalf("%s: status %d (want 504), body %s", res.Path, res.Status, res.Body)
		}
		if res.RetryAfter == "" {
			t.Fatalf("%s: 504 missing Retry-After", res.Path)
		}
		// The per-endpoint budget is at most `budget`; generous slack
		// absorbs CI scheduling, but a request that took several budgets
		// outlived its deadline.
		if res.Duration > budget+5*time.Second {
			t.Fatalf("%s: outlived its deadline budget: took %v (budget %v)", res.Path, res.Duration, budget)
		}
	}
	if got := metric(t, h, "cuisinevol_deadline_timeouts_total"); got != N {
		t.Fatalf("deadline_timeouts_total = %v, want %d", got, N)
	}
	if got := metric(t, h, "cuisinevol_shed_total"); got != 0 {
		t.Fatalf("shed_total = %v, want 0 (N <= C+Q)", got)
	}
	// Abandoned computations observe cancellation and free their slots.
	eventually(t, "inflight drains to 0", func() bool { return metric(t, h, "cuisinevol_compute_inflight") == 0 })
	eventually(t, "waiting drains to 0", func() bool { return metric(t, h, "cuisinevol_compute_waiting") == 0 })
}

// TestCoalescedRequestsBypassAdmission: N identical concurrent requests
// on a server with one compute slot and a zero-length queue must all
// succeed with exactly one computation and zero sheds — coalesced joins
// and cache hits never touch the admission layer, so popular traffic is
// unaffected by a full queue.
func TestCoalescedRequestsBypassAdmission(t *testing.T) {
	corpus := testCorpus(t)
	srv, err := server.New(server.Options{
		Seed:       42,
		Replicates: 2,
		Compute:    1,
		MaxQueue:   -1, // no queue at all
		Corpus:     corpus,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()

	path := "/v1/mine?region=" + corpus.Regions()[0] + "&top=9"
	mix := Mix{Paths: []string{path}}.Repeat(16)
	rep := Start(h, mix).Wait()
	for _, res := range rep.Results {
		if res.Status != http.StatusOK {
			t.Fatalf("coalesced request: status %d, body %s", res.Status, res.Body)
		}
	}
	if got := srv.Computations(); got != 1 {
		t.Fatalf("computations = %d, want 1", got)
	}
	if got := metric(t, h, "cuisinevol_shed_total"); got != 0 {
		t.Fatalf("shed_total = %v, want 0", got)
	}
}

// TestChaoticLoadMatchesBaseline replays a duplicate-heavy mix against
// a server injecting deterministic error and cancel faults and checks
// the contamination boundary: every 200 that does complete is
// byte-identical to the unloaded chaos-free baseline, fault outcomes
// are a pure function of the seed (an identical second server yields
// identical per-path statuses), and a repeat replay on the same server
// serves every previously-computed path from cache.
func TestChaoticLoadMatchesBaseline(t *testing.T) {
	corpus := testCorpus(t)
	chaotic := func() *server.Server {
		srv, err := server.New(server.Options{
			Seed:       42,
			Replicates: 2,
			Compute:    4,
			Timeout:    -1,
			Corpus:     corpus,
			Chaos: &server.ChaosConfig{
				Seed:       11,
				ErrorRate:  0.25,
				CancelRate: 0.25,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	srv := chaotic()
	h := srv.Handler()

	mix := Distinct(corpus, 3, 12).Repeat(2)
	rep := Start(h, mix).Wait()

	for status := range rep.Statuses() {
		if status != http.StatusOK && status != http.StatusInternalServerError && status != 499 {
			t.Fatalf("unexpected status %d under error/cancel chaos", status)
		}
	}
	if rep.CountStatus(http.StatusOK) == 0 || rep.CountStatus(http.StatusOK) == len(rep.Results) {
		t.Fatalf("chaos rates produced degenerate outcome split: %v", rep.Statuses())
	}

	baseSrv, err := server.New(server.Options{
		Seed: 42, Replicates: 2, Compute: 4, Timeout: -1, Corpus: corpus,
	})
	if err != nil {
		t.Fatal(err)
	}
	baseline := Baseline(baseSrv.Handler(), mix)
	statusByPath := make(map[string]int)
	for _, res := range rep.Results {
		statusByPath[res.Path] = res.Status
		if res.Status == http.StatusOK {
			if res.Body != baseline[res.Path] {
				t.Fatalf("chaotic 200 for %s differs from baseline", res.Path)
			}
		}
	}

	// Same seed, fresh server: identical fault decisions per path.
	rep2 := Start(chaotic().Handler(), mix).Wait()
	for _, res := range rep2.Results {
		if res.Status != statusByPath[res.Path] {
			t.Fatalf("fault decisions not reproducible: %s was %d, now %d",
				res.Path, statusByPath[res.Path], res.Status)
		}
	}

	// Replay on the same server: every path that succeeded is now a HIT;
	// caching behavior is unchanged by the chaos layer. Error-faulted
	// paths cache nothing and so recompute — up to once per copy, since
	// injected failures return too fast for the copies to coalesce.
	errorPaths := 0
	for _, status := range statusByPath {
		if status == http.StatusInternalServerError {
			errorPaths++
		}
	}
	before := srv.Computations()
	rep3 := Start(h, mix).Wait()
	for _, res := range rep3.Results {
		if res.Status == http.StatusOK && res.XCache != "HIT" {
			t.Fatalf("repeat of computed path %s: X-Cache = %q, want HIT", res.Path, res.XCache)
		}
	}
	if got := srv.Computations(); got > before+2*uint64(errorPaths) {
		t.Fatalf("repeat replay recomputed cached paths: %d -> %d (%d error paths)", before, got, errorPaths)
	}
}
