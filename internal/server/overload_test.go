package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cuisinevol/internal/evomodel"
	"cuisinevol/internal/experiment"
	"cuisinevol/internal/sched"
)

// spinUntil busy-waits (yielding the scheduler) until cond holds. It
// bridges the instant between an event that has already been triggered
// and its observable effect (an atomic write in another goroutine) —
// synchronization on progress, not on the clock.
func spinUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; i < 1_000_000; i++ {
		if cond() {
			return
		}
		runtime.Gosched()
	}
	t.Fatalf("condition never held: %s", what)
}

func TestAdmissionBoundsAndShedding(t *testing.T) {
	m := newMetrics()
	a := newAdmission(2, 1, shedRetryAfter, m)
	ctx := context.Background()

	// Both slots acquire immediately.
	for i := 0; i < 2; i++ {
		if err := a.Acquire(ctx); err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
	}
	// One waiter fits in the queue.
	waiterDone := make(chan error, 1)
	go func() { waiterDone <- a.Acquire(ctx) }()
	spinUntil(t, "waiter queued", func() bool { return a.queued.Load() == 1 })

	// The queue is full: the next arrival is shed with a 503 carrying a
	// Retry-After hint, without blocking.
	err := a.Acquire(ctx)
	var he *httpError
	if !errors.As(err, &he) || he.status != http.StatusServiceUnavailable {
		t.Fatalf("full queue: got %v, want 503 httpError", err)
	}
	if he.retryAfter != shedRetryAfter {
		t.Fatalf("shed Retry-After = %d, want %d", he.retryAfter, shedRetryAfter)
	}
	if got := m.shedComputations.Load(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}

	// Releasing a slot hands it to the queued waiter.
	a.Release()
	if err := <-waiterDone; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}
	spinUntil(t, "queue drained", func() bool { return a.queued.Load() == 0 })

	// A waiter whose context dies while queued leaves the queue.
	cctx, cancel := context.WithCancel(context.Background())
	go func() { waiterDone <- a.Acquire(cctx) }()
	spinUntil(t, "cancellable waiter queued", func() bool { return a.queued.Load() == 1 })
	cancel()
	if err := <-waiterDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: %v", err)
	}
	if a.queued.Load() != 0 {
		t.Fatalf("cancelled waiter left queue count at %d", a.queued.Load())
	}

	// Shedding never consumed a slot: exactly the two original acquires
	// plus the waiter hold slots now.
	if got := m.inflight.Load(); got != 2 {
		t.Fatalf("inflight = %d, want 2", got)
	}
}

func TestChaosFaultDeterminism(t *testing.T) {
	cfg := ChaosConfig{Seed: 99, ErrorRate: 0.2, CancelRate: 0.2, LatencyRate: 0.2}
	a := newChaos(&cfg, newMetrics())
	b := newChaos(&cfg, newMetrics())
	counts := make(map[Fault]int)
	for i := 0; i < 400; i++ {
		key := "/v1/mine?region=ITA&top=" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		f := a.faultFor(key)
		if g := b.faultFor(key); g != f {
			t.Fatalf("fault for %q differs across instances: %v vs %v", key, f, g)
		}
		if g := a.faultFor(key); g != f {
			t.Fatalf("fault for %q differs across calls: %v vs %v", key, f, g)
		}
		counts[f]++
	}
	// With 60% total fault rate over 400 distinct keys, every kind must
	// appear and none may dominate completely — a sanity check that the
	// hash actually partitions the unit interval.
	for _, f := range []Fault{FaultNone, FaultError, FaultCancel, FaultLatency} {
		if counts[f] == 0 {
			t.Fatalf("fault kind %v never selected: %v", f, counts)
		}
	}
	// A different seed faults a different subset.
	other := newChaos(&ChaosConfig{Seed: 100, ErrorRate: 0.2, CancelRate: 0.2, LatencyRate: 0.2}, newMetrics())
	same := 0
	for i := 0; i < 400; i++ {
		key := "/v1/overrep?k=" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		if a.faultFor(key) == other.faultFor(key) {
			same++
		}
	}
	if same == 400 {
		t.Fatal("seed change did not change any fault decision")
	}
	// Nil chaos injects nothing.
	var nilChaos *chaos
	if f := nilChaos.faultFor("anything"); f != FaultNone {
		t.Fatalf("nil chaos faulted: %v", f)
	}
}

// TestDeadlineProducesStructured504 holds a computation at the chaos
// gate until the request's deadline budget expires and asserts the
// caller gets a structured 504 with a Retry-After hint while the
// timeout counter advances. The elapsed time is the deadline actually
// firing — the one place wall-clock time is the thing under test.
func TestDeadlineProducesStructured504(t *testing.T) {
	srv, err := New(Options{
		Seed:       42,
		Replicates: 2,
		Compute:    2,
		Timeout:    80 * time.Millisecond, // /v1/overrep budget: 20ms
		Corpus:     testCorpus(t),
		Chaos: &ChaosConfig{
			Seed:        7,
			LatencyRate: 1.0,
			Block: func(ctx context.Context, key string) error {
				<-ctx.Done()
				return ctx.Err()
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/overrep?region=ITA&k=3", nil))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d (want 504), body %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("504 without Retry-After header")
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "deadline exceeded") {
		t.Fatalf("504 body: %s", rec.Body.String())
	}
	if _, ok := body["retry_after_seconds"]; !ok {
		t.Fatalf("504 body missing retry_after_seconds: %s", rec.Body.String())
	}
	if got := srv.metrics.deadlineTimeouts.Load(); got != 1 {
		t.Fatalf("deadline timeout counter = %d, want 1", got)
	}
	// The abandoned computation's context was cancelled, so the gate
	// released and the slot drained.
	spinUntil(t, "slot released after deadline", func() bool {
		return srv.metrics.inflight.Load() == 0
	})
}

// TestClientCancelMidComputeIs499 cancels the request context while the
// computation is parked at the chaos gate — the mid-mine disconnect —
// and asserts the 499 path, not a 504 and not a timeout count.
func TestClientCancelMidComputeIs499(t *testing.T) {
	var blocked atomic.Int64
	srv, err := New(Options{
		Seed:       42,
		Replicates: 2,
		Compute:    2,
		Timeout:    -1, // deadlines off: only the client can end this
		Corpus:     testCorpus(t),
		Chaos: &ChaosConfig{
			Seed:        7,
			LatencyRate: 1.0,
			Block: func(ctx context.Context, key string) error {
				blocked.Add(1)
				<-ctx.Done()
				return ctx.Err()
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodGet, "/v1/mine?region=ITA&top=9", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		srv.Handler().ServeHTTP(rec, req)
		close(done)
	}()
	spinUntil(t, "compute parked at gate", func() bool { return blocked.Load() == 1 })
	cancel()
	<-done
	if rec.Code != 499 {
		t.Fatalf("status %d (want 499), body %s", rec.Code, rec.Body.String())
	}
	if got := srv.metrics.deadlineTimeouts.Load(); got != 0 {
		t.Fatalf("client cancel counted as deadline timeout (%d)", got)
	}
	spinUntil(t, "slot released after cancel", func() bool {
		return srv.metrics.inflight.Load() == 0
	})
}

// TestItemFaultSurfacesTypedErrors enables replicate-level chaos and
// asserts the failure propagates out of /v1/evolve as a 500 whose cause
// chain carries both the typed ReplicateError (which replicate died)
// and the ChaosError (that the death was injected).
func TestItemFaultSurfacesTypedErrors(t *testing.T) {
	srv, err := New(Options{
		Seed:       42,
		Replicates: 4,
		Compute:    2,
		Corpus:     testCorpus(t),
		Chaos:      &ChaosConfig{Seed: 7, ItemErrorRate: 1.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/evolve?region=ITA&model=NM&replicates=4", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d (want 500), body %s", rec.Code, rec.Body.String())
	}
	msg := rec.Body.String()
	if !strings.Contains(msg, "replicate") || !strings.Contains(msg, "chaos: injected item fault") {
		t.Fatalf("error body does not carry replicate + chaos detail: %s", msg)
	}
	if got := srv.metrics.chaosInjected[FaultItem].Load(); got == 0 {
		t.Fatal("item fault counter did not advance")
	}

	// The same path exercised directly: the ensemble returns an
	// errors.As-able ReplicateError wrapping the injected ChaosError.
	var repErr *evomodel.ReplicateError
	var chaosErr *ChaosError
	_, eerr := evomodel.RunEnsembleCtx(
		sched.WithItemHook(context.Background(), srv.chaos.itemHook()),
		evomodel.EnsembleConfig{
			Params:     evomodel.ParamsForView(srv.corpus.Region("ITA"), evomodel.NullModel, 42),
			Replicates: 4,
			MinSupport: 0.05,
		}, srv.corpus.Lexicon())
	if eerr == nil {
		t.Fatal("ensemble with 100% item faults succeeded")
	}
	if !errors.As(eerr, &repErr) {
		t.Fatalf("not a ReplicateError: %v", eerr)
	}
	if !errors.As(eerr, &chaosErr) || chaosErr.Fault != FaultItem {
		t.Fatalf("ReplicateError does not wrap the ChaosError: %v", eerr)
	}
	if repErr.Replicate != chaosErr.Item {
		t.Fatalf("replicate index %d != faulted item %d", repErr.Replicate, chaosErr.Item)
	}
}

// waitInFlight blocks until n goroutines are parked in a flight.Group
// wait — joined to a call, not merely on their way to one — so a test
// fires its next event knowing every request has coalesced.
func waitInFlight(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 4<<20)
	for i := 0; i < 5000; i++ {
		parked := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, " [select") && strings.Contains(g, "internal/flight.(*Group[...]).Do(") {
				parked++
			}
		}
		if parked >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("fewer than %d requests ever waited in the flight group", n)
}

// TestPanicFailsOnlyItsWaiters is the server's panic invariant: a
// computation that panics fails exactly the requests coalesced onto it
// with a 500 naming the panic, frees its key, and leaves the process
// serving — the next request for the key recomputes and gets the same
// bytes an unfaulted server returns.
func TestPanicFailsOnlyItsWaiters(t *testing.T) {
	const path = "/v1/fig3?support=0.05"
	const n = 8
	var calls atomic.Int32
	release := make(chan struct{})
	srv, err := New(Options{
		Seed:       42,
		Replicates: 2,
		Compute:    2,
		Timeout:    -1,
		Corpus:     testCorpus(t),
		Chaos: &ChaosConfig{
			Seed:        7,
			LatencyRate: 1,
			Block: func(ctx context.Context, key string) error {
				if calls.Add(1) == 1 {
					<-release
					panic("chaos block exploded")
				}
				return nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	recs := make(chan *httptest.ResponseRecorder, n)
	for i := 0; i < n; i++ {
		go func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			recs <- rec
		}()
	}
	waitInFlight(t, n)
	close(release)
	for i := 0; i < n; i++ {
		rec := <-recs
		if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "chaos block exploded") {
			t.Fatalf("coalesced request %d: status %d body %s (want 500 naming the panic)", i, rec.Code, rec.Body.String())
		}
	}
	if got := srv.Computations(); got != 1 {
		t.Fatalf("computations = %d after the panic, want 1", got)
	}
	spinUntil(t, "slot released after panic", func() bool { return srv.metrics.inflight.Load() == 0 })

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("request after the panic: status %d body %s", rec.Code, rec.Body.String())
	}
	clean, err := New(Options{Seed: 42, Replicates: 2, Compute: 2, Corpus: testCorpus(t)})
	if err != nil {
		t.Fatal(err)
	}
	want := httptest.NewRecorder()
	clean.Handler().ServeHTTP(want, httptest.NewRequest(http.MethodGet, path, nil))
	if !bytes.Equal(rec.Body.Bytes(), want.Body.Bytes()) {
		t.Fatal("body after the panic differs from an unfaulted server's")
	}
}

// TestItemHookPanicIs500: a scheduler ItemHook that panics inside the
// /v1/fig4 replicate grid fails the request with a 500 naming the panic
// and its replicate, instead of killing the process.
func TestItemHookPanicIs500(t *testing.T) {
	srv, err := New(Options{Seed: 42, Replicates: 2, Compute: 2, Corpus: testCorpus(t)})
	if err != nil {
		t.Fatal(err)
	}
	sel := corpusSel{corpus: srv.corpus, fingerprint: srv.fingerprint, def: true}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, "/v1/fig4?regions=ITA&replicates=2", nil)
	srv.serveComputed(rec, req, sel.fingerprint, "/v1/fig4", "regions=ITA&replicates=2", func(ctx context.Context) (any, error) {
		ctx = sched.WithItemHook(ctx, func(i int) error {
			if i == 1 {
				panic("replicate hook exploded")
			}
			return nil
		})
		return experiment.RunFig4Ctx(ctx, srv.config(sel, 2), experiment.Fig4Options{Regions: []string{"ITA"}})
	})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d (want 500), body %s", rec.Code, rec.Body.String())
	}
	if msg := rec.Body.String(); !strings.Contains(msg, "replicate 1") || !strings.Contains(msg, "replicate hook exploded") {
		t.Fatalf("500 body does not name the replicate and the panic: %s", msg)
	}
}

// TestCoalescedWaiterCancelIs499: a request that joined a computation
// still parked at the chaos gate, and whose client then leaves, returns
// 499 at once; the computation carries on for the request that led it.
func TestCoalescedWaiterCancelIs499(t *testing.T) {
	release := make(chan struct{})
	srv, err := New(Options{
		Seed:       42,
		Replicates: 2,
		Compute:    2,
		Timeout:    -1,
		Corpus:     testCorpus(t),
		Chaos: &ChaosConfig{
			Seed:        7,
			LatencyRate: 1,
			Block: func(ctx context.Context, key string) error {
				<-release
				return nil
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const path = "/v1/mine?region=ITA&top=4"
	h := srv.Handler()
	leader := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		leader <- rec.Code
	}()
	ctx, cancel := context.WithCancel(context.Background())
	waiter := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil).WithContext(ctx))
		waiter <- rec.Code
	}()
	waitInFlight(t, 2)
	cancel()
	select {
	case code := <-waiter:
		if code != 499 {
			t.Fatalf("cancelled waiter: status %d, want 499", code)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled waiter still blocked on the computation after 2s")
	}
	close(release)
	if code := <-leader; code != http.StatusOK {
		t.Fatalf("leader: status %d, want 200", code)
	}
	if got := srv.Computations(); got != 1 {
		t.Fatalf("computations = %d, want 1", got)
	}
}

// TestShedResponseShape drives the 503 path through the HTTP layer: one
// request parks in the only compute slot, the queue is disabled, and a
// second distinct request must shed immediately with Retry-After.
func TestShedResponseShape(t *testing.T) {
	var blocked atomic.Int64
	gate := make(chan struct{})
	srv, err := New(Options{
		Seed:       42,
		Replicates: 2,
		Compute:    1,
		MaxQueue:   -1, // no queue: shed as soon as the slot is busy
		Timeout:    -1,
		Corpus:     testCorpus(t),
		Chaos: &ChaosConfig{
			Seed:        7,
			LatencyRate: 1.0,
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
	})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	first := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/mine?region=ITA&top=5", nil))
		first <- rec.Code
	}()
	spinUntil(t, "first request holds the slot", func() bool { return blocked.Load() == 1 })

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/mine?region=ITA&top=6", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d (want 503), body %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body["retry_after_seconds"] != float64(shedRetryAfter) {
		t.Fatalf("503 body: %s", rec.Body.String())
	}
	if got := srv.metrics.shedComputations.Load(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}

	close(gate)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("gated request finished %d (want 200)", code)
	}
}
