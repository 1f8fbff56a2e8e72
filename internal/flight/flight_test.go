package flight

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFlightCoalescesConcurrentCalls holds the single execution open
// until all 8 callers have joined, then releases it — a deterministic
// proof that concurrent duplicate calls share one execution.
func TestFlightCoalescesConcurrentCalls(t *testing.T) {
	var g Group[[]byte]
	const n = 8
	var executions atomic.Int32
	joined := make(chan struct{}, n)
	release := make(chan struct{})

	var wg sync.WaitGroup
	results := make([][]byte, n)
	errs := make([]error, n)
	sharedFlags := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			joined <- struct{}{}
			results[i], errs[i], sharedFlags[i] = g.Do(context.Background(), "k", func(ctx context.Context) ([]byte, error) {
				executions.Add(1)
				<-release
				return []byte("v"), nil
			})
		}(i)
	}
	// Wait until every goroutine is launched and the leader is inside fn,
	// then let the computation finish.
	for i := 0; i < n; i++ {
		<-joined
	}
	for executions.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := executions.Load(); got != 1 {
		t.Fatalf("fn executed %d times (want 1)", got)
	}
	leaderCount := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if string(results[i]) != "v" {
			t.Fatalf("caller %d got %q", i, results[i])
		}
		if !sharedFlags[i] {
			leaderCount++
		}
	}
	if leaderCount != 1 {
		t.Fatalf("%d callers report leading the execution (want 1)", leaderCount)
	}
}

// TestFlightCancelPropagatesWhenAllWaitersLeave proves the cancellation
// path: the computation's context must be cancelled exactly when the
// last interested caller gives up.
func TestFlightCancelPropagatesWhenAllWaitersLeave(t *testing.T) {
	var g Group[[]byte]
	computeCancelled := make(chan struct{})
	started := make(chan struct{})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err, _ := g.Do(ctx, "k", func(cctx context.Context) ([]byte, error) {
			close(started)
			<-cctx.Done()
			close(computeCancelled)
			return nil, cctx.Err()
		})
		done <- err
	}()
	<-started
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("caller error = %v (want context.Canceled)", err)
	}
	select {
	case <-computeCancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("compute context not cancelled after last waiter left")
	}
}

// TestFlightComputationSurvivesOneWaiterLeaving: with two waiters, one
// cancelling must not kill the computation the other still wants.
func TestFlightComputationSurvivesOneWaiterLeaving(t *testing.T) {
	var g Group[[]byte]
	release := make(chan struct{})
	started := make(chan struct{})

	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	doneA := make(chan error, 1)
	go func() {
		_, err, _ := g.Do(ctxA, "k", func(cctx context.Context) ([]byte, error) {
			close(started)
			select {
			case <-release:
				return []byte("v"), nil
			case <-cctx.Done():
				return nil, cctx.Err()
			}
		})
		doneA <- err
	}()
	<-started

	doneB := make(chan struct{})
	var valB []byte
	var errB error
	go func() {
		valB, errB, _ = g.Do(context.Background(), "k", func(ctx context.Context) ([]byte, error) {
			t.Error("second caller must join, not recompute")
			return nil, nil
		})
		close(doneB)
	}()
	// Wait until B has actually joined (waiter count 2), then abandon A;
	// B must still get the value.
	for waiters(&g, "k") != 2 {
		time.Sleep(time.Millisecond)
	}
	cancelA()
	<-doneA
	close(release)
	<-doneB
	if errB != nil || string(valB) != "v" {
		t.Fatalf("surviving waiter got (%q, %v)", valB, errB)
	}
}

// waiters reports how many callers wait on key's current call.
func waiters[V any](g *Group[V], key string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c := g.m[key]; c != nil {
		return c.waiters
	}
	return 0
}

// TestFlightPanicReachesEveryWaiterAndFreesKey: a panic in fn becomes
// one *PanicError delivered to every coalesced waiter, and the key is
// free for the next call.
func TestFlightPanicReachesEveryWaiterAndFreesKey(t *testing.T) {
	var g Group[int]
	const n = 4
	release := make(chan struct{})
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err, _ := g.Do(context.Background(), "k", func(context.Context) (int, error) {
				<-release
				panic("fn exploded")
			})
			errs <- err
		}()
	}
	for waiters(&g, "k") != n {
		time.Sleep(time.Millisecond)
	}
	close(release)
	for i := 0; i < n; i++ {
		var pe *PanicError
		err := <-errs
		if !errors.As(err, &pe) || pe.Value != "fn exploded" || len(pe.Stack) == 0 {
			t.Fatalf("waiter %d: err = %#v, want *PanicError with a stack", i, err)
		}
		if err.Error() != "fn exploded" {
			t.Fatalf("PanicError.Error() = %q, want the bare value", err.Error())
		}
	}
	v, err, shared := g.Do(context.Background(), "k", func(context.Context) (int, error) { return 7, nil })
	if v != 7 || err != nil || shared {
		t.Fatalf("call after panic: (%d, %v, shared=%v), want a fresh (7, nil, false)", v, err, shared)
	}
}

// TestFlightAbandonedCallLeavesMap: once the last waiter leaves, the
// next caller leads a fresh call at once (no retry loop needed), and the
// abandoned fn sees its context cancelled and itself forgotten.
func TestFlightAbandonedCallLeavesMap(t *testing.T) {
	var g Group[int]
	started := make(chan struct{})
	forgotten := make(chan bool, 1)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		g.Do(ctx, "k", func(fctx context.Context) (int, error) {
			close(started)
			<-fctx.Done()
			forgotten <- g.Forgotten(fctx)
			return 0, fctx.Err()
		})
	}()
	<-started
	cancel()
	if !<-forgotten {
		t.Fatal("abandoned call not reported as forgotten")
	}
	v, err, shared := g.Do(context.Background(), "k", func(fctx context.Context) (int, error) {
		if g.Forgotten(fctx) {
			t.Error("fresh call reported as forgotten")
		}
		return 1, nil
	})
	if v != 1 || err != nil || shared {
		t.Fatalf("call after abandonment: (%d, %v, shared=%v), want a fresh (1, nil, false)", v, err, shared)
	}
}

// TestFlightForgetDetachesInFlightCalls: Forget detaches only matching
// calls; their waiters still get the result, the detached fn reports
// Forgotten, and the next Do for the key leads a fresh call.
func TestFlightForgetDetachesInFlightCalls(t *testing.T) {
	var g Group[string]
	release := make(chan struct{})
	var started sync.WaitGroup
	started.Add(2)
	type outcome struct {
		v         string
		forgotten bool
	}
	results := make(chan outcome, 2)
	for _, key := range []string{"dead|a", "live|a"} {
		go func(key string) {
			var forgotten bool
			v, _, _ := g.Do(context.Background(), key, func(fctx context.Context) (string, error) {
				started.Done()
				<-release
				forgotten = g.Forgotten(fctx)
				return key, nil
			})
			results <- outcome{v, forgotten}
		}(key)
	}
	started.Wait()
	if n := g.Forget(func(key string) bool { return strings.HasPrefix(key, "dead|") }); n != 1 {
		t.Fatalf("Forget detached %d calls, want 1", n)
	}
	_, _, shared := g.Do(context.Background(), "dead|a", func(context.Context) (string, error) { return "fresh", nil })
	if shared {
		t.Fatal("Do after Forget joined the detached call")
	}
	close(release)
	for i := 0; i < 2; i++ {
		r := <-results
		if want := r.v == "dead|a"; r.forgotten != want {
			t.Fatalf("call %q: Forgotten = %v, want %v", r.v, r.forgotten, want)
		}
	}
	if g.Forgotten(context.Background()) {
		t.Fatal("Forgotten outside a Do reported true")
	}
}
