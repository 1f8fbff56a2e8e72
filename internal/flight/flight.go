// Package flight coalesces concurrent calls for the same key into one
// execution. It is the one coalescing primitive behind the server's
// computed responses, the corpus index cache and the corpus registry
// (DESIGN.md §8).
package flight

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is how a panic inside a coalesced call, or inside a
// scheduled work item, reaches callers: the recovered value plus the
// stack of the goroutine that panicked.
type PanicError struct {
	Value any
	Stack []byte // debug.Stack() where the panic was recovered
}

// Error prints only the panic value; the stack stays on the struct.
func (e *PanicError) Error() string { return fmt.Sprint(e.Value) }

// Group coalesces concurrent Do calls with the same key. The zero Group
// is ready to use. Safe for concurrent use.
type Group[V any] struct {
	mu sync.Mutex
	m  map[string]*call[V]
}

// call is one in-flight execution and its waiter refcount.
type call[V any] struct {
	done      chan struct{}
	val       V
	err       error
	waiters   int
	cancel    context.CancelFunc
	forgotten atomic.Bool // detached by Forget or by its last waiter leaving
}

// callKey carries the running call through fn's context, for Forgotten.
type callKey struct{}

// Do returns the result of fn for key, coalescing concurrent duplicate
// calls; shared reports whether this caller joined a call another
// caller started.
//
// fn runs on its own goroutine under a context detached from every
// caller, so one caller leaving never kills work others still wait for.
// Each caller waits on its own ctx and returns ctx.Err() once it is
// done; when the last waiter leaves, the call is detached from key (the
// next caller leads a fresh one) and fn's context is cancelled. A panic
// in fn reaches every waiter as a *PanicError and frees the key.
func (g *Group[V]) Do(ctx context.Context, key string, fn func(ctx context.Context) (V, error)) (v V, err error, shared bool) {
	g.mu.Lock()
	c, shared := g.m[key]
	if shared {
		c.waiters++
	} else {
		if g.m == nil {
			g.m = make(map[string]*call[V])
		}
		cctx, cancel := context.WithCancel(context.Background())
		c = &call[V]{done: make(chan struct{}), waiters: 1, cancel: cancel}
		g.m[key] = c
		go g.run(context.WithValue(cctx, callKey{}, c), key, c, fn)
	}
	g.mu.Unlock()

	select {
	case <-c.done:
		return c.val, c.err, shared
	case <-ctx.Done():
		g.mu.Lock()
		c.waiters--
		abandoned := c.waiters == 0
		if abandoned {
			c.forgotten.Store(true)
			g.detach(key, c)
		}
		g.mu.Unlock()
		if abandoned {
			c.cancel()
		}
		return v, ctx.Err(), shared
	}
}

// run executes fn, recovering a panic into a *PanicError, and publishes
// the result to the call's waiters.
func (g *Group[V]) run(ctx context.Context, key string, c *call[V], fn func(ctx context.Context) (V, error)) {
	defer func() {
		if r := recover(); r != nil {
			c.err = &PanicError{Value: r, Stack: debug.Stack()}
		}
		g.mu.Lock()
		g.detach(key, c)
		g.mu.Unlock()
		c.cancel()
		close(c.done)
	}()
	c.val, c.err = fn(ctx)
}

// detach removes c from the map if it still owns key. Caller holds g.mu.
func (g *Group[V]) detach(key string, c *call[V]) {
	if g.m[key] == c {
		delete(g.m, key)
	}
}

// Forget detaches every in-flight call whose key matches and reports
// how many it detached. Their waiters still get the result, the next Do
// for the key leads a fresh call, and Forgotten reports true inside the
// detached fn. An owner calls Forget under the lock that guards its
// commit, so a commit and a Forget never interleave; the lock order is
// always owner, then group.
func (g *Group[V]) Forget(match func(key string) bool) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for key, c := range g.m {
		if match(key) {
			c.forgotten.Store(true)
			delete(g.m, key)
			n++
		}
	}
	return n
}

// Forgotten reports whether the call whose fn received ctx has been
// detached from its key, by Forget or because its last waiter left; it
// reports false outside a Do. fn asks just before committing its result
// (a cache put, a memo insert), holding the owner lock that Forget is
// also called under: a forgotten call must not commit.
func (g *Group[V]) Forgotten(ctx context.Context) bool {
	c, ok := ctx.Value(callKey{}).(*call[V])
	return ok && c.forgotten.Load()
}
