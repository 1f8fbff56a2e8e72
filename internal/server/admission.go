package server

import (
	"context"
	"net/http"
	"sync/atomic"
)

// admission is the bounded-admission controller in front of the compute
// pool. The PR-2 server gated computations on a bare semaphore, which
// under a burst of distinct (uncacheable, uncoalesceable) requests
// queued excess load unboundedly: every goroutine parked on the
// semaphore forever, slow to fail and expensive to hold. admission
// bounds both dimensions:
//
//   - slots caps concurrent computations (the old semaphore);
//   - maxQueue caps how many acquirers may wait for a slot. An acquirer
//     arriving to a full queue is shed immediately with a 503 and a
//     Retry-After hint — it never consumes a slot and never parks —
//     so overload degrades into fast, explicit rejections instead of
//     an ever-growing goroutine pile.
//
// Acquisition is deadline-aware: a queued acquirer whose context dies
// (request deadline, client disconnect, or the flight group
// cancelling an abandoned computation) leaves the queue immediately.
// Shed and queue-exit outcomes are all counted on the shared metrics
// registry, so /metrics tells the whole overload story.
type admission struct {
	slots      chan struct{}
	maxQueue   int64
	queued     atomic.Int64
	retryAfter int // seconds, for the 503 hint
	m          *metrics
}

func newAdmission(slots, maxQueue, retryAfter int, m *metrics) *admission {
	return &admission{
		slots:      make(chan struct{}, slots),
		maxQueue:   int64(maxQueue),
		retryAfter: retryAfter,
		m:          m,
	}
}

// Acquire takes a compute slot. The fast path takes a free slot without
// queueing; otherwise the caller joins the wait queue unless it is
// already full, in which case the request is shed with a 503-carrying
// error. A queued caller waits until a slot frees or ctx dies.
func (a *admission) Acquire(ctx context.Context) error {
	select {
	case a.slots <- struct{}{}:
		a.m.inflight.Add(1)
		return nil
	default:
	}
	// Join the queue via CAS against the cap: the count never overshoots
	// maxQueue, so "at most Compute running plus MaxQueue waiting" is a
	// hard bound, not a best effort.
	for {
		q := a.queued.Load()
		if q >= a.maxQueue {
			a.m.shedComputations.Add(1)
			return &httpError{
				status:     http.StatusServiceUnavailable,
				msg:        "compute queue full, request shed",
				retryAfter: a.retryAfter,
			}
		}
		if a.queued.CompareAndSwap(q, q+1) {
			break
		}
	}
	a.m.waiting.Add(1)
	defer func() {
		a.queued.Add(-1)
		a.m.waiting.Add(-1)
	}()
	select {
	case a.slots <- struct{}{}:
		a.m.inflight.Add(1)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release frees the slot taken by a successful Acquire.
func (a *admission) Release() {
	<-a.slots
	a.m.inflight.Add(-1)
}
