package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Spans of one request
// share Req; Parent is the span that caused this one (0 for a root).
// Start and End are offsets from the tracer's origin.
type span struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent"`
	Req    uint64        `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer holds spans in memory until the run ends. A nil *tracer is
// the untraced mode: every method is a no-op, so call sites need no
// branches.
type tracer struct {
	origin time.Time
	ids    atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// newID returns a fresh span (or request) id; 0 when untraced.
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record stores a finished span.
func (t *tracer) record(id, parent, req uint64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name, Start: start.Sub(t.origin), End: end.Sub(t.origin)}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs f inside a span named name and returns its duration. The
// duration is measured whether or not the tracer is nil.
func (t *tracer) timed(name string, parent, req uint64, f func()) time.Duration {
	id := t.newID()
	start := time.Now()
	f()
	end := time.Now()
	t.record(id, parent, req, name, start, end)
	return end.Sub(start)
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes every span, one JSON object a line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceKey carries the current span through a context, so layers that
// only see a context (a peer transport, a handler behind it) can parent
// their spans.
type traceKey struct{}

type traceRef struct{ span, req uint64 }

func withSpan(ctx context.Context, span, req uint64) context.Context {
	return context.WithValue(ctx, traceKey{}, traceRef{span: span, req: req})
}

func spanFrom(ctx context.Context) (traceRef, bool) {
	ref, ok := ctx.Value(traceKey{}).(traceRef)
	return ref, ok
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by the union of its children's intervals.
func selfTimes(spans []span) map[uint64]time.Duration {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's interval.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			total += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// layerStat is one span name's totals.
type layerStat struct {
	Count int
	Total time.Duration // summed durations
	Self  time.Duration // summed self times
}

// layerStats sums spans by name.
func layerStats(spans []span) map[string]layerStat {
	self := selfTimes(spans)
	out := make(map[string]layerStat)
	for _, s := range spans {
		st := out[s.Name]
		st.Count++
		st.Total += s.dur()
		st.Self += self[s.ID]
		out[s.Name] = st
	}
	return out
}

// accountedShare is the self time of every layer span below the roots
// named root, against those roots' summed durations: 1 when the layers
// account for the whole end-to-end time, less when the root spends time
// outside any layer, more when concurrent children overlap.
func accountedShare(spans []span, root string) (float64, error) {
	self := selfTimes(spans)
	inTree := make(map[uint64]bool)
	var rootTotal time.Duration
	for _, s := range spans {
		if s.Name == root && s.Parent == 0 {
			inTree[s.ID] = true
			rootTotal += s.dur()
		}
	}
	if rootTotal == 0 {
		return 0, fmt.Errorf("trace: no %q root spans", root)
	}
	// Spans arrive in completion order (children before parents), so
	// resolve membership by walking up the parent chain.
	parent := make(map[uint64]uint64, len(spans))
	for _, s := range spans {
		parent[s.ID] = s.Parent
	}
	var layers time.Duration
	for _, s := range spans {
		if inTree[s.ID] {
			continue // the root's own self time is what is not accounted for
		}
		for id := s.Parent; id != 0; id = parent[id] {
			if inTree[id] {
				layers += self[s.ID]
				break
			}
		}
	}
	return float64(layers) / float64(rootTotal), nil
}
