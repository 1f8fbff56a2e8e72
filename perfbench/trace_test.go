package main

import (
	"context"
	"math"
	"testing"
	"time"
)

func sp(id, parent uint64, name string, start, end int) span {
	return span{ID: id, Parent: parent, Req: 1, Name: name,
		Start: time.Duration(start) * time.Microsecond, End: time.Duration(end) * time.Microsecond}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		sp(2, 1, "a", 10, 40),
		sp(3, 1, "b", 30, 60),   // overlaps a: the union is 10..60
		sp(4, 1, "c", 80, 120),  // runs past the parent: clipped to 80..100
		sp(5, 2, "a.x", 15, 20), // grandchild: counts against a only
		sp(1, 0, "root", 0, 100),
	}
	self := selfTimes(spans)
	want := map[uint64]time.Duration{
		1: 30 * time.Microsecond, // 100 - (50 + 20)
		2: 25 * time.Microsecond, // 30 - 5
		3: 30 * time.Microsecond,
		4: 40 * time.Microsecond,
		5: 5 * time.Microsecond,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %v, want %v", id, self[id], w)
		}
	}
	// Layers below the root: 25 + 30 + 40 + 5 = 100 over a 100µs root.
	share, err := accountedShare(spans, "root")
	if err != nil || math.Abs(share-1) > 1e-12 {
		t.Errorf("accounted share = %v, %v; want 1 (the overlap double counts)", share, err)
	}
	st := layerStats(spans)
	if st["a"].Count != 1 || st["a"].Self != 25*time.Microsecond || st["a"].Total != 30*time.Microsecond {
		t.Errorf("layer a = %+v", st["a"])
	}
}

func TestAccountedShareLeavesRootGapsOut(t *testing.T) {
	spans := []span{sp(1, 0, "root", 0, 100), sp(2, 1, "work", 0, 60)}
	share, err := accountedShare(spans, "root")
	if err != nil || math.Abs(share-0.6) > 1e-12 {
		t.Fatalf("share = %v, %v; want 0.6", share, err)
	}
	if _, err := accountedShare(spans, "missing"); err == nil {
		t.Fatal("no error without root spans")
	}
}

func TestNilTracerIsANoOp(t *testing.T) {
	var tr *tracer
	if tr.newID() != 0 {
		t.Fatal("nil tracer handed out an id")
	}
	ran := false
	if d := tr.timed("x", 0, 0, func() { ran = true }); !ran || d < 0 {
		t.Fatal("timed did not run its function")
	}
	tr.record(1, 0, 0, "x", time.Now(), time.Now())
	if len(tr.snapshot()) != 0 {
		t.Fatal("nil tracer kept a span")
	}
}

func TestSpanContextRoundTrip(t *testing.T) {
	ctx := withSpan(context.Background(), 7, 3)
	ref, ok := spanFrom(ctx)
	if !ok || ref.span != 7 || ref.req != 3 {
		t.Fatalf("spanFrom = %+v, %v", ref, ok)
	}
	if _, ok := spanFrom(context.Background()); ok {
		t.Fatal("span found in an empty context")
	}
	req, parent, ok := parseTraceHeader("12-34")
	if !ok || req != 12 || parent != 34 {
		t.Fatalf("parseTraceHeader = %d, %d, %v", req, parent, ok)
	}
	if _, _, ok := parseTraceHeader("garbage"); ok {
		t.Fatal("garbage header parsed")
	}
}
