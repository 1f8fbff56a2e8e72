package main

import (
	"os"
	"reflect"
	"testing"
	"time"
)

func TestTallySpillRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tl, err := newTally(dir)
	if err != nil {
		t.Fatal(err)
	}
	tk := &task{phase: time.Now().Add(-time.Second)}
	tl.succeed(tk)
	tl.read(tk, 3*time.Millisecond)
	tl.write(2 * time.Millisecond)
	tl.put(recTask, 5*time.Second, 0.25)
	tl.put(recTraced, 0, 0.5)
	if err := tl.load(); err != nil {
		t.Fatal(err)
	}
	if len(tl.okAt) != 2 || tl.okAt[0] < time.Second || tl.readAt[0] != tl.okAt[1] {
		t.Errorf("okAt %v, readAt %v: want two completions after the phase start, the second the read's", tl.okAt, tl.readAt)
	}
	for name, c := range map[string][2][]float64{
		"reads":      {tl.reads, {3}},
		"writes":     {tl.writes, {2}},
		"tasks":      {tl.tasks, {0.25}},
		"tracedTask": {tl.tracedTask, {0.5}},
	} {
		if !reflect.DeepEqual(c[0], c[1]) {
			t.Errorf("%s = %v, want %v", name, c[0], c[1])
		}
	}
	if !reflect.DeepEqual(tl.taskAt, []time.Duration{5 * time.Second}) {
		t.Errorf("taskAt = %v", tl.taskAt)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("spill file left behind: %v", entries)
	}
	if err := tl.load(); err != nil || len(tl.reads) != 1 {
		t.Errorf("second load: %v, reads %v", err, tl.reads)
	}
}
