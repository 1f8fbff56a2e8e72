package main

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"cuisinevol/internal/server/loadtest"
)

func toyConfig(t *testing.T) *runConfig {
	return &runConfig{
		seed:      7,
		timed:     400 * time.Millisecond,
		out:       t.TempDir(),
		clients:   2,
		scale:     0.01,
		relaxTail: true,
	}
}

func TestMixesArePureInSeed(t *testing.T) {
	rc := toyConfig(t)
	corpus, _, err := generate(rc, rc.seed)
	if err != nil {
		t.Fatal(err)
	}
	again, _, err := generate(rc, rc.seed)
	if err != nil {
		t.Fatal(err)
	}

	if a, b := repeatKeys(corpus), repeatKeys(again); !reflect.DeepEqual(a, b) {
		t.Error("repeatKeys differs for one corpus")
	}
	if got := len(repeatKeys(corpus)); got != 5*repeatRegions {
		t.Errorf("%d hot keys, want %d", got, 5*repeatRegions)
	}

	a, b := repeatMix(1, 40, 2, 4096), repeatMix(1, 40, 2, 4096)
	if !reflect.DeepEqual(a, b) {
		t.Error("repeatMix differs for one seed")
	}
	if reflect.DeepEqual(a, repeatMix(2, 40, 2, 4096)) {
		t.Error("repeatMix ignores the seed")
	}
	if reflect.DeepEqual(a[0], a[1]) {
		t.Error("both clients draw the same sequence")
	}
	counts := make([]int, 40)
	revalidate := 0
	for _, q := range a[0] {
		counts[q.key]++
		if q.revalidate {
			revalidate++
		}
	}
	top := 0
	for _, c := range counts {
		top = max(top, c)
	}
	if share := float64(top) / 4096; share < 0.1 {
		t.Errorf("hottest key takes %.3f of requests; the mix is not skewed", share)
	}
	if share := float64(revalidate) / 4096; share < 0.15 || share > 0.25 {
		t.Errorf("revalidation share %.3f, want about 1/%d", share, revalidateEvery)
	}

	if x, y := loadtest.Distinct(corpus, 3, 100), loadtest.Distinct(again, 3, 100); !reflect.DeepEqual(x, y) {
		t.Error("the distinct mix differs for one seed")
	}

	in1, err := makeLiveInputs(rc, corpus)
	if err != nil {
		t.Fatal(err)
	}
	in2, err := makeLiveInputs(rc, again)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(in1.base, in2.base) || !reflect.DeepEqual(in1.batches, in2.batches) {
		t.Error("live inputs differ for one seed")
	}
	seen := map[string]bool{}
	for n := 0; n < 1000; n++ {
		p := readerPath(n, "ITA", 3)
		if seen[p] && n%2 == 0 {
			t.Fatalf("reader mine path %q repeats", p)
		}
		seen[p] = true
	}
}
