package itemset

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"cuisinevol/internal/ingredient"
)

// TestInvalidateFingerprintDropsInFlightBuild pins the corpus-deletion
// race: a build that is in flight when its fingerprint is invalidated
// must still serve its waiters (the index is immutable and valid) but
// must NOT land in the cache afterwards — a completed put would
// resurrect the deleted corpus's index and park its bytes on the
// budget until unrelated pressure evicts them.
func TestInvalidateFingerprintDropsInFlightBuild(t *testing.T) {
	c := NewIndexCache(1 << 20)
	key := IndexKey("fp-dead", "ITA", false)
	building := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	source := func() ([][]ingredient.ID, error) {
		once.Do(func() { close(building) })
		<-release
		return classicTxs(), nil
	}

	type result struct {
		ix  *Index
		err error
	}
	got := make(chan result, 1)
	go func() {
		ix, err := c.Get(context.Background(), key, source)
		got <- result{ix, err}
	}()
	<-building

	// The corpus is deleted mid-build. No resident entry exists yet, so
	// nothing is removed — but the in-flight build is marked.
	if removed := c.InvalidateFingerprint("fp-dead"); removed != 0 {
		t.Fatalf("invalidate removed %d resident entries, want 0", removed)
	}
	close(release)
	res := <-got
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.ix == nil || res.ix.N() == 0 {
		t.Fatal("waiter did not receive the built index")
	}

	st := c.Stats()
	if st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("invalidated build resurrected: entries=%d bytes=%d, want 0/0", st.Entries, st.Bytes)
	}
	if st.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1 (the dropped in-flight build)", st.Invalidations)
	}

	// The key is rebuildable: a later Get (say, the corpus re-imported
	// with identical content) builds fresh and caches normally.
	rebuilt, err := c.Get(context.Background(), key, func() ([][]ingredient.ID, error) { return classicTxs(), nil })
	if err != nil {
		t.Fatal(err)
	}
	st = c.Stats()
	if st.Entries != 1 || st.Bytes != rebuilt.Bytes() || st.Builds != 2 {
		t.Fatalf("rebuild after invalidation: %+v", st)
	}
}

// TestInvalidateFingerprintSparesOtherFlights: only in-flight builds of
// the invalidated fingerprint are dropped; a concurrent build for a
// different corpus caches normally.
func TestInvalidateFingerprintSparesOtherFlights(t *testing.T) {
	c := NewIndexCache(1 << 20)
	deadKey := IndexKey("fp-dead", "ITA", false)
	liveKey := IndexKey("fp-live", "ITA", false)
	var started sync.WaitGroup
	started.Add(2)
	release := make(chan struct{})
	source := func() ([][]ingredient.ID, error) {
		started.Done()
		<-release
		return classicTxs(), nil
	}

	var wg sync.WaitGroup
	for _, key := range []string{deadKey, liveKey} {
		wg.Add(1)
		go func(key string) {
			defer wg.Done()
			if _, err := c.Get(context.Background(), key, source); err != nil {
				t.Error(err)
			}
		}(key)
	}
	started.Wait()
	c.InvalidateFingerprint("fp-dead")
	close(release)
	wg.Wait()

	st := c.Stats()
	if st.Entries != 1 {
		t.Fatalf("entries = %d, want 1 (only the live fingerprint cached)", st.Entries)
	}
	if _, err := c.Get(context.Background(), liveKey, func() ([][]ingredient.ID, error) {
		t.Error("live fingerprint was dropped: Get rebuilt")
		return classicTxs(), nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestInvalidateFingerprintStress hammers Get against concurrent
// invalidations of the same fingerprint under the race detector. At
// every quiet point the byte budget must reconcile: after a final
// invalidation with nothing in flight, the cache holds zero entries
// and zero retained bytes — any put/invalidate accounting race (double
// decrement, leaked resurrection bytes) breaks the reconciliation.
func TestInvalidateFingerprintStress(t *testing.T) {
	c := NewIndexCache(1 << 20)
	const workers, rounds = 8, 50
	source := func() ([][]ingredient.ID, error) { return classicTxs(), nil }

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				key := IndexKey("fp-hot", fmt.Sprintf("R%d", i%4), i%2 == 0)
				if _, err := c.Get(context.Background(), key, source); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			c.InvalidateFingerprint("fp-hot")
		}
	}()
	wg.Wait()

	c.InvalidateFingerprint("fp-hot")
	st := c.Stats()
	if st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("budget did not reconcile after final invalidation: entries=%d bytes=%d", st.Entries, st.Bytes)
	}
	if st.Bytes < 0 {
		t.Fatalf("negative retained bytes: %d", st.Bytes)
	}
}
