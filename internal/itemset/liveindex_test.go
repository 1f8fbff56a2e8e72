package itemset

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"cuisinevol/internal/ingredient"
)

// mustAppend appends txs and fails the test on error.
func mustAppend(t *testing.T, li *LiveIndex, txs ...[]ingredient.ID) []int64 {
	t.Helper()
	ids, err := li.Append(txs)
	if err != nil {
		t.Fatalf("Append: %v", err)
	}
	if len(ids) != len(txs) {
		t.Fatalf("Append returned %d ids for %d txs", len(ids), len(txs))
	}
	return ids
}

// expectSnapshotEquals asserts the snapshot is structurally identical —
// reflect.DeepEqual over every field, fingerprint included — to a
// from-scratch BuildIndex over want.
func expectSnapshotEquals(t *testing.T, li *LiveIndex, want [][]ingredient.ID, label string) *Index {
	t.Helper()
	snap := li.Snapshot()
	oracle, err := BuildIndex(want)
	if err != nil {
		t.Fatalf("%s: BuildIndex oracle: %v", label, err)
	}
	if snap.Fingerprint() != oracle.Fingerprint() {
		t.Fatalf("%s: snapshot fingerprint %s != oracle %s", label, snap.Fingerprint(), oracle.Fingerprint())
	}
	if !reflect.DeepEqual(snap, oracle) {
		t.Fatalf("%s: snapshot differs structurally from BuildIndex\nsnapshot: %+v\noracle:   %+v", label, snap, oracle)
	}
	return snap
}

func TestLiveIndexSnapshotMatchesBuildIndexClassic(t *testing.T) {
	li := NewLiveIndex()
	mustAppend(t, li, classicTxs()...)
	expectSnapshotEquals(t, li, classicTxs(), "classic")

	// Empty live index == BuildIndex over no transactions.
	empty := NewLiveIndex()
	expectSnapshotEquals(t, empty, nil, "empty")
}

func TestLiveIndexAppendValidation(t *testing.T) {
	li := NewLiveIndex()
	if _, err := li.Append([][]ingredient.ID{{3, 1, 2}}); err == nil {
		t.Fatal("Append accepted an unsorted transaction")
	}
	if _, err := li.Append([][]ingredient.ID{{1, 1, 2}}); err == nil {
		t.Fatal("Append accepted duplicate items")
	}
	// A failed Append applies nothing: state is still the empty corpus.
	if got := li.Len(); got != 0 {
		t.Fatalf("failed Append leaked %d transactions", got)
	}
	if st := li.Stats(); st.Epoch != 0 || st.Appends != 0 {
		t.Fatalf("failed Append bumped counters: %+v", st)
	}
}

func TestLiveIndexEmptyTransactionsCountInN(t *testing.T) {
	// BuildIndex counts empty transactions in N and hashes their
	// separator; the live path must agree exactly.
	txs := [][]ingredient.ID{tx(1, 2), {}, tx(2, 3), {}}
	li := NewLiveIndex()
	mustAppend(t, li, txs...)
	snap := expectSnapshotEquals(t, li, txs, "empties")
	if snap.N() != 4 {
		t.Fatalf("N = %d, want 4", snap.N())
	}
	if snap.UniqueTransactions() != 2 {
		t.Fatalf("uniques = %d, want 2", snap.UniqueTransactions())
	}
}

func TestLiveIndexDeleteErrors(t *testing.T) {
	li := NewLiveIndex()
	ids := mustAppend(t, li, tx(1, 2), tx(2, 3), tx(1, 2))

	if err := li.Delete([]int64{999}); !errors.Is(err, ErrUnknownTx) {
		t.Fatalf("deleting unknown id: got %v, want ErrUnknownTx", err)
	}
	if err := li.Delete([]int64{ids[0], ids[0]}); !errors.Is(err, ErrUnknownTx) {
		t.Fatalf("duplicate id in batch: got %v, want ErrUnknownTx", err)
	}
	// Failed deletes are atomic: ids[0] from the duplicate batch must
	// still be live.
	if got := li.Len(); got != 3 {
		t.Fatalf("failed Delete removed transactions: live = %d", got)
	}
	if err := li.Delete([]int64{ids[0]}); err != nil {
		t.Fatal(err)
	}
	if err := li.Delete([]int64{ids[0]}); !errors.Is(err, ErrUnknownTx) {
		t.Fatalf("double delete: got %v, want ErrUnknownTx", err)
	}
	// An invalid id anywhere in the batch applies nothing.
	if err := li.Delete([]int64{ids[1], ids[0]}); !errors.Is(err, ErrUnknownTx) {
		t.Fatalf("mixed batch: got %v, want ErrUnknownTx", err)
	}
	expectSnapshotEquals(t, li, [][]ingredient.ID{tx(2, 3), tx(1, 2)}, "after deletes")
}

func TestLiveIndexDeleteUpdatesSupportAndWeights(t *testing.T) {
	li := NewLiveIndex()
	ids := mustAppend(t, li, tx(1, 2), tx(1, 2), tx(2, 3))
	if err := li.Delete([]int64{ids[1]}); err != nil {
		t.Fatal(err)
	}
	snap := expectSnapshotEquals(t, li, [][]ingredient.ID{tx(1, 2), tx(2, 3)}, "weight decrement")
	if got := snap.Support(1); got != 1 {
		t.Fatalf("support(1) = %d, want 1", got)
	}
	// Deleting the last copy of a content removes its item counts
	// entirely (DistinctItems shrinks), and re-appending revives it.
	if err := li.Delete([]int64{ids[0]}); err != nil {
		t.Fatal(err)
	}
	snap = expectSnapshotEquals(t, li, [][]ingredient.ID{tx(2, 3)}, "last copy gone")
	if got := snap.DistinctItems(); got != 2 {
		t.Fatalf("distinct items = %d, want 2", got)
	}
	mustAppend(t, li, tx(1, 2))
	expectSnapshotEquals(t, li, [][]ingredient.ID{tx(2, 3), tx(1, 2)}, "revived")
}

func TestLiveIndexCompaction(t *testing.T) {
	li := NewLiveIndex()
	var survivors [][]ingredient.ID
	var doomed []int64
	// Interleave keepers and victims so compaction has to preserve
	// arrival order across runs of tombstones.
	for i := 0; i < 400; i++ {
		txi := tx(i%37, 37+i%11, 60+i%7)
		ids := mustAppend(t, li, txi)
		if i%4 == 0 {
			survivors = append(survivors, txi)
		} else {
			doomed = append(doomed, ids[0])
		}
	}
	if err := li.Delete(doomed); err != nil {
		t.Fatal(err)
	}
	st := li.Stats()
	if st.Live != len(survivors) {
		t.Fatalf("live = %d, want %d", st.Live, len(survivors))
	}
	expectSnapshotEquals(t, li, survivors, "post-compaction")
	// Appends and deletes after compaction still line up: ids assigned
	// before compaction stay deletable.
	extra := mustAppend(t, li, tx(1, 2, 3))
	if err := li.Delete([]int64{extra[0]}); err != nil {
		t.Fatal(err)
	}
	expectSnapshotEquals(t, li, survivors, "post-compaction churn")
}

func TestLiveIndexSnapshotMemoizedPerEpoch(t *testing.T) {
	li := NewLiveIndex()
	mustAppend(t, li, classicTxs()...)
	a, b := li.Snapshot(), li.Snapshot()
	if a != b {
		t.Fatal("snapshots at the same epoch are distinct values")
	}
	st := li.Stats()
	if st.Snapshots != 1 {
		t.Fatalf("snapshot materializations = %d, want 1 (memoized)", st.Snapshots)
	}
	ids := mustAppend(t, li, tx(40, 41))
	c := li.Snapshot()
	if c == a {
		t.Fatal("snapshot not invalidated by Append")
	}
	// The old snapshot is untouched by the mutation.
	if a.N() != 9 || c.N() != 10 {
		t.Fatalf("N = %d/%d, want 9/10", a.N(), c.N())
	}
	if err := li.Delete(ids); err != nil {
		t.Fatal(err)
	}
	d := li.Snapshot()
	if d == c {
		t.Fatal("snapshot not invalidated by Delete")
	}
	// Back to the original content: same fingerprint, fresh value.
	if d.Fingerprint() != a.Fingerprint() {
		t.Fatalf("fingerprint did not return to original after append+delete round trip")
	}
}

func TestLiveIndexStatsCounters(t *testing.T) {
	li := NewLiveIndex()
	mustAppend(t, li, tx(1, 2), tx(1, 2), tx(3, 4))
	ids := mustAppend(t, li, tx(5, 6))
	if err := li.Delete(ids); err != nil {
		t.Fatal(err)
	}
	li.Snapshot()
	li.Snapshot()
	st := li.Stats()
	want := LiveIndexStats{
		Epoch: 3, Appends: 2, AppendedTx: 4, Deletes: 1, DeletedTx: 1,
		Snapshots: 1, Live: 3, Uniques: 2, DistinctItems: 4, TotalOcc: 6,
	}
	if st != want {
		t.Fatalf("stats = %+v, want %+v", st, want)
	}
	if li.Epoch() != 3 {
		t.Fatalf("Epoch() = %d, want 3", li.Epoch())
	}
}

func TestIndexCachePutAndInvalidateFingerprint(t *testing.T) {
	cache := NewIndexCache(1 << 20)
	li := NewLiveIndex()
	mustAppend(t, li, classicTxs()...)
	snap := li.Snapshot()
	fp := snap.Fingerprint()

	cache.Put(IndexKey(fp, "", false), snap)
	cache.Put(IndexKey(fp, "ITA", false), snap)
	cache.Put(IndexKey("other-fp", "", false), snap)
	if st := cache.Stats(); st.Entries != 3 {
		t.Fatalf("entries = %d, want 3", st.Entries)
	}
	// Put never displaces an incumbent for the same key.
	other, err := BuildIndex(classicTxs())
	if err != nil {
		t.Fatal(err)
	}
	containers := func(st IndexCacheStats) [4]uint64 {
		return [4]uint64{st.ContainerArrays, st.ContainerBitsets, st.ContainerRuns, st.BytesSaved}
	}
	before := containers(cache.Stats())
	cache.Put(IndexKey(fp, "", false), other)
	if after := containers(cache.Stats()); after != before {
		t.Fatalf("container totals moved across a Put that kept the incumbent: %v -> %v", before, after)
	}
	got, err := cache.Get(context.Background(), IndexKey(fp, "", false), func() ([][]ingredient.ID, error) {
		t.Fatal("Get rebuilt an index Put should have cached")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != snap {
		t.Fatal("Put displaced the incumbent entry")
	}

	if n := cache.InvalidateFingerprint(fp); n != 2 {
		t.Fatalf("invalidated %d entries, want 2", n)
	}
	st := cache.Stats()
	if st.Entries != 1 || st.Invalidations != 2 {
		t.Fatalf("after invalidation: %+v", st)
	}
	// Prefix matching is exact: the surviving entry is the other
	// fingerprint's, and invalidating a fingerprint that is a prefix of
	// another must not touch it.
	if n := cache.InvalidateFingerprint("other"); n != 0 {
		t.Fatalf("prefix fingerprint invalidated %d entries, want 0", n)
	}
	// The invalidated index itself is still fully usable by holders.
	if _, err := MineIndexed(snap, 0.2, MineOptions{}); err != nil {
		t.Fatalf("mining an invalidated snapshot: %v", err)
	}
}
