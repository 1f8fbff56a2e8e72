package itemset

import (
	"reflect"
	"testing"

	"cuisinevol/internal/ingredient"
	"cuisinevol/internal/randx"
)

// TestMiningOrderInvariance: the mined itemsets (and their canonical
// order) must not depend on transaction order.
func TestMiningOrderInvariance(t *testing.T) {
	src := randx.New(11)
	txs := make([][]ingredient.ID, 120)
	for i := range txs {
		txs[i] = tx(src.SampleInts(15, 2+src.Intn(6))...)
	}
	base, err := mineRaw(txs, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		shuffled := append([][]ingredient.ID(nil), txs...)
		src.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		got, err := mineRaw(shuffled, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base.Sets, got.Sets) {
			t.Fatalf("trial %d: mining depends on transaction order", trial)
		}
	}
}

// TestMiningDuplicateTransactions: duplicating every transaction doubles
// every count and leaves the frequent set unchanged at the same relative
// support.
func TestMiningDuplicateTransactions(t *testing.T) {
	txs := classicTxs()
	doubled := append(append([][]ingredient.ID(nil), txs...), txs...)
	a, err := mineRaw(txs, 2.0/9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mineRaw(doubled, 2.0/9)
	if err != nil {
		t.Fatal(err)
	}
	am, bm := setsAsMap(a), setsAsMap(b)
	if len(am) != len(bm) {
		t.Fatalf("frequent sets changed: %d vs %d", len(am), len(bm))
	}
	for k, c := range am {
		if bm[k] != 2*c {
			t.Fatalf("count not doubled for %q: %d vs %d", k, c, bm[k])
		}
	}
}

// TestMineAprioriEquivalence: Mine and the Apriori oracle must agree —
// byte-for-byte in canonical order — on randomized duplicate-heavy
// transaction pools (the replicate-ensemble shape, where
// recipes are copies by construction) across a minSupport sweep,
// including empty and singleton edge cases.
func TestMineAprioriEquivalence(t *testing.T) {
	src := randx.New(4242)
	supports := []float64{0.02, 0.05, 0.1, 0.25, 0.5, 1.0}
	for trial := 0; trial < 25; trial++ {
		universe := 6 + src.Intn(40)
		founders := 3 + src.Intn(10)
		total := founders + src.Intn(200)
		// Duplicate-heavy pool: founders plus copies with rare mutations.
		txs := make([][]ingredient.ID, 0, total)
		for i := 0; i < founders; i++ {
			size := 1 + src.Intn(7)
			if size > universe {
				size = universe
			}
			txs = append(txs, tx(src.SampleInts(universe, size)...))
		}
		for len(txs) < total {
			mother := txs[src.Intn(len(txs))]
			r := append([]ingredient.ID(nil), mother...)
			if src.Float64() < 0.3 {
				r[src.Intn(len(r))] = ingredient.ID(src.Intn(universe))
				r = dedupSorted(r)
			}
			txs = append(txs, r)
		}
		for _, sup := range supports {
			resA, errA := Apriori(txs, sup)
			resM, errM := mineRaw(txs, sup)
			if errA != nil || errM != nil {
				t.Fatal(errA, errM)
			}
			if !reflect.DeepEqual(resA.Sets, resM.Sets) {
				t.Fatalf("trial %d sup %v: kernels disagree in canonical order\nA: %v\nM: %v",
					trial, sup, resA.Sets, resM.Sets)
			}
		}
	}
	// Edge cases: empty pool, pool of empty transactions, singletons.
	edges := [][][]ingredient.ID{
		{},
		{tx()},
		{tx(), tx(), tx()},
		{tx(5)},
		{tx(5), tx(5), tx(5)},
		{tx(1), tx(2), tx(1, 2)},
	}
	for i, txs := range edges {
		for _, sup := range supports {
			resA, errA := Apriori(txs, sup)
			resM, errM := mineRaw(txs, sup)
			if errA != nil || errM != nil {
				t.Fatal(errA, errM)
			}
			if !reflect.DeepEqual(resA.Sets, resM.Sets) {
				t.Fatalf("edge %d sup %v: kernels disagree\nA: %v\nM: %v", i, sup, resA.Sets, resM.Sets)
			}
		}
	}
}

// TestMinerScratchReuseIsClean: a single reused count-only miner must
// produce the support series of fresh Mine calls, and earlier results
// of both must stay intact after later mines (no aliasing into
// recycled scratch — the pooled query scratch behind Mine included).
func TestMinerScratchReuseIsClean(t *testing.T) {
	miner := new(eclatMiner)
	src := randx.New(17)
	var kept []*Result
	var want []map[string]int
	var keptSups, wantSups [][]float64
	for trial := 0; trial < 10; trial++ {
		txs := make([][]ingredient.ID, 80)
		for i := range txs {
			txs[i] = tx(src.SampleInts(12, 1+src.Intn(6))...)
		}
		fresh, err := mineRaw(txs, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		got, err := miner.transactionSupports(txs, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fresh.Supports(), got) {
			t.Fatalf("trial %d: reused miner diverged from fresh call", trial)
		}
		kept = append(kept, fresh)
		want = append(want, setsAsMap(fresh))
		keptSups = append(keptSups, got)
		wantSups = append(wantSups, append([]float64(nil), got...))
	}
	for i, res := range kept {
		if !reflect.DeepEqual(setsAsMap(res), want[i]) {
			t.Fatalf("result %d mutated by later mines", i)
		}
		if !reflect.DeepEqual(keptSups[i], wantSups[i]) {
			t.Fatalf("support series %d mutated by later mines", i)
		}
	}
}

// TestSupersetTransactionsOnlyGrowCounts: widening a transaction can only
// increase itemset counts (anti-monotonicity of containment).
func TestSupersetTransactionsOnlyGrowCounts(t *testing.T) {
	src := randx.New(13)
	txs := make([][]ingredient.ID, 60)
	for i := range txs {
		txs[i] = tx(src.SampleInts(10, 2+src.Intn(4))...)
	}
	base, err := mineRaw(txs, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	// Extend every transaction with item 99 (fresh, outside universe).
	wider := make([][]ingredient.ID, len(txs))
	for i, x := range txs {
		wider[i] = append(append([]ingredient.ID(nil), x...), 99)
	}
	grown, err := mineRaw(wider, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	gm := setsAsMap(grown)
	for _, s := range base.Sets {
		if gm[fingerprint(s.Items)] < s.Count {
			t.Fatalf("count shrank for %v", s.Items)
		}
	}
	// Item 99 is now universal: it must be frequent with count == N.
	if gm[fingerprint(tx(99))] != len(txs) {
		t.Fatal("universal added item not counted")
	}
}
