package itemset

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"cuisinevol/internal/cuisine"
	"cuisinevol/internal/ingredient"
	"cuisinevol/internal/randx"
	"cuisinevol/internal/synth"
)

// The differential layer: the Eclat kernel — raw and indexed, serial
// and prefix-partition-parallel — must produce the identical canonical
// Result to the Apriori oracle on every corpus we can throw at it.

// allKernels runs Mine and MineIndexed (serial and parallel) on txs and
// fails the test unless every Result is identical in canonical order to
// Apriori's, and unless MineSupports returns exactly Apriori's support
// series. It returns the agreed-upon result.
func allKernels(t *testing.T, txs [][]ingredient.ID, minSupport float64, label string) *Result {
	t.Helper()
	base, err := Apriori(txs, minSupport)
	if err != nil {
		t.Fatalf("%s: apriori: %v", label, err)
	}
	ix, err := BuildIndex(txs)
	if err != nil {
		t.Fatalf("%s: build index: %v", label, err)
	}
	runs := []struct {
		name string
		mine func() (*Result, error)
	}{
		{"raw", func() (*Result, error) { return Mine(txs, minSupport, MineOptions{}) }},
		{"raw-parallel", func() (*Result, error) { return Mine(txs, minSupport, MineOptions{Workers: 4}) }},
		{"indexed", func() (*Result, error) { return MineIndexed(ix, minSupport, MineOptions{}) }},
		{"indexed-parallel", func() (*Result, error) { return MineIndexed(ix, minSupport, MineOptions{Workers: 4}) }},
	}
	for _, run := range runs {
		got, err := run.mine()
		if err != nil {
			t.Fatalf("%s: %s: %v", label, run.name, err)
		}
		if got.N != base.N {
			t.Fatalf("%s: %s: N = %d, apriori N = %d", label, run.name, got.N, base.N)
		}
		if !reflect.DeepEqual(base.Sets, got.Sets) {
			t.Fatalf("%s: %s diverges from apriori in canonical order\napriori: %v\n%s: %v",
				label, run.name, base.Sets, run.name, got.Sets)
		}
	}
	supportsAgree(t, txs, minSupport, base, label)
	return base
}

// supportsAgree fails the test unless MineSupports on txs returns
// exactly the oracle Result's support series.
func supportsAgree(t *testing.T, txs [][]ingredient.ID, minSupport float64, base *Result, label string) {
	t.Helper()
	sups, err := MineSupports(txs, minSupport)
	if err != nil {
		t.Fatalf("%s: supports: %v", label, err)
	}
	if want := base.Supports(); !reflect.DeepEqual(want, sups) {
		t.Fatalf("%s: MineSupports diverges from apriori\napriori: %v\nsupports: %v", label, want, sups)
	}
}

// kernelsAgreeOnMaps is the weaker (itemset, support)-map agreement;
// canonical-order equality implies it, but asserting it separately
// keeps the failure mode readable when only ordering drifts.
func kernelsAgreeOnMaps(t *testing.T, txs [][]ingredient.ID, minSupport float64, label string) {
	t.Helper()
	resA, errA := Apriori(txs, minSupport)
	resM, errM := mineRaw(txs, minSupport)
	if errA != nil || errM != nil {
		t.Fatalf("%s: %v %v", label, errA, errM)
	}
	if !reflect.DeepEqual(setsAsMap(resA), setsAsMap(resM)) {
		t.Fatalf("%s: apriori and eclat (itemset, support) maps differ", label)
	}
}

// TestDifferentialRandomizedCorpora sweeps seed-stable random databases
// across the shape axes that matter to the kernels: universe size,
// transaction count, transaction length, duplication level (replicate
// pools are duplicate-heavy by construction), and support threshold.
func TestDifferentialRandomizedCorpora(t *testing.T) {
	src := randx.New(20260805)
	supports := []float64{0.02, 0.05, 0.1, 0.3, 0.75, 1.0}
	for trial := 0; trial < 40; trial++ {
		universe := 3 + src.Intn(60)
		total := 10 + src.Intn(250)
		dupHeavy := trial%2 == 0
		txs := make([][]ingredient.ID, 0, total)
		if dupHeavy {
			founders := 2 + src.Intn(8)
			for i := 0; i < founders; i++ {
				size := 1 + src.Intn(9)
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
		} else {
			for len(txs) < total {
				size := 1 + src.Intn(9)
				if size > universe {
					size = universe
				}
				txs = append(txs, tx(src.SampleInts(universe, size)...))
			}
		}
		for _, sup := range supports {
			label := fmt.Sprintf("trial %d (dup=%v) sup %v", trial, dupHeavy, sup)
			allKernels(t, txs, sup, label)
			kernelsAgreeOnMaps(t, txs, sup, label)
		}
	}
}

// TestDifferentialEdgeCorpora pins the degenerate shapes where kernel
// bookkeeping tends to go wrong: empty databases, empty transactions,
// singletons, one giant transaction, and IDs straddling the 16-bit
// boundary.
func TestDifferentialEdgeCorpora(t *testing.T) {
	// 12 items: every one of the 4095 subsets of the giant transaction
	// is frequent at low support — deep recursion for every kernel, but
	// bounded (2^24 would be a 16M-itemset enumeration, not a test).
	big := make([]int, 12)
	for i := range big {
		big[i] = i * 3
	}
	edges := map[string][][]ingredient.ID{
		"empty":        {},
		"empty-txs":    {tx(), tx(), tx()},
		"singleton":    {tx(5)},
		"repeated":     {tx(5), tx(5), tx(5), tx(5)},
		"pairs":        {tx(1), tx(2), tx(1, 2)},
		"one-giant":    {tx(big...)},
		"wide-ids":     {tx(257, 300), tx(65793, 300), tx(257, 65793), tx(257, 65793)},
		"disjoint":     {tx(1, 2), tx(3, 4), tx(5, 6), tx(7, 8)},
		"all-frequent": {tx(1, 2, 3), tx(1, 2, 3), tx(1, 2, 3)},
	}
	for name, txs := range edges {
		for _, sup := range []float64{0.01, 0.05, 0.34, 0.5, 1.0} {
			allKernels(t, txs, sup, fmt.Sprintf("edge %s sup %v", name, sup))
		}
	}
}

// TestDifferentialIDTableCorpus drives MineSupports' ID table through
// its hard cases: the int32 extremes and negative IDs, IDs spaced by
// the table size, IDs that all share one home slot (every probe
// collides), and more distinct items than a fresh table holds, so it
// grows mid-count with collision chains in place.
func TestDifferentialIDTableCorpus(t *testing.T) {
	var fresh idTable
	fresh.reset()
	var colliding []int
	for id := -1 << 20; len(colliding) < 40; id++ {
		if fresh.home(ingredient.ID(id)) == fresh.home(0) {
			colliding = append(colliding, id)
		}
	}
	spaced := func(k int) []int {
		out := make([]int, k)
		for i := range out {
			out[i] = (i - k/2) * idTableInitSlots
		}
		return out
	}
	growth := slices.Concat(spaced(3*idTableInitSlots/2), colliding)
	slices.Sort(growth)
	growth = slices.Compact(growth)
	corpora := map[string][]int{
		"extremes":  {math.MinInt32, math.MinInt32 + 1, -idTableInitSlots, -1, 0, 1, idTableInitSlots, math.MaxInt32 - 1, math.MaxInt32},
		"spaced":    spaced(40),
		"colliding": colliding,
		"growth":    growth,
	}

	src := randx.New(20261017)
	pick := func(ids []int, k int) []int {
		out := make([]int, 0, k)
		for _, i := range src.SampleInts(len(ids), k) {
			out = append(out, ids[i])
		}
		return out
	}
	for name, ids := range corpora {
		// Every ID once, so all of them are counted, then skewed
		// samples so there are frequent items, pairs and triples.
		txs := [][]ingredient.ID{tx(ids...)}
		hot := ids[:min(len(ids), 6)]
		for i := 0; i < 120; i++ {
			r := pick(ids, 1+src.Intn(min(len(ids), 5)))
			if i%2 == 0 {
				r = append(r, hot[src.Intn(len(hot))], hot[src.Intn(len(hot))])
			}
			txs = append(txs, dedupSorted(tx(r...)))
		}
		for _, sup := range []float64{0.01, 0.05, 0.2, 0.5} {
			allKernels(t, txs, sup, fmt.Sprintf("id-table %s sup %v", name, sup))
		}
	}
}

// TestIDTableResetDropsGrownStorage: a table grown past the retain cap
// by one wide mine comes back at its initial size, empty, while a
// smaller grown table is kept and cleared.
func TestIDTableResetDropsGrownStorage(t *testing.T) {
	var tab idTable
	tab.reset()
	for id := 0; id < idTableRetainSlots; id++ {
		tab.inc(ingredient.ID(id))
	}
	if len(tab.keys) <= idTableRetainSlots {
		t.Fatalf("table has %d slots after %d inserts", len(tab.keys), idTableRetainSlots)
	}
	tab.reset()
	if len(tab.keys) != idTableInitSlots || tab.get(7) != 0 {
		t.Fatalf("reset kept %d slots (want %d), get(7) = %d", len(tab.keys), idTableInitSlots, tab.get(7))
	}
	for id := 0; id < idTableInitSlots; id++ {
		tab.inc(ingredient.ID(id))
	}
	grown := len(tab.keys)
	tab.reset()
	if len(tab.keys) != grown || tab.get(7) != 0 {
		t.Fatalf("reset of a %d-slot table left %d slots, get(7) = %d", grown, len(tab.keys), tab.get(7))
	}
}

// TestDifferentialSynthCorpus mines a seeded synthetic corpus — the
// same generator the experiments run on — per cuisine at the paper's
// 5% threshold and checks Eclat agrees with Apriori on every view,
// including the dense category-transaction projection. Seed and scale
// are those of results/golden_fig3.json, so every mine behind that
// golden file is checked against the oracle here.
func TestDifferentialSynthCorpus(t *testing.T) {
	gen := synth.DefaultConfig(42)
	gen.RecipeScale = 0.05
	corpus, err := synth.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	for _, region := range cuisine.All() {
		view := corpus.Region(region.Code)
		if view.Len() == 0 {
			t.Fatalf("region %s missing from synth corpus", region.Code)
		}
		allKernels(t, view.Transactions(), 0.05, "synth "+region.Code)
		allKernels(t, view.CategoryTransactions(), 0.05, "synth-cat "+region.Code)
	}
	allKernels(t, corpus.AllView().Transactions(), 0.05, "synth ALL")
}

// TestDifferentialRealCorpus mines the full-scale corpus (the repo's
// stand-in for the paper's 158k scraped recipes) per cuisine at the
// paper's 5% threshold — the exact mines Fig 3a runs — and checks the
// kernels agree on each. The aggregate view rides along in short mode
// for three representative cuisines only, to keep -race runs brisk.
func TestDifferentialRealCorpus(t *testing.T) {
	gen := synth.DefaultConfig(42)
	gen.RecipeScale = 1.0
	if testing.Short() {
		gen.RecipeScale = 0.2
	}
	corpus, err := synth.Generate(gen)
	if err != nil {
		t.Fatal(err)
	}
	regions := cuisine.Codes()
	if testing.Short() {
		regions = []string{"ITA", "KOR", "USA"}
	}
	for _, code := range regions {
		view := corpus.Region(code)
		txs := view.Transactions()
		// The full per-cuisine mine through every kernel, Apriori
		// included: this is the paper's §IV workload.
		res := allKernels(t, txs, 0.05, "real "+code)
		if len(res.Sets) == 0 {
			t.Fatalf("real %s: no frequent combinations at 5%%", code)
		}
	}
}

// TestEclatScratchReuseIsClean is the pool-hygiene test: a reused
// Eclat miner must match fresh results, and earlier Results
// must stay intact after later mines (no aliasing into recycled
// scratch or emit arenas).
func TestEclatScratchReuseIsClean(t *testing.T) {
	src := randx.New(17)
	var kept []*Result
	var want []map[string]int
	for trial := 0; trial < 10; trial++ {
		txs := make([][]ingredient.ID, 80)
		for i := range txs {
			txs[i] = tx(src.SampleInts(12, 1+src.Intn(6))...)
		}
		fresh, err := Apriori(txs, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		got, err := mineRaw(txs, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fresh.Sets, got.Sets) {
			t.Fatalf("trial %d: pooled eclat diverged from apriori", trial)
		}
		kept = append(kept, got)
		want = append(want, setsAsMap(got))
	}
	for i, res := range kept {
		if !reflect.DeepEqual(setsAsMap(res), want[i]) {
			t.Fatalf("result %d mutated by later mines", i)
		}
	}
}

// TestEclatParallelDeterminism: the prefix-partition fan-out must give
// the same canonical Result for every worker count, run after run.
func TestEclatParallelDeterminism(t *testing.T) {
	txs := replicatePool(3, 25, 2000, 9, 250)
	base, err := mineRaw(txs, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 16} {
		for run := 0; run < 3; run++ {
			got, err := Mine(txs, 0.05, MineOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(base.Sets, got.Sets) {
				t.Fatalf("workers=%d run %d changed the result", workers, run)
			}
		}
	}
}

// TestEclatValidation: the vertical kernel enforces the same input
// contract as the Apriori oracle.
func TestEclatValidation(t *testing.T) {
	for _, sup := range []float64{0, -0.1, 1.01, math.NaN()} {
		if _, err := mineRaw(classicTxs(), sup); err != ErrBadSupport {
			t.Fatalf("support %v: want ErrBadSupport, got %v", sup, err)
		}
	}
	if _, err := mineRaw([][]ingredient.ID{{3, 1, 2}}, 0.5); err == nil {
		t.Fatal("Eclat accepted unsorted transaction")
	}
	if _, err := mineRaw([][]ingredient.ID{{1, 1, 2}}, 0.5); err == nil {
		t.Fatal("Eclat accepted duplicate items")
	}
}
