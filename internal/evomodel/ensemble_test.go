package evomodel

import (
	"reflect"
	"testing"

	"cuisinevol/internal/ingredient"
	"cuisinevol/internal/rankfreq"
)

func testEnsembleConfig(kind Kind) EnsembleConfig {
	return EnsembleConfig{
		Params:     testParams(kind, 42),
		Replicates: 8,
		MinSupport: 0.05,
	}
}

func TestRunEnsembleDeterministic(t *testing.T) {
	a, err := RunEnsemble(testEnsembleConfig(CMRandom), lex)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunEnsemble(testEnsembleConfig(CMRandom), lex)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("ensembles with equal config differ")
	}
}

func TestRunEnsembleParallelismInvariant(t *testing.T) {
	cfg := testEnsembleConfig(CMMixture)
	cfg.Workers = 1
	serial, err := RunEnsemble(cfg, lex)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	parallel, err := RunEnsemble(cfg, lex)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("result depends on worker count")
	}
}

func TestRunEnsembleValidDistribution(t *testing.T) {
	for _, kind := range Kinds() {
		d, err := RunEnsemble(testEnsembleConfig(kind), lex)
		if err != nil {
			t.Fatal(err)
		}
		if d.Len() == 0 {
			t.Fatalf("%v: empty aggregated distribution", kind)
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if d.Label != kind.String() {
			t.Fatalf("label = %q", d.Label)
		}
	}
}

func TestRunEnsembleCustomLabel(t *testing.T) {
	cfg := testEnsembleConfig(CMRandom)
	cfg.Label = "custom"
	d, err := RunEnsemble(cfg, lex)
	if err != nil {
		t.Fatal(err)
	}
	if d.Label != "custom" {
		t.Fatalf("label = %q", d.Label)
	}
}

func TestRunEnsembleCategories(t *testing.T) {
	cfg := testEnsembleConfig(CMCategory)
	cfg.Categories = true
	d, err := RunEnsemble(cfg, lex)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() == 0 {
		t.Fatal("no category combinations mined")
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Category combinations are far fewer than ingredient combinations.
	di, err := RunEnsemble(testEnsembleConfig(CMCategory), lex)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() >= di.Len()*4 {
		t.Fatalf("category distribution suspiciously long: %d vs ingredient %d", d.Len(), di.Len())
	}
}

func TestRunEnsembleErrors(t *testing.T) {
	cfg := testEnsembleConfig(CMRandom)
	cfg.Replicates = 0
	if _, err := RunEnsemble(cfg, lex); err == nil {
		t.Fatal("zero replicates accepted")
	}
	cfg = testEnsembleConfig(CMRandom)
	cfg.MinSupport = 0
	if _, err := RunEnsemble(cfg, lex); err == nil {
		t.Fatal("zero support accepted")
	}
	cfg = testEnsembleConfig(CMRandom)
	cfg.Params.Ingredients = nil
	if _, err := RunEnsemble(cfg, lex); err == nil {
		t.Fatal("bad params accepted")
	}
}

func TestReplicateSeedsDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for rep := 0; rep < 1000; rep++ {
		s := replicateSeed(42, rep)
		if seen[s] {
			t.Fatalf("replicate seed collision at %d", rep)
		}
		seen[s] = true
	}
}

// toCategoryTransactions maps ingredient transactions to sorted distinct
// category sets (as ingredient.ID-compatible ints), the representation
// used by the category-combination analyses. It is the test oracle for
// the machine's category tidset bitmaps.
func toCategoryTransactions(txs [][]ingredient.ID, lex *ingredient.Lexicon) [][]ingredient.ID {
	out := make([][]ingredient.ID, len(txs))
	for i, tx := range txs {
		var present [ingredient.NumCategories]bool
		for _, id := range tx {
			present[lex.CategoryOf(id)] = true
		}
		cats := make([]ingredient.ID, 0, 8)
		for c, ok := range present {
			if ok {
				cats = append(cats, ingredient.ID(c))
			}
		}
		out[i] = cats
	}
	return out
}

func TestToCategoryTransactions(t *testing.T) {
	tomato := lex.MustID("tomato")
	onion := lex.MustID("onion")
	basil := lex.MustID("basil")
	txs := [][]ingredient.ID{{tomato, onion, basil}}
	got := toCategoryTransactions(txs, lex)
	want := []ingredient.ID{
		ingredient.ID(ingredient.Vegetable),
		ingredient.ID(ingredient.Herb),
	}
	// Output must be ascending category indices; Vegetable=0 < Herb.
	if len(got[0]) != 2 || got[0][0] != want[0] || got[0][1] != want[1] {
		t.Fatalf("category tx = %v, want %v", got[0], want)
	}
}

// TestNullModelCliffVsCopyMutateTail reproduces the qualitative Fig 4
// contrast at test scale: the null model's combination rank-frequency
// declines rapidly and abruptly, the copy-mutate models' gradually. We
// quantify via the tail mass beyond rank 10 relative to the head.
func TestNullModelCliffVsCopyMutateTail(t *testing.T) {
	length := func(kind Kind) int {
		d, err := RunEnsemble(testEnsembleConfig(kind), lex)
		if err != nil {
			t.Fatal(err)
		}
		return d.Len()
	}
	nm := length(NullModel)
	for _, kind := range []Kind{CMRandom, CMCategory, CMMixture} {
		if cm := length(kind); cm <= nm {
			t.Fatalf("%v frequent-combination count %d not above NM %d", kind, cm, nm)
		}
	}
}

func BenchmarkRunCMRandom(b *testing.B) {
	p := testParams(CMRandom, 1)
	for i := 0; i < b.N; i++ {
		if _, err := Run(p, lex); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnsemble8Replicates(b *testing.B) {
	cfg := testEnsembleConfig(CMRandom)
	for i := 0; i < b.N; i++ {
		if _, err := RunEnsemble(cfg, lex); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRunEnsembleDetailed(t *testing.T) {
	cfg := testEnsembleConfig(CMRandom)
	detail, err := RunEnsembleDetailed(cfg, lex)
	if err != nil {
		t.Fatal(err)
	}
	if len(detail.Replicates) != cfg.Replicates {
		t.Fatalf("kept %d replicates", len(detail.Replicates))
	}
	agg, err := RunEnsemble(cfg, lex)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(agg, detail.Aggregate) {
		t.Fatal("detailed aggregate differs from RunEnsemble")
	}
	dists, err := detail.ReplicateDistances(detail.Aggregate, rankfreq.PaperMAE)
	if err != nil {
		t.Fatal(err)
	}
	if len(dists) != cfg.Replicates {
		t.Fatalf("distances = %v", dists)
	}
	spread := 0.0
	for _, d := range dists {
		if d < 0 {
			t.Fatal("negative distance")
		}
		spread += d
	}
	if spread == 0 {
		t.Fatal("replicates identical to the aggregate — dispersion lost")
	}
}

func TestReplicateDistancesError(t *testing.T) {
	detail := &EnsembleDetail{Replicates: []rankfreq.Distribution{{Label: "empty"}}}
	if _, err := detail.ReplicateDistances(rankfreq.Distribution{Label: "ref", Freqs: []float64{0.5}}, rankfreq.PaperMAE); err == nil {
		t.Fatal("empty replicate distance must error")
	}
}
