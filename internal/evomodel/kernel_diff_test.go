package evomodel

// Differential tests pinning the arena kernel byte-for-byte against the
// retained reference implementation (reference_test.go) on randomized
// parameters — the same proof pattern the itemset package uses for
// Eclat vs its Apriori oracle. Because consecutive Run calls on one
// goroutine recycle the same pooled machine, every iteration of these
// loops also exercises reset-after-reuse across differing parameter
// shapes; any state leaking between runs shows up as a divergence from
// the freshly constructed reference machine.

import (
	"reflect"
	"testing"

	"cuisinevol/internal/ingredient"
	"cuisinevol/internal/itemset"
	"cuisinevol/internal/randx"
	"cuisinevol/internal/rankfreq"
)

// allKinds is every model variant, paper and extended.
func allKinds() []Kind { return append(Kinds(), ExtendedKinds()...) }

// randomDiffParams draws a randomized-but-valid parameter set covering
// the full option surface: fixed vs prose iteration, duplicate-replace
// shrink, null-model sampling source, the MixtureRatio sentinel values,
// and the variable-size extension.
func randomDiffParams(src *randx.Source, kind Kind) Params {
	ids := lex.IDs()
	nIng := 40 + src.Intn(120)
	if nIng > len(ids) {
		nIng = len(ids)
	}
	p := Params{
		Kind:                  kind,
		Ingredients:           ids[:nIng],
		MeanRecipeSize:        3 + src.Intn(8),
		TargetRecipes:         50 + src.Intn(200),
		InitialPool:           5 + src.Intn(20),
		Phi:                   0.1 + src.Float64()*0.5,
		Seed:                  src.Uint64(),
		FixedIterations:       src.Float64() < 0.3,
		AllowDuplicateReplace: src.Float64() < 0.5,
		NullFromFullLexicon:   src.Float64() < 0.5,
	}
	switch src.Intn(4) {
	case 0:
		p.MixtureRatio = -1 // sentinel: paper default 0.5
	case 1:
		p.MixtureRatio = 0 // literal: always-random CM-M
	case 2:
		p.MixtureRatio = 0.3
	case 3:
		p.MixtureRatio = 1
	}
	if src.Float64() < 0.4 {
		p.InsertProb = src.Float64() * 0.3
		p.DeleteProb = src.Float64() * 0.3
	}
	return p
}

func TestKernelDifferentialRun(t *testing.T) {
	src := randx.New(0xD1FF)
	for _, kind := range allKinds() {
		for trial := 0; trial < 12; trial++ {
			p := randomDiffParams(src, kind)
			got, err := Run(p, lex)
			if err != nil {
				t.Fatalf("%v trial %d: arena: %v (params %+v)", kind, trial, err, p)
			}
			want, err := referenceRun(p, lex)
			if err != nil {
				t.Fatalf("%v trial %d: reference: %v", kind, trial, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v trial %d: arena kernel diverges from reference (params %+v)", kind, trial, p)
			}
		}
	}
}

func TestKernelDifferentialInspect(t *testing.T) {
	src := randx.New(0xD1FF + 1)
	for _, kind := range allKinds() {
		for trial := 0; trial < 4; trial++ {
			p := randomDiffParams(src, kind)
			gotTxs, gotState, err := Inspect(p, lex)
			if err != nil {
				t.Fatalf("%v trial %d: arena: %v", kind, trial, err)
			}
			wantTxs, wantState, err := referenceInspect(p, lex)
			if err != nil {
				t.Fatalf("%v trial %d: reference: %v", kind, trial, err)
			}
			if !reflect.DeepEqual(gotTxs, wantTxs) {
				t.Fatalf("%v trial %d: transactions diverge (params %+v)", kind, trial, p)
			}
			if gotState != wantState {
				t.Fatalf("%v trial %d: pool state %+v, want %+v (params %+v)", kind, trial, gotState, wantState, p)
			}
		}
	}
}

func TestKernelDifferentialLineage(t *testing.T) {
	src := randx.New(0xD1FF + 2)
	for _, kind := range allKinds() {
		for trial := 0; trial < 6; trial++ {
			p := randomDiffParams(src, kind)
			gotTxs, gotLin, err := RunWithLineage(p, lex)
			if err != nil {
				t.Fatalf("%v trial %d: arena: %v", kind, trial, err)
			}
			wantTxs, wantLin, err := referenceRunWithLineage(p, lex)
			if err != nil {
				t.Fatalf("%v trial %d: reference: %v", kind, trial, err)
			}
			if !reflect.DeepEqual(gotTxs, wantTxs) {
				t.Fatalf("%v trial %d: transactions diverge (params %+v)", kind, trial, p)
			}
			if gotLin.InitialPool != wantLin.InitialPool {
				t.Fatalf("%v trial %d: InitialPool %d, want %d", kind, trial, gotLin.InitialPool, wantLin.InitialPool)
			}
			if !reflect.DeepEqual(gotLin.Mothers, wantLin.Mothers) {
				t.Fatalf("%v trial %d: mothers diverge (params %+v)", kind, trial, p)
			}
		}
	}
}

// referenceEnsemble recomputes runEnsemble's aggregate by composing
// reference-kernel replicates sequentially, each mined as transactions
// by itemset.Mine — the ground truth for the vertical evolve→mine
// handoff in runReplicate.
func referenceEnsemble(t *testing.T, cfg EnsembleConfig) rankfreq.Distribution {
	t.Helper()
	label := cfg.Label
	if label == "" {
		label = cfg.Params.Kind.String()
	}
	dists := make([]rankfreq.Distribution, cfg.Replicates)
	for rep := range dists {
		p := cfg.Params
		p.Seed = replicateSeed(p.Seed, rep)
		txs, err := referenceRun(p, lex)
		if err != nil {
			t.Fatalf("reference replicate %d: %v", rep, err)
		}
		if cfg.Categories {
			txs = toCategoryTransactions(txs, lex)
		}
		res, err := itemset.Mine(txs, cfg.MinSupport, itemset.MineOptions{})
		if err != nil {
			t.Fatalf("reference replicate %d: %v", rep, err)
		}
		dists[rep] = rankfreq.FromResult(label, res)
	}
	return rankfreq.Aggregate(dists)
}

func TestKernelDifferentialEnsemble(t *testing.T) {
	src := randx.New(0xD1FF + 3)
	for _, categories := range []bool{false, true} {
		for _, kind := range allKinds() {
			cfg := EnsembleConfig{
				Params:     randomDiffParams(src, kind),
				Replicates: 6,
				MinSupport: 0.05,
				Categories: categories,
				Workers:    3,
			}
			got, err := RunEnsemble(cfg, lex)
			if err != nil {
				t.Fatalf("%v categories=%v: %v", kind, categories, err)
			}
			want := referenceEnsemble(t, cfg)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v categories=%v: parallel vertical-handoff ensemble diverges from reference composition", kind, categories)
			}
		}
	}
}

// verticalSupports runs the replicate path's handoff on an evolved
// machine: its tidset bitmaps mined by itemset.MineBitmapSupports.
func verticalSupports(m *machine, categories bool, minSupport float64) ([]float64, error) {
	bm, err := m.tidsetBitmaps(categories)
	if err != nil {
		return nil, err
	}
	return itemset.MineBitmapSupports(bm, len(m.recs), minSupport)
}

// TestVerticalHandoffDifferential pins the vertical evolve→mine handoff
// against the transaction path: on randomized machines of every kind,
// for ingredient and category combinations, the support series mined
// from the machine's tidset bitmaps must equal itemset.MineSupports and
// itemset.Mine(...).Supports() over the same pool as transactions.
func TestVerticalHandoffDifferential(t *testing.T) {
	src := randx.New(0xD1FF + 5)
	supports := []float64{0.02, 0.05, 0.2}
	for _, kind := range allKinds() {
		for trial := 0; trial < 6; trial++ {
			p := randomDiffParams(src, kind)
			if err := p.validate(); err != nil {
				t.Fatalf("%v trial %d: %v", kind, trial, err)
			}
			m := acquireMachine(p, lex, randx.New(p.Seed))
			m.evolve()
			txs := m.cloneTransactions()
			sup := supports[trial%len(supports)]
			for _, categories := range []bool{false, true} {
				pool := txs
				if categories {
					pool = toCategoryTransactions(txs, lex)
				}
				got, err := verticalSupports(m, categories, sup)
				if err != nil {
					t.Fatalf("%v trial %d categories=%v: vertical: %v", kind, trial, categories, err)
				}
				want, err := itemset.MineSupports(pool, sup)
				if err != nil {
					t.Fatalf("%v trial %d categories=%v: MineSupports: %v", kind, trial, categories, err)
				}
				res, err := itemset.Mine(pool, sup, itemset.MineOptions{})
				if err != nil {
					t.Fatalf("%v trial %d categories=%v: Mine: %v", kind, trial, categories, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%v trial %d categories=%v: vertical handoff diverges from MineSupports (params %+v)", kind, trial, categories, p)
				}
				if !reflect.DeepEqual(got, res.Supports()) {
					t.Fatalf("%v trial %d categories=%v: vertical handoff diverges from Mine (params %+v)", kind, trial, categories, p)
				}
			}
			releaseMachine(m)
		}
	}
}

// TestVerticalHandoffEmptyPool: a machine holding no recipes hands over
// no tidset words and mines to the same empty series as MineSupports.
func TestVerticalHandoffEmptyPool(t *testing.T) {
	m := &machine{lex: lex, fitness: make([]float64, 8)}
	for _, categories := range []bool{false, true} {
		got, err := verticalSupports(m, categories, 0.05)
		if err != nil {
			t.Fatalf("categories=%v: %v", categories, err)
		}
		want, err := itemset.MineSupports(m.cloneTransactions(), 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("categories=%v: got %v, want %v", categories, got, want)
		}
	}
}

// TestVerticalHandoffRejectsDuplicateIngredient: a recipe that lists an
// ingredient twice fails the ingredient handoff, as MineSupports fails
// its transaction, instead of mining a wrong count. The category
// handoff collapses the recipe to its category set and agrees with the
// transaction path.
func TestVerticalHandoffRejectsDuplicateIngredient(t *testing.T) {
	tomato, onion := lex.MustID("tomato"), lex.MustID("onion")
	m := &machine{lex: lex, fitness: make([]float64, int(max(tomato, onion))+1)}
	m.arena = []ingredient.ID{tomato, onion, onion, tomato, onion}
	m.recs = []span{{off: 0, n: 2}, {off: 2, n: 3}}
	if _, err := verticalSupports(m, false, 0.05); err == nil {
		t.Fatal("ingredient handoff accepted a recipe with a duplicate ingredient")
	}
	if _, err := itemset.MineSupports(m.cloneTransactions(), 0.05); err == nil {
		t.Fatal("MineSupports accepted a transaction with a duplicate item")
	}
	got, err := verticalSupports(m, true, 0.05)
	if err != nil {
		t.Fatalf("category handoff: %v", err)
	}
	want, err := itemset.MineSupports(toCategoryTransactions(m.cloneTransactions(), lex), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("category handoff = %v, want %v", got, want)
	}
}

// TestKernelDifferentialInterleaved hammers pooled-machine reuse: the
// same goroutine runs wildly differing parameter shapes back-to-back
// (large then small ingredient sets, lineage on and off, category
// handoffs between ingredient handoffs) and every single output must
// still match a fresh reference machine.
func TestKernelDifferentialInterleaved(t *testing.T) {
	src := randx.New(0xD1FF + 4)
	kinds := allKinds()
	for trial := 0; trial < 40; trial++ {
		kind := kinds[src.Intn(len(kinds))]
		p := randomDiffParams(src, kind)
		switch trial % 3 {
		case 0:
			got, err := Run(p, lex)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			want, _ := referenceRun(p, lex)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d (%v): Run diverges after reuse (params %+v)", trial, kind, p)
			}
		case 1:
			got, gotLin, err := RunWithLineage(p, lex)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			want, wantLin, _ := referenceRunWithLineage(p, lex)
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotLin.Mothers, wantLin.Mothers) {
				t.Fatalf("trial %d (%v): RunWithLineage diverges after reuse (params %+v)", trial, kind, p)
			}
		case 2:
			cfg := EnsembleConfig{Params: p, Replicates: 2, MinSupport: 0.05, Categories: trial%2 == 0, Workers: 1}
			got, err := RunEnsemble(cfg, lex)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			want := referenceEnsemble(t, cfg)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d (%v): ensemble diverges after reuse", trial, kind)
			}
		}
	}
}

// TestEmittedTransactionsIndependent guards the public entry points'
// copy contract: Run's result must stay valid after unrelated runs
// recycle the machine that produced it.
func TestEmittedTransactionsIndependent(t *testing.T) {
	p := testParams(CMRandom, 99)
	got, err := Run(p, lex)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := make([][]ingredient.ID, len(got))
	for i, tx := range got {
		snapshot[i] = append([]ingredient.ID(nil), tx...)
	}
	// Churn the machine pool with different shapes.
	for s := uint64(0); s < 4; s++ {
		if _, err := Run(testParams(CMCategory, s), lex); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(got, snapshot) {
		t.Fatal("Run output mutated by subsequent pooled runs")
	}
}
