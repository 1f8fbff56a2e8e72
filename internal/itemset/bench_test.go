package itemset

import (
	"testing"

	"cuisinevol/internal/ingredient"
	"cuisinevol/internal/randx"
)

// replicatePool synthesizes a copy-mutate-style recipe pool: a small set
// of founder recipes expanded by copying with few mutations, so the
// transaction multiset is highly redundant — exactly the shape the
// Fig 4 replicate ensembles hand to the miner ~10,000 times per full
// reproduction.
func replicatePool(seed uint64, founders, total, size, universe int) [][]ingredient.ID {
	src := randx.New(seed)
	pool := make([][]ingredient.ID, 0, total)
	for i := 0; i < founders; i++ {
		pool = append(pool, tx(src.SampleInts(universe, size)...))
	}
	for len(pool) < total {
		mother := pool[src.Intn(len(pool))]
		r := append([]ingredient.ID(nil), mother...)
		// One mutation attempt per copy keeps duplicates common.
		if src.Float64() < 0.5 {
			r[src.Intn(len(r))] = ingredient.ID(src.Intn(universe))
			r = dedupSorted(r)
		}
		pool = append(pool, r)
	}
	return pool
}

func dedupSorted(r []ingredient.ID) []ingredient.ID {
	sortIDs(r)
	out := r[:0]
	for i, id := range r {
		if i == 0 || id != out[len(out)-1] {
			out = append(out, id)
		}
	}
	return out
}

func sortIDs(xs []ingredient.ID) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// BenchmarkEclatReplicatePool is the replicate-mining benchmark: one
// raw mine over a duplicate-heavy model-generated pool, the hot path of
// the Fig 4 pipeline.
func BenchmarkEclatReplicatePool(b *testing.B) {
	txs := replicatePool(7, 30, 3000, 9, 300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Mine(txs, 0.05, MineOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEclatReplicateSupports is the replicate ensembles' actual
// call on the same pool: the count-only MineSupports, which keeps the
// support series and never builds or sorts itemsets. The delta to
// BenchmarkEclatReplicatePool is what count-only saves per replicate.
func BenchmarkEclatReplicateSupports(b *testing.B) {
	txs := replicatePool(7, 30, 3000, 9, 300)
	// One warm-up mine heats the miner pool so a 1-iteration alloc gate
	// measures the steady state.
	if _, err := MineSupports(txs, 0.05); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MineSupports(txs, 0.05); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEclatReplicateSweep mines many replicate pools back to back,
// the steady-state regime the ensemble workers run in: it measures
// bitmap/scratch reuse through the kernel pool.
func BenchmarkEclatReplicateSweep(b *testing.B) {
	pools := make([][][]ingredient.ID, 16)
	for i := range pools {
		pools[i] = replicatePool(uint64(i+1), 30, 1500, 9, 300)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, txs := range pools {
			if _, err := Mine(txs, 0.05, MineOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEclatParallelReplicatePool runs the same pool through the
// prefix-partitioned parallel path (the /v1/mine configuration).
func BenchmarkEclatParallelReplicatePool(b *testing.B) {
	txs := replicatePool(7, 30, 3000, 9, 300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Mine(txs, 0.05, MineOptions{Workers: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMineIndexBuild prices the one-time cost the warm path amortizes:
// a full BuildIndex — validation, counting, fingerprint, dedup, and the
// all-items bitmap layout — over the replicate-pool corpus.
func BenchmarkMineIndexBuild(b *testing.B) {
	txs := replicatePool(7, 30, 3000, 9, 300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildIndex(txs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMineWarmIndex is the steady-state serving path: the index is
// prebuilt (one build shared across every parameter point) and each
// iteration is a pure query at a second threshold — no counting pass,
// no dedup, no bitmap build. Paired with BenchmarkMineColdSecondPoint
// below; the benchgate enforces this stays a multiple faster.
func BenchmarkMineWarmIndex(b *testing.B) {
	txs := replicatePool(7, 30, 3000, 9, 300)
	ix, err := BuildIndex(txs)
	if err != nil {
		b.Fatal(err)
	}
	// One warm-up query heats the scratch pools so a 1-iteration alloc
	// gate measures the steady state (same pattern as EvolveRun).
	if _, err := MineIndexed(ix, 0.1, MineOptions{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MineIndexed(ix, 0.1, MineOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexBuildSparse prices BuildIndex over the synthetic
// long-tail corpus (the world-recipes shape: few staples, a mid tier,
// a near-singleton tail) and reports the adaptive layout's retained
// size next to what the uniform dense layout would have retained — the
// tentpole's ≥4× reduction, recorded in BENCH_fig_pipeline.json.
func BenchmarkIndexBuildSparse(b *testing.B) {
	txs := longTailCorpus(11, 262144, 500, 3580)
	ix, err := BuildIndex(txs)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildIndex(txs); err != nil {
			b.Fatal(err)
		}
	}
	st := ix.ContainerStats()
	b.ReportMetric(float64(ix.Bytes()), "index-bytes")
	b.ReportMetric(float64(ix.Bytes()+st.BytesSaved()), "dense-bytes")
	b.ReportMetric(float64(ix.Bytes()+st.BytesSaved())/float64(ix.Bytes()), "compression-x")
}

// BenchmarkMineWarmIndexSparse is the warm serving path on the
// long-tail corpus: adaptive containers and galloping intersections.
func BenchmarkMineWarmIndexSparse(b *testing.B) {
	txs := longTailCorpus(11, 262144, 500, 3580)
	ix, err := BuildIndex(txs)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := MineIndexed(ix, 0.00036, MineOptions{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MineIndexed(ix, 0.00036, MineOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMineWarmIndexSparseDense is the pre-container comparison
// point: the same corpus and threshold over a dense-forced index, so
// the delta to BenchmarkMineWarmIndexSparse isolates the container
// dispatch against uniform word sweeps.
func BenchmarkMineWarmIndexSparseDense(b *testing.B) {
	txs := longTailCorpus(11, 262144, 500, 3580)
	ix, err := buildIndexWith(txs, true)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := MineIndexed(ix, 0.00036, MineOptions{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MineIndexed(ix, 0.00036, MineOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMineColdSecondPoint is the pre-index behaviour at the same
// second parameter point: every mine rebuilds dedup and bitmaps from
// the raw transactions, which is exactly what the result cache could
// never help with across thresholds.
func BenchmarkMineColdSecondPoint(b *testing.B) {
	txs := replicatePool(7, 30, 3000, 9, 300)
	if _, err := Mine(txs, 0.1, MineOptions{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Mine(txs, 0.1, MineOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
