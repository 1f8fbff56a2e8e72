package cuisinevol

// Simulation-kernel benchmarks: the evolve step alone (BenchmarkEvolveRun)
// and the full evolve→mine replicate ensemble (BenchmarkEnsembleReplicates),
// per model kind on the KOR view — the per-component view behind the
// Fig 4 pipeline benches in bench_test.go. Each warms the machine pool
// before the timer so cold sync.Pool fills don't inflate the
// steady-state allocs/op these benches gate (see `make benchgate-allocs`).
//
// Run with: go test -bench='EvolveRun|EnsembleReplicates' -benchmem

import (
	"testing"

	"cuisinevol/internal/evomodel"
	"cuisinevol/internal/ingredient"
)

// benchSimSetup derives KOR-view model parameters for the kind.
func benchSimSetup(b *testing.B, kind evomodel.Kind) (evomodel.Params, *ingredient.Lexicon) {
	b.Helper()
	corpus := corpusForBench(b)
	return evomodel.ParamsForView(corpus.Region("KOR"), kind, 7), corpus.Lexicon()
}

// BenchmarkEvolveRun measures one full model evolution (no mining).
func BenchmarkEvolveRun(b *testing.B) {
	for _, kind := range evomodel.Kinds() {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			p, lex := benchSimSetup(b, kind)
			if _, err := evomodel.Run(p, lex); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := evomodel.Run(p, lex); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEnsembleReplicates measures the evolve→mine replicate
// ensemble (benchReplicates runs, parallel workers, the vertical
// handoff: tidset bits set straight from the arena, counted by
// itemset.MineBitmapSupports).
func BenchmarkEnsembleReplicates(b *testing.B) {
	for _, kind := range evomodel.Kinds() {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) {
			p, lex := benchSimSetup(b, kind)
			cfg := evomodel.EnsembleConfig{
				Params:     p,
				Replicates: benchReplicates,
				MinSupport: 0.05,
			}
			if _, err := evomodel.RunEnsemble(cfg, lex); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := evomodel.RunEnsemble(cfg, lex); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
