package evomodel

import (
	"context"
	"errors"
	"fmt"

	"cuisinevol/internal/ingredient"
	"cuisinevol/internal/itemset"
	"cuisinevol/internal/randx"
	"cuisinevol/internal/rankfreq"
	"cuisinevol/internal/sched"
)

// EnsembleConfig configures a replicate ensemble: the paper generates 100
// independent sets of model recipes per cuisine and studies the
// aggregated statistics.
type EnsembleConfig struct {
	Params Params
	// Replicates is the number of independent runs (paper: 100).
	Replicates int
	// MinSupport is the frequent-combination threshold (paper: 0.05).
	MinSupport float64
	// Categories switches mining from ingredient combinations to
	// ingredient-category combinations (the §VI control experiment).
	Categories bool
	// Workers bounds parallelism; 0 means GOMAXPROCS.
	Workers int
	// Label annotates the aggregated distribution (defaults to the model
	// kind's abbreviation).
	Label string
}

// RunEnsemble executes the configured replicates in parallel, mines each
// replicate's frequent combinations, and returns the rank-wise aggregated
// rank-frequency distribution.
//
// Replicate r uses seed Params.Seed + r mixed through the splittable RNG,
// so ensembles are reproducible and replicates independent.
func RunEnsemble(cfg EnsembleConfig, lex *ingredient.Lexicon) (rankfreq.Distribution, error) {
	agg, _, err := runEnsemble(context.Background(), cfg, lex)
	return agg, err
}

// RunEnsembleCtx is RunEnsemble with cooperative cancellation: once ctx
// is cancelled no further replicates are scheduled and the call returns
// ctx.Err(). Replicate seeding is unchanged, so a completed run is
// bit-identical to RunEnsemble.
func RunEnsembleCtx(ctx context.Context, cfg EnsembleConfig, lex *ingredient.Lexicon) (rankfreq.Distribution, error) {
	agg, _, err := runEnsemble(ctx, cfg, lex)
	return agg, err
}

// EnsembleDetail carries the aggregate plus the per-replicate
// distributions, for dispersion statistics over the ensemble.
type EnsembleDetail struct {
	Aggregate  rankfreq.Distribution
	Replicates []rankfreq.Distribution
}

// ReplicateDistances scores every replicate against a reference
// distribution with the given metric — the spread behind the aggregate's
// single Eq 2 value.
func (d *EnsembleDetail) ReplicateDistances(ref rankfreq.Distribution, metric rankfreq.Metric) ([]float64, error) {
	out := make([]float64, len(d.Replicates))
	for i, rep := range d.Replicates {
		v, err := metric(ref, rep)
		if err != nil {
			return nil, &ReplicateError{Model: d.Aggregate.Label, Replicate: i, Err: err}
		}
		out[i] = v
	}
	return out, nil
}

// RunEnsembleDetailed is RunEnsemble keeping the per-replicate
// distributions.
func RunEnsembleDetailed(cfg EnsembleConfig, lex *ingredient.Lexicon) (*EnsembleDetail, error) {
	agg, reps, err := runEnsemble(context.Background(), cfg, lex)
	if err != nil {
		return nil, err
	}
	return &EnsembleDetail{Aggregate: agg, Replicates: reps}, nil
}

func runEnsemble(ctx context.Context, cfg EnsembleConfig, lex *ingredient.Lexicon) (rankfreq.Distribution, []rankfreq.Distribution, error) {
	if cfg.Replicates < 1 {
		return rankfreq.Distribution{}, nil, fmt.Errorf("evomodel: Replicates must be >= 1, got %d", cfg.Replicates)
	}
	if cfg.MinSupport <= 0 || cfg.MinSupport > 1 {
		return rankfreq.Distribution{}, nil, fmt.Errorf("evomodel: MinSupport must be in (0,1], got %v", cfg.MinSupport)
	}
	label := cfg.Label
	if label == "" {
		label = cfg.Params.Kind.String()
	}

	dists := make([]rankfreq.Distribution, cfg.Replicates)
	if err := sched.RunCtx(ctx, cfg.Workers, cfg.Replicates, func(rep int) error {
		var err error
		dists[rep], err = runReplicate(cfg, lex, label, rep)
		if err != nil {
			return &ReplicateError{Model: label, Replicate: rep, Err: err}
		}
		return nil
	}); err != nil {
		// A hook-injected failure (sched's fault seam) or a recovered
		// panic bypasses the fn wrapper above; re-wrap it so every
		// replicate death, injected or real, is the same typed error.
		var ie *sched.ItemError
		if errors.As(err, &ie) {
			err = &ReplicateError{Model: label, Replicate: ie.Item, Err: ie.Err}
		}
		return rankfreq.Distribution{}, nil, err
	}
	return rankfreq.Aggregate(dists), dists, nil
}

// ReplicateDistribution runs a single replicate of the configured
// ensemble and mines its combinations — the unit work item the shared
// scheduler fans out when a caller (RunFig4) flattens several ensembles
// into one (cuisine × kind × replicate) grid. Replicate rep derives its
// seed exactly as RunEnsemble does, so dispatching replicates
// individually and aggregating with rankfreq.Aggregate reproduces
// RunEnsemble's output bit for bit.
func ReplicateDistribution(cfg EnsembleConfig, lex *ingredient.Lexicon, rep int) (rankfreq.Distribution, error) {
	label := cfg.Label
	if label == "" {
		label = cfg.Params.Kind.String()
	}
	return runReplicate(cfg, lex, label, rep)
}

// runReplicate executes one model run and mines its combinations. This
// is the vertical evolve→mine boundary: the pooled machine sets one bit
// per (item, recipe) — ingredient or category, per cfg.Categories —
// straight from its arena into its own reusable tidset bitmaps, and
// itemset.MineBitmapSupports counts them, returning only the support
// series a distribution keeps — no transactions, no sort, no
// per-replicate machine construction, no itemsets.
func runReplicate(cfg EnsembleConfig, lex *ingredient.Lexicon, label string, rep int) (rankfreq.Distribution, error) {
	p := cfg.Params
	p.Seed = replicateSeed(p.Seed, rep)
	if err := p.validate(); err != nil {
		return rankfreq.Distribution{}, err
	}
	m := acquireMachine(p, lex, randx.New(p.Seed))
	defer releaseMachine(m)
	m.evolve()
	bm, err := m.tidsetBitmaps(cfg.Categories)
	if err != nil {
		return rankfreq.Distribution{}, err
	}
	freqs, err := itemset.MineBitmapSupports(bm, len(m.recs), cfg.MinSupport)
	if err != nil {
		return rankfreq.Distribution{}, err
	}
	return rankfreq.Distribution{Label: label, Freqs: freqs}, nil
}

// replicateSeed derives the seed for replicate rep from the base seed
// (SplitMix64 step keyed by the replicate index).
func replicateSeed(base uint64, rep int) uint64 {
	z := base + uint64(rep+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
