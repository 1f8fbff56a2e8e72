package itemset

import (
	"cuisinevol/internal/ingredient"
)

// MineOptions tunes a Mine call.
type MineOptions struct {
	// Workers > 1 fans the Eclat kernel's top-level prefix partitions
	// over that many scheduler workers; <= 1 mines serially. The
	// pipelines get their parallelism from fanning out independent mines
	// instead, so they leave this at 0.
	Workers int
}

// Mine mines all frequent itemsets of size >= 1 with relative support
// >= minSupport with the Eclat kernel. Transactions must be sorted
// strictly ascending.
func Mine(txs [][]ingredient.ID, minSupport float64, opts MineOptions) (*Result, error) {
	m := eclatPool.Get().(*eclatMiner)
	res, err := m.mine(txs, minSupport, opts.Workers)
	eclatPool.Put(m)
	return res, err
}

// MineSupports returns exactly Mine(txs, minSupport,
// MineOptions{}).Supports(): the relative supports of the frequent
// itemsets in canonical order. It runs the same checks, preparation and
// Eclat walk as Mine but never builds, sorts or returns the itemsets —
// the replicate-ensemble path, which keeps only the support series.
func MineSupports(txs [][]ingredient.ID, minSupport float64) ([]float64, error) {
	m := eclatPool.Get().(*eclatMiner)
	out, err := m.mineSupports(txs, minSupport)
	eclatPool.Put(m)
	return out, err
}

// MineIndexed mines all frequent itemsets of size >= 1 with relative
// support >= minSupport off a prebuilt Index — the query phase of
// index/query-split mining. Frequent items are filtered from the
// index's support counts at the requested threshold; the kernel never
// touches raw [][]ingredient.ID. Results are byte-identical to Mine on
// the transactions the index was built from (pinned by the differential
// layer), so callers can swap freely between the two paths.
func MineIndexed(ix *Index, minSupport float64, opts MineOptions) (*Result, error) {
	return eclatMineIndexed(ix, minSupport, opts.Workers)
}
