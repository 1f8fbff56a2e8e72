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
// strictly ascending. It is BuildIndex followed by MineIndexed: one
// path produces itemsets, so callers mining a corpus more than once
// should keep the Index.
func Mine(txs [][]ingredient.ID, minSupport float64, opts MineOptions) (*Result, error) {
	if err := checkSupport(minSupport); err != nil {
		return nil, err
	}
	ix, err := BuildIndex(txs)
	if err != nil {
		return nil, err
	}
	return MineIndexed(ix, minSupport, opts)
}

// MineSupports returns exactly Mine(txs, minSupport,
// MineOptions{}).Supports(): the relative supports of the frequent
// itemsets in canonical order. It checks the transactions as Mine
// does, lays out one dense tidset bitmap per frequent item and mines
// them as MineBitmapSupports does, never building, sorting or
// returning the itemsets.
func MineSupports(txs [][]ingredient.ID, minSupport float64) ([]float64, error) {
	m := eclatPool.Get().(*eclatMiner)
	out, err := m.transactionSupports(txs, minSupport)
	eclatPool.Put(m)
	return out, err
}

// MineBitmapSupports is the count-only vertical entry: the support
// series of the frequent itemsets over n transactions given as dense
// per-item tidset bitmaps, item i's tidset being
// bm[i*words:(i+1)*words] with words = (n+63)/64 and bit t of the row
// set when transaction t contains the item. It returns exactly what
// MineSupports returns on the same transactions, since the support
// series does not depend on which item each row stands for. Bits past
// transaction n-1 are an error. bm is read, never modified or
// retained.
//
// The replicate ensembles call it with bitmaps the simulator fills
// straight from its recipe arena, so no transaction is materialized.
func MineBitmapSupports(bm []uint64, n int, minSupport float64) ([]float64, error) {
	m := eclatPool.Get().(*eclatMiner)
	out, err := m.bitmapSupports(bm, n, minSupport)
	eclatPool.Put(m)
	return out, err
}

// MineIndexed mines all frequent itemsets of size >= 1 with relative
// support >= minSupport off a prebuilt Index — the query phase of
// index/query-split mining. Frequent items are filtered from the
// index's support counts at the requested threshold; the kernel never
// touches raw [][]ingredient.ID. Mine is BuildIndex plus this call.
func MineIndexed(ix *Index, minSupport float64, opts MineOptions) (*Result, error) {
	return eclatMineIndexed(ix, minSupport, opts.Workers)
}
