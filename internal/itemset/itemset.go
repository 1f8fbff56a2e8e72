// Package itemset implements frequent-itemset mining over recipe
// transactions: the combinations "of size 1 and greater which appeared in
// at least 5% of all recipes in a cuisine" (paper, §IV). Mine,
// MineIndexed and the count-only MineSupports and MineBitmapSupports run
// one kernel, Eclat (Zaki's vertical tidset miner); the level-wise
// Apriori in the package tests is its oracle, and the differential and
// fuzz tests pin them to byte-identical canonical results.
//
// Itemsets come from one path: Mine is BuildIndex plus MineIndexed. The
// Index projects the transactions onto item positions, collapses
// identical ones into one transaction id with a weight, and gives each
// item a tidset container over those unique ids; support of an
// extension is then one intersection + popcount (weight-summed when
// duplicates exist). The count-only entries skip all of that: they mine
// one dense, unweighted tidset bitmap per frequent item, either laid out
// from transactions (MineSupports) or handed over ready-made
// (MineBitmapSupports, which the replicate ensembles fill straight from
// the simulator). Depth-first expansion walks prefix equivalence
// classes; all container and class scratch is pooled per depth, so
// steady-state mining allocates almost nothing beyond the result.
package itemset

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"cuisinevol/internal/ingredient"
)

// Itemset is a frequent combination of items with its absolute occurrence
// count. Items are sorted ascending and never aliased with caller data.
type Itemset struct {
	Items []ingredient.ID
	Count int
}

// Support returns the itemset's relative support given the transaction
// count n.
func (s Itemset) Support(n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(s.Count) / float64(n)
}

// String renders the itemset as "{a, b}×count" using raw IDs.
func (s Itemset) String() string {
	return fmt.Sprintf("%v x%d", s.Items, s.Count)
}

// Result is the outcome of a mining run.
type Result struct {
	Sets []Itemset // canonically ordered, see sortCanonical
	N    int       // number of transactions mined
}

// Supports returns the relative supports of the frequent itemsets in
// result order — the series from which rank-frequency distributions are
// built (frequencies normalized by the total number of recipes, Fig 3).
func (r *Result) Supports() []float64 {
	out := make([]float64, len(r.Sets))
	for i, s := range r.Sets {
		out[i] = s.Support(r.N)
	}
	return out
}

// MaxSize returns the size of the largest frequent itemset.
func (r *Result) MaxSize() int {
	m := 0
	for _, s := range r.Sets {
		if len(s.Items) > m {
			m = len(s.Items)
		}
	}
	return m
}

// ErrBadSupport is returned when minSupport lies outside (0, 1],
// NaN included.
var ErrBadSupport = errors.New("itemset: minSupport must be in (0, 1]")

// checkSupport is the one support-threshold check every mining entry
// point shares. The comparison is written so that NaN, which fails
// every ordered comparison, is rejected rather than let through to
// minCount, where it would mine at count 1.
func checkSupport(minSupport float64) error {
	if !(minSupport > 0 && minSupport <= 1) {
		return ErrBadSupport
	}
	return nil
}

// minCount converts a relative threshold to the smallest absolute count
// satisfying count/n >= minSupport.
func minCount(n int, minSupport float64) int {
	mc := int(math.Ceil(minSupport*float64(n) - 1e-9))
	if mc < 1 {
		mc = 1
	}
	return mc
}

// sortCanonical orders itemsets by descending count, then ascending size,
// then lexicographically — a total order that makes results comparable
// across miners and runs.
func sortCanonical(sets []Itemset) {
	sort.Slice(sets, func(i, j int) bool {
		a, b := sets[i], sets[j]
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		if len(a.Items) != len(b.Items) {
			return len(a.Items) < len(b.Items)
		}
		for k := range a.Items {
			if a.Items[k] != b.Items[k] {
				return a.Items[k] < b.Items[k]
			}
		}
		return false
	})
}

// validateTransactions checks that every transaction is strictly
// ascending (sorted, duplicate-free), as produced by recipe.View.
func validateTransactions(txs [][]ingredient.ID) error {
	for i, tx := range txs {
		for j := 1; j < len(tx); j++ {
			if tx[j-1] >= tx[j] {
				return fmt.Errorf("itemset: transaction %d is not strictly ascending", i)
			}
		}
	}
	return nil
}
