package itemset

import (
	"reflect"
	"sort"
	"testing"

	"cuisinevol/internal/ingredient"
)

// fuzzSupports is the support grid the fuzzer selects from. All values
// are valid, so every decoded corpus must mine without error on every
// path; the interesting surface is the mining itself, not argument
// validation (which has its own tests).
var fuzzSupports = [...]float64{0.02, 0.05, 0.1, 0.25, 0.5, 1.0}

// Decoder bounds. The per-transaction cap matters most: a single
// transaction of k distinct items makes all 2^k-1 subsets frequent, so
// an unbounded decoder would let the fuzzer synthesize exponential
// enumerations. 12 items caps a pathological input at 4095 itemsets.
const (
	fuzzMaxTxs       = 96
	fuzzMaxTxItems   = 12
	fuzzItemAlphabet = 40
)

// decodeFuzzCorpus maps arbitrary bytes to (transactions, minSupport).
// Byte 0 picks the support; the rest is a 0xff-separated list of
// transactions whose item bytes are folded into a small alphabet, then
// deduped and sorted so every decoded corpus is valid kernel input.
func decodeFuzzCorpus(data []byte) ([][]ingredient.ID, float64) {
	if len(data) == 0 {
		return nil, fuzzSupports[0]
	}
	minSupport := fuzzSupports[int(data[0])%len(fuzzSupports)]
	var txs [][]ingredient.ID
	cur := make(map[ingredient.ID]bool, fuzzMaxTxItems)
	flush := func() {
		if len(cur) == 0 {
			return
		}
		tx := make([]ingredient.ID, 0, len(cur))
		for it := range cur {
			tx = append(tx, it)
		}
		sort.Slice(tx, func(i, j int) bool { return tx[i] < tx[j] })
		txs = append(txs, tx)
		clear(cur)
	}
	for _, b := range data[1:] {
		if len(txs) == fuzzMaxTxs {
			break
		}
		if b == 0xff {
			flush()
			continue
		}
		if len(cur) < fuzzMaxTxItems {
			cur[ingredient.ID(b%fuzzItemAlphabet)] = true
		}
	}
	if len(txs) < fuzzMaxTxs {
		flush()
	}
	return txs, minSupport
}

// tidsetRows lays txs out as the dense per-item tidset bitmaps
// MineBitmapSupports takes: row it (for every item it < rows) holds bit
// t when transaction t contains it.
func tidsetRows(txs [][]ingredient.ID, rows int) []uint64 {
	words := (len(txs) + 63) / 64
	bm := make([]uint64, rows*words)
	for t, tx := range txs {
		for _, it := range tx {
			bm[int(it)*words+t>>6] |= 1 << (t & 63)
		}
	}
	return bm
}

// FuzzMineKernels decodes arbitrary bytes into a bounded transaction
// corpus and checks that Mine and MineIndexed (serial and parallel)
// produce results byte-identical to the Apriori oracle in canonical
// order, that MineSupports and MineBitmapSupports over the corpus laid
// out as per-item bitmaps return the oracle's support series, and that
// every reported itemset's count matches a brute-force recount over the
// raw transactions. The seed corpus in testdata/fuzz/FuzzMineKernels
// covers the shapes that stress the kernel: duplicate-heavy (the
// Index's dedup arena and weighted popcounts behind Mine), dense single
// transactions (deep DFS), and sparse long tails.
func FuzzMineKernels(f *testing.F) {
	seed := func(support byte, txs ...[]byte) {
		data := []byte{support}
		for i, tx := range txs {
			if i > 0 {
				data = append(data, 0xff)
			}
			data = append(data, tx...)
		}
		f.Add(data)
	}
	seed(0) // empty corpus
	seed(1, []byte{1, 2, 3}, []byte{1, 2}, []byte{2, 3}, []byte{1, 2, 3})
	// Duplicate-heavy: many identical transactions collapse in the dedup
	// arena, exercising weighted popcount support counting.
	seed(2, []byte{5, 6, 7}, []byte{5, 6, 7}, []byte{5, 6, 7}, []byte{5, 6, 7}, []byte{7})
	// One dense transaction: deep prefix-class recursion.
	seed(3, []byte{0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 33})
	// Sparse long tail: mostly infrequent singletons.
	seed(4, []byte{0}, []byte{1}, []byte{2}, []byte{3}, []byte{4}, []byte{0, 1})
	// Separator runs and out-of-alphabet bytes fold without panicking.
	seed(5, []byte{200, 200, 0xfe}, []byte{}, []byte{41, 81, 121})

	f.Fuzz(func(t *testing.T, data []byte) {
		txs, minSupport := decodeFuzzCorpus(data)
		res := allKernels(t, txs, minSupport, "fuzz")
		sups, err := MineBitmapSupports(tidsetRows(txs, fuzzItemAlphabet), len(txs), minSupport)
		if err != nil {
			t.Fatalf("bitmap supports: %v", err)
		}
		if want := res.Supports(); !reflect.DeepEqual(want, sups) {
			t.Fatalf("MineBitmapSupports diverges from apriori\napriori: %v\nbitmaps: %v", want, sups)
		}
		// Independent recount: every reported itemset must hit its exact
		// support in the raw (pre-dedup) corpus and clear the threshold.
		mc := minCount(len(txs), minSupport)
		for _, s := range res.Sets {
			count := 0
			for _, tx := range txs {
				if containsSorted(tx, s.Items) {
					count++
				}
			}
			if count != s.Count {
				t.Fatalf("itemset %v reported count %d, recount %d", s.Items, s.Count, count)
			}
			if count < mc {
				t.Fatalf("itemset %v count %d below minCount %d", s.Items, count, mc)
			}
		}
	})
}
