package itemset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
	"unsafe"

	"cuisinevol/internal/ingredient"
)

// Index is the build-once corpus index: the deduped weighted transaction
// arena plus a full vertical bitmap layout (one tidset bitmap per
// distinct item — every item, not just the ones frequent at some
// threshold), the per-item support counts, and a content fingerprint of
// the indexed transactions.
//
// The index depends only on the corpus, never on a mining threshold,
// so one build amortizes across every minSupport query: MineIndexed
// filters the frequent items at query time and mines straight off the
// arena and posting containers without ever touching raw
// [][]ingredient.ID again. The per-item containers double as posting
// lists over the unique-transaction space (container
// intersection is the query primitive), which is what the search and
// incremental-mining roadmap items build on.
//
// An Index is immutable after BuildIndex returns and safe for
// concurrent use by any number of queries. The planned epoch-snapshot
// evolution (DESIGN.md §12) mutates by replacing whole Index values,
// never by editing one in place.
type Index struct {
	n        int         // transactions indexed, duplicates and empties included
	totalOcc int         // total item occurrences across all indexed transactions
	items    []itemCount // every distinct item with its support count, ascending ID
	pos      map[ingredient.ID]int32

	// Unique transactions, flattened: transaction u occupies
	// txArena[txOff[u]:txOff[u+1]] (strictly ascending item positions)
	// and occurred weights[u] times in the input.
	txArena []int32
	txOff   []int32
	uniques int

	weights  []int32 // per unique transaction; padded to words*64 when weighted
	weighted bool
	words    int // dense bitmap length in uint64 words

	// Adaptive per-item posting containers (container.go): item position
	// p's tidset occupies postLen[p] elements at postOff[p] of idArena
	// (array/run kinds) or bitsArena (bitset kind), with its exact
	// cardinality in postCard[p].
	postKind  []containerKind
	postCard  []int32
	postOff   []int32
	postLen   []int32
	idArena   []uint32
	bitsArena []uint64

	fp    string
	bytes int64
}

// BuildIndex indexes a transaction database: validation, item counting,
// transaction dedup and the full vertical bitmap layout in one pass
// family. Transactions must be sorted strictly ascending (the contract
// Mine already enforces). The input slices are read, never
// retained or modified.
func BuildIndex(txs [][]ingredient.ID) (*Index, error) {
	return buildIndexWith(txs, false)
}

// buildIndexWith is BuildIndex with the posting layout pinned:
// denseOnly forces every container into the dense bitset format — the
// pre-container layout — which the dense×compressed differential suites
// use as the second side of the identity proof. Production callers
// always pass false.
func buildIndexWith(txs [][]ingredient.ID, denseOnly bool) (*Index, error) {
	if err := validateTransactions(txs); err != nil {
		return nil, err
	}
	ix := &Index{n: len(txs)}

	// Count every item and fingerprint the content in the same sweep.
	h := sha256.New()
	var word [4]byte
	counts := make(map[ingredient.ID]int, 256)
	for _, tx := range txs {
		for _, it := range tx {
			counts[it]++
			binary.LittleEndian.PutUint32(word[:], uint32(it))
			h.Write(word[:])
		}
		h.Write([]byte{0xff})
		ix.totalOcc += len(tx)
	}
	ix.fp = hex.EncodeToString(h.Sum(nil)[:16])

	// Item table in ascending ID order: a fixed, threshold-independent
	// order, so a transaction's ascending-ID items map to ascending
	// positions and stay sorted for free.
	ix.items = make([]itemCount, 0, len(counts))
	for it, c := range counts {
		ix.items = append(ix.items, itemCount{it, c})
	}
	sort.Slice(ix.items, func(i, j int) bool { return ix.items[i].item < ix.items[j].item })
	ix.pos = make(map[ingredient.ID]int32, len(ix.items))
	for p, ic := range ix.items {
		ix.pos[ic.item] = int32(p)
	}

	// Dedup identical transactions into (transaction, weight) pairs —
	// the same collapse raw Mine redoes per mine, done once.
	dedup := make(map[string]int32, len(txs))
	wide := len(ix.items) > 0xffff
	keyBuf := make([]byte, 0, 64)
	buf := make([]int32, 0, 64)
	ix.txOff = append(ix.txOff, 0)
	for _, tx := range txs {
		if len(tx) == 0 {
			continue
		}
		buf = buf[:0]
		for _, it := range tx {
			buf = append(buf, ix.pos[it])
		}
		keyBuf = keyBuf[:0]
		if wide {
			for _, v := range buf {
				keyBuf = append(keyBuf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
			}
		} else {
			for _, v := range buf {
				keyBuf = append(keyBuf, byte(v>>8), byte(v))
			}
		}
		if u, ok := dedup[string(keyBuf)]; ok {
			ix.weights[u]++
			continue
		}
		dedup[string(keyBuf)] = int32(len(ix.weights))
		ix.txArena = append(ix.txArena, buf...)
		ix.txOff = append(ix.txOff, int32(len(ix.txArena)))
		ix.weights = append(ix.weights, 1)
	}
	ix.finalize(denseOnly)
	return ix, nil
}

// finalize derives everything downstream of the deduped arena — the
// unique count, the weighted flag, the posting containers, the weight
// padding, and the byte accounting. BuildIndex and LiveIndex.Snapshot
// both end here, which is what makes the snapshot identity proof a
// property of one code path instead of two kept in sync by hand.
func (ix *Index) finalize(denseOnly bool) {
	ix.uniques = len(ix.weights)
	ix.weighted = false
	for _, w := range ix.weights {
		if w > 1 {
			ix.weighted = true
			break
		}
	}
	ix.words = (ix.uniques + 63) / 64
	ix.buildPostings(denseOnly)
	if ix.weighted {
		// Pad to a whole word so the weighted intersect loop can index by
		// bit position without bounds branches (same layout as the
		// per-mine Eclat builder used).
		for len(ix.weights) < ix.words*64 {
			ix.weights = append(ix.weights, 0)
		}
	}
	ix.bytes = ix.accountBytes()
}

// buildPostings lays out one posting container per item over the unique
// transaction ids, every item included: filtering to the frequent
// subset is the query phase's job, and changing the threshold must not
// trigger a rebuild. Two passes over the arena: the first measures each
// item's exact cardinality and run count and picks its container, the
// second fills the two shared arenas. denseOnly pins every container to
// the bitset format (test hook, see buildIndexWith).
func (ix *Index) buildPostings(denseOnly bool) {
	m := len(ix.items)
	ix.postKind = make([]containerKind, m)
	ix.postCard = make([]int32, m)
	ix.postOff = make([]int32, m)
	ix.postLen = make([]int32, m)
	if m == 0 {
		return
	}

	nruns := make([]int32, m)
	last := make([]int32, m)
	for i := range last {
		last[i] = -2
	}
	for t := 0; t+1 < len(ix.txOff); t++ {
		for _, p := range ix.txArena[ix.txOff[t]:ix.txOff[t+1]] {
			ix.postCard[p]++
			if last[p] != int32(t)-1 {
				nruns[p]++
			}
			last[p] = int32(t)
		}
	}

	idLen, bitsLen := 0, 0
	for p := 0; p < m; p++ {
		kind := choosePostingKind(int(ix.postCard[p]), int(nruns[p]), ix.words)
		if denseOnly {
			kind = containerBitset
		}
		ix.postKind[p] = kind
		switch kind {
		case containerArray:
			ix.postOff[p], ix.postLen[p] = int32(idLen), ix.postCard[p]
			idLen += int(ix.postCard[p])
		case containerRun:
			ix.postOff[p], ix.postLen[p] = int32(idLen), 2*nruns[p]
			idLen += int(2 * nruns[p])
		default:
			ix.postOff[p], ix.postLen[p] = int32(bitsLen), int32(ix.words)
			bitsLen += ix.words
		}
	}

	ix.idArena = make([]uint32, idLen)
	ix.bitsArena = make([]uint64, bitsLen)
	fill := nruns // run/array fill cursors; the measuring pass is done with it
	for i := range fill {
		fill[i] = 0
		last[i] = -2
	}
	for t := 0; t+1 < len(ix.txOff); t++ {
		for _, p := range ix.txArena[ix.txOff[t]:ix.txOff[t+1]] {
			switch ix.postKind[p] {
			case containerArray:
				ix.idArena[ix.postOff[p]+fill[p]] = uint32(t)
				fill[p]++
			case containerRun:
				if last[p] == int32(t)-1 {
					ix.idArena[ix.postOff[p]+fill[p]-1]++
				} else {
					ix.idArena[ix.postOff[p]+fill[p]] = uint32(t)
					ix.idArena[ix.postOff[p]+fill[p]+1] = 1
					fill[p] += 2
				}
				last[p] = int32(t)
			default:
				ix.bitsArena[int(ix.postOff[p])+t>>6] |= 1 << uint(t&63)
			}
		}
	}
}

// accountBytes computes the index's real retained size: the struct
// header, every slice's backing array at its true element size, the
// position map, and the fingerprint string. This is the unit of the
// IndexCache byte budget, so under-accounting here directly translates
// into budget overshoot fleet-wide.
func (ix *Index) accountBytes() int64 {
	b := int64(unsafe.Sizeof(*ix))
	b += int64(len(ix.txArena))*4 + int64(len(ix.txOff))*4 + int64(len(ix.weights))*4
	b += int64(len(ix.items)) * int64(unsafe.Sizeof(itemCount{}))
	b += mapRetainedBytes(len(ix.pos))
	b += int64(len(ix.postKind)) + int64(len(ix.postCard)+len(ix.postOff)+len(ix.postLen))*4
	b += int64(len(ix.idArena))*4 + int64(len(ix.bitsArena))*8
	b += int64(len(ix.fp)) + int64(unsafe.Sizeof(""))
	return b
}

// mapRetainedBytes estimates the retained heap size of a
// map[ingredient.ID]int32 with n entries: 8-slot groups of 8-byte
// (key, elem) pairs plus one control byte per slot, at the ~7/8
// post-growth load factor go's swiss tables settle near, plus the map
// header and directory. The estimate is pinned against a measured
// retained size in TestIndexBytesAccounting.
func mapRetainedBytes(n int) int64 {
	if n == 0 {
		return 48
	}
	return 64 + int64(float64(n)*(8+1)/0.7)
}

// N returns the number of indexed transactions (the denominator of
// every support computed from this index).
func (ix *Index) N() int { return ix.n }

// DistinctItems returns the number of distinct items in the indexed
// transactions.
func (ix *Index) DistinctItems() int { return len(ix.items) }

// UniqueTransactions returns the number of unique transactions after
// dedup (the bit width of every posting bitmap).
func (ix *Index) UniqueTransactions() int { return ix.uniques }

// TotalOccurrences returns the total item occurrences across all
// indexed transactions.
func (ix *Index) TotalOccurrences() int { return ix.totalOcc }

// Fingerprint returns the 128-bit hex content hash of the indexed
// transactions. Two indexes over identical transaction databases share
// a fingerprint regardless of how the databases were obtained.
func (ix *Index) Fingerprint() string { return ix.fp }

// Bytes returns the index's retained size estimate, the unit of the
// IndexCache byte budget.
func (ix *Index) Bytes() int64 { return ix.bytes }

// Support returns the number of indexed transactions containing the
// item (its absolute support; zero for items never seen).
func (ix *Index) Support(it ingredient.ID) int {
	if p, ok := ix.pos[it]; ok {
		return ix.items[p].count
	}
	return 0
}

// AddSupportCounts adds every item's support count into dst, indexed by
// item ID — the per-view document frequencies the overrepresentation
// metric (Eq 1) consumes. Items whose ID falls outside dst are skipped.
func (ix *Index) AddSupportCounts(dst []int) {
	for _, ic := range ix.items {
		if int(ic.item) < len(dst) {
			dst[ic.item] += ic.count
		}
	}
}

// ContainerStats summarizes an index's posting-container mix: how many
// items landed in each format, the bytes the containers retain, and
// what the uniform dense layout would have retained instead.
type ContainerStats struct {
	Arrays  int
	Bitsets int
	Runs    int
	// PostingBytes is the retained size of the posting arenas.
	PostingBytes int64
	// DenseBytes is what one words-wide bitmap per item would retain —
	// the pre-container layout this index's savings are measured against.
	DenseBytes int64
}

// BytesSaved returns the posting bytes the adaptive layout saved over
// the uniform dense one.
func (st ContainerStats) BytesSaved() int64 {
	if d := st.DenseBytes - st.PostingBytes; d > 0 {
		return d
	}
	return 0
}

// ContainerStats returns the index's posting-container mix.
func (ix *Index) ContainerStats() ContainerStats {
	st := ContainerStats{
		PostingBytes: int64(len(ix.idArena))*4 + int64(len(ix.bitsArena))*8,
		DenseBytes:   int64(len(ix.items)) * int64(ix.words) * 8,
	}
	for _, kind := range ix.postKind {
		switch kind {
		case containerArray:
			st.Arrays++
		case containerRun:
			st.Runs++
		default:
			st.Bitsets++
		}
	}
	return st
}

// postingAt returns the tidset container of the item at position p.
func (ix *Index) postingAt(p int) posting {
	off, ln := int(ix.postOff[p]), int(ix.postLen[p])
	pt := posting{kind: ix.postKind[p], card: ix.postCard[p]}
	if pt.kind == containerBitset {
		pt.bits = ix.bitsArena[off : off+ln]
	} else {
		pt.ids = ix.idArena[off : off+ln]
	}
	return pt
}
