package itemset

import (
	"slices"
	"sort"
	"sync"

	"cuisinevol/internal/ingredient"
	"cuisinevol/internal/sched"
)

// itemCount pairs an ingredient with its global occurrence count.
type itemCount struct {
	item  ingredient.ID
	count int
}

// emitArenaChunk is the emit arena's allocation granularity: itemset
// backing storage is carved from chunks this large, so the per-itemset
// allocation cost is amortized ~chunk/size-fold.
const emitArenaChunk = 4096

var eclatPool = sync.Pool{New: func() any { return newEclatMiner() }}

// eclatShared is the read-only mining state the expansion workers
// consume: built once per mine (or borrowed from a prebuilt Index),
// then shared across the top-level prefix partitions (safely — nothing
// here is written after construction). Tidsets are reached through one
// posting view per frequent item, so the raw path's contiguous dense
// arena and the indexed path's zero-copy views into the Index's
// adaptive containers run the same expansion code.
type eclatShared struct {
	freq     []itemCount // frequent items, ascending count then ID
	words    int         // dense bitmap length in uint64 words
	weighted bool        // any unique transaction with weight > 1
	weights  []int32     // per unique-transaction multiplicity
	posts    []posting   // per frequent item: its tidset container
	mc       int
}

// eclatExt is one member of a prefix equivalence class: an extension
// item with the tidset container and support of prefix∪{item}.
type eclatExt struct {
	item  int32
	p     posting
	count int
}

// eclatScratch is the per-worker expansion state: the suffix stack, one
// bitset buffer, one id buffer and one class slice per recursion depth,
// an emit arena, and the output slice. Serial mining uses the miner's
// own scratch; the parallel path draws one per top-level partition from
// a pool.
type eclatScratch struct {
	sh       *eclatShared
	suffix   []int32
	levels   [][]uint64   // per-depth word buffers for bitset candidates
	levelIDs [][]uint32   // per-depth id buffers for array candidates
	class    [][]eclatExt // per-depth class scratch

	// arenaFree is the unused tail of the current emit-arena chunk.
	// Handed-out regions are never written again, so leftovers carry
	// over safely between calls.
	arenaFree []ingredient.ID
	sets      []Itemset

	// countOnly switches the emit sink to appending just each set's
	// count to counts (see mineSupports); sets and the arena are left
	// alone.
	countOnly bool
	counts    []int32
}

// levelAt returns the depth's bitset buffer with room for n words.
func (s *eclatScratch) levelAt(depth, n int) []uint64 {
	for len(s.levels) <= depth {
		s.levels = append(s.levels, nil)
	}
	if cap(s.levels[depth]) < n {
		s.levels[depth] = make([]uint64, n)
	}
	return s.levels[depth][:cap(s.levels[depth])]
}

// levelIDsAt returns the depth's id buffer with room for n ids.
func (s *eclatScratch) levelIDsAt(depth, n int) []uint32 {
	for len(s.levelIDs) <= depth {
		s.levelIDs = append(s.levelIDs, nil)
	}
	if cap(s.levelIDs[depth]) < n {
		s.levelIDs[depth] = make([]uint32, n)
	}
	return s.levelIDs[depth][:cap(s.levelIDs[depth])]
}

// classAt returns the depth's class scratch, emptied.
func (s *eclatScratch) classAt(depth int) []eclatExt {
	for len(s.class) <= depth {
		s.class = append(s.class, nil)
	}
	return s.class[depth][:0]
}

// emitWith records the itemset suffix∪{item} with the given count,
// translating item order indices back to ingredient IDs sorted
// ascending (the canonical itemset representation). A count-only walk
// records just the count.
func (s *eclatScratch) emitWith(item int32, count int) {
	if s.countOnly {
		s.counts = append(s.counts, int32(count))
		return
	}
	k := len(s.suffix) + 1
	if len(s.arenaFree) < k {
		size := emitArenaChunk
		if k > size {
			size = k
		}
		s.arenaFree = make([]ingredient.ID, size)
	}
	items := s.arenaFree[:k:k]
	s.arenaFree = s.arenaFree[k:]
	for i, idx := range s.suffix {
		items[i] = s.sh.freq[idx].item
	}
	items[k-1] = s.sh.freq[item].item
	// Insertion sort: itemsets are small (recipe-bounded).
	for i := 1; i < len(items); i++ {
		for j := i; j > 0 && items[j] < items[j-1]; j-- {
			items[j], items[j-1] = items[j-1], items[j]
		}
	}
	s.sets = append(s.sets, Itemset{Items: items, Count: count})
}

// top expands the top-level prefix partition rooted at frequent item a:
// all itemsets whose first (in item order) member is a and that contain
// at least one later item. Partitions are independent, which is what
// the parallel path exploits.
//
// A sizing pass over the candidates reserves the depth's scratch
// exactly — words for every bitset×bitset pair, the pair's cardinality
// bound for every pair with a compressed side — so every candidate
// container is carved from a stable buffer: a failed candidate's space
// is simply reused for the next one, and a whole depth's buffers are
// reused across siblings once their subtree is done.
func (s *eclatScratch) top(a int) {
	sh := s.sh
	k := len(sh.freq)
	s.suffix = append(s.suffix[:0], int32(a))
	pa := sh.posts[a]
	needW, needI := 0, 0
	for b := a + 1; b < k; b++ {
		if resultIsBitset(pa, sh.posts[b]) {
			needW += sh.words
		} else {
			needI += pairArrayBound(pa, sh.posts[b])
		}
	}
	wbuf := s.levelAt(0, needW)
	ibuf := s.levelIDsAt(0, needI)
	class := s.classAt(0)
	woff, ioff := 0, 0
	for b := a + 1; b < k; b++ {
		pb := sh.posts[b]
		var res posting
		var cnt int
		if resultIsBitset(pa, pb) {
			res, cnt = sh.intersectBits(pa, pb, wbuf[woff:woff+sh.words])
		} else {
			bound := pairArrayBound(pa, pb)
			res, cnt = sh.intersectCompressed(pa, pb, ibuf[ioff:ioff+bound])
		}
		if cnt >= sh.mc {
			s.emitWith(int32(b), cnt)
			class = append(class, eclatExt{item: int32(b), p: res, count: cnt})
			if res.kind == containerBitset {
				woff += sh.words
			} else {
				ioff += len(res.ids)
			}
		}
	}
	s.class[0] = class
	if len(class) >= 2 {
		s.expand(class, 1)
	}
	s.suffix = s.suffix[:0]
}

// expand walks one prefix equivalence class depth-first: for each
// member a, the prefix grows by a's item and every later member b is
// intersected against it via the container-pair dispatch; survivors
// form the next class. Candidate containers for a depth live in that
// depth's buffers (see top for the sizing discipline). Sparse subtrees
// stay sparse: once an intersection drops to an array it never
// re-densifies, so the per-pair cost follows the shrinking
// cardinalities instead of the fixed bitmap width.
func (s *eclatScratch) expand(exts []eclatExt, depth int) {
	sh := s.sh
	for a := 0; a+1 < len(exts); a++ {
		s.suffix = append(s.suffix, exts[a].item)
		pa := exts[a].p
		needW, needI := 0, 0
		for b := a + 1; b < len(exts); b++ {
			if resultIsBitset(pa, exts[b].p) {
				needW += sh.words
			} else {
				needI += pairArrayBound(pa, exts[b].p)
			}
		}
		wbuf := s.levelAt(depth, needW)
		ibuf := s.levelIDsAt(depth, needI)
		class := s.classAt(depth)
		woff, ioff := 0, 0
		for b := a + 1; b < len(exts); b++ {
			pb := exts[b].p
			var res posting
			var cnt int
			if resultIsBitset(pa, pb) {
				res, cnt = sh.intersectBits(pa, pb, wbuf[woff:woff+sh.words])
			} else {
				bound := pairArrayBound(pa, pb)
				res, cnt = sh.intersectCompressed(pa, pb, ibuf[ioff:ioff+bound])
			}
			if cnt >= sh.mc {
				s.emitWith(exts[b].item, cnt)
				class = append(class, eclatExt{item: exts[b].item, p: res, count: cnt})
				if res.kind == containerBitset {
					woff += sh.words
				} else {
					ioff += len(res.ids)
				}
			}
		}
		s.class[depth] = class
		if len(class) >= 2 {
			s.expand(class, depth+1)
		}
		s.suffix = s.suffix[:len(s.suffix)-1]
	}
}

// eclatWorkerPool recycles expansion scratch for the parallel path; the
// serial path uses the miner's embedded scratch.
var eclatWorkerPool = sync.Pool{New: func() any { return &eclatScratch{} }}

// eclatMiner is the reusable vertical-kernel state: the item table,
// the dedup map, the unique-transaction arena, the top-level bitmaps,
// and a serial expansion scratch. Not safe for concurrent use; Mine and
// MineSupports draw miners from a pool.
type eclatMiner struct {
	// ids maps each item to its count during the counting pass, then
	// to its order index + 1 if frequent, or -1 if not.
	ids    idTable
	dedup  map[string]int32
	keyBuf []byte
	buf    []int32

	// Unique projected transactions, flattened: transaction u occupies
	// txArena[txOff[u]:txOff[u+1]] and occurred weights[u] times.
	txArena []int32
	txOff   []int32

	// bitmapArena backs shared.refs on the raw (non-indexed) path; the
	// indexed path points refs into Index memory instead.
	bitmapArena []uint64

	shared  eclatShared
	scratch eclatScratch
}

func newEclatMiner() *eclatMiner {
	return &eclatMiner{dedup: make(map[string]int32)}
}

func (m *eclatMiner) mine(txs [][]ingredient.ID, minSupport float64, workers int) (*Result, error) {
	if err := m.prepare(txs, minSupport); err != nil {
		return nil, err
	}
	res := &Result{N: len(txs)}
	if res.N == 0 {
		return res, nil
	}
	if err := eclatRun(&m.shared, &m.scratch, res, workers); err != nil {
		return nil, err
	}
	return res, nil
}

// mineSupports is mine(txs, minSupport, 0).Supports() without the
// itemsets: the serial walk emits only each set's count. The canonical
// order's primary key is descending count, so the support series is
// the multiset of counts sorted descending, each divided by n — the
// same float64 division Supports performs, hence the same bytes.
func (m *eclatMiner) mineSupports(txs [][]ingredient.ID, minSupport float64) ([]float64, error) {
	if err := m.prepare(txs, minSupport); err != nil {
		return nil, err
	}
	n := len(txs)
	if n == 0 {
		return []float64{}, nil
	}
	sh := &m.shared
	s := &m.scratch
	s.sh = sh
	s.counts = s.counts[:0]
	for _, ic := range sh.freq {
		s.counts = append(s.counts, int32(ic.count))
	}
	s.countOnly = true
	for a := 0; a+1 < len(sh.freq); a++ {
		s.top(a)
	}
	s.countOnly = false
	slices.Sort(s.counts)
	out := make([]float64, len(s.counts))
	for i, c := range s.counts {
		out[len(out)-1-i] = float64(c) / float64(n)
	}
	return out, nil
}

// prepare is the per-mine work shared by mine and mineSupports: the
// input checks, the counting pass, the frequent items in mining order,
// the transaction dedup and the bitmap layout. With no transactions it
// stops after the checks.
func (m *eclatMiner) prepare(txs [][]ingredient.ID, minSupport float64) error {
	if err := checkSupport(minSupport); err != nil {
		return err
	}
	if err := validateTransactions(txs); err != nil {
		return err
	}
	n := len(txs)
	if n == 0 {
		return nil
	}
	sh := &m.shared
	sh.mc = minCount(n, minSupport)

	t := &m.ids
	t.reset()
	for _, tx := range txs {
		for _, it := range tx {
			t.inc(it)
		}
	}
	sh.freq = sh.freq[:0]
	for i, c := range t.vals {
		if int(c) >= sh.mc {
			sh.freq = append(sh.freq, itemCount{t.keys[i], int(c)})
		} else if c != 0 {
			t.vals[i] = -1
		}
	}
	// Item order: ascending count, ties by ascending ID — the standard
	// Eclat order, keeping early intersections small so classes thin out
	// fast. Any fixed order yields the same canonical Result.
	sort.Slice(sh.freq, func(i, j int) bool {
		if sh.freq[i].count != sh.freq[j].count {
			return sh.freq[i].count < sh.freq[j].count
		}
		return sh.freq[i].item < sh.freq[j].item
	})
	for j, ic := range sh.freq {
		t.vals[t.slot(ic.item)] = int32(j) + 1
	}

	m.dedupTransactions(txs)
	m.buildBitmaps()
	return nil
}

// eclatRun is the expansion phase shared by the raw and indexed paths:
// singletons from the frequent-item counts, then every top-level prefix
// partition, serially or fanned out over the scheduler, leaving
// res.Sets canonically sorted.
func eclatRun(sh *eclatShared, s *eclatScratch, res *Result, workers int) error {
	s.sh = sh
	s.sets = s.sets[:0]
	s.suffix = s.suffix[:0]
	// Singletons come straight from the global counts.
	for _, ic := range sh.freq {
		s.emitSingleton(ic)
	}

	k := len(sh.freq)
	if workers > 1 && k > 2 {
		// Top-level prefix partitions are independent subtrees; fan them
		// out through the shared scheduler. Partition results are collected
		// by index and concatenated in order, and the canonical sort below
		// makes the Result identical to the serial walk regardless.
		serialSets := s.sets
		parts, err := sched.Collect(workers, k-1, func(a int) ([]Itemset, error) {
			w := eclatWorkerPool.Get().(*eclatScratch)
			w.sh = sh
			w.sets = nil // results are returned; never recycle them
			w.top(a)
			sets := w.sets
			w.sets = nil
			w.sh = nil
			eclatWorkerPool.Put(w)
			return sets, nil
		})
		if err != nil {
			s.sets = nil
			return err
		}
		res.Sets = serialSets
		for _, p := range parts {
			res.Sets = append(res.Sets, p...)
		}
		s.sets = nil // handed to the caller; don't retain in the pool
	} else {
		for a := 0; a+1 < k; a++ {
			s.top(a)
		}
		res.Sets = s.sets
		s.sets = nil
	}
	sortCanonical(res.Sets)
	return nil
}

// eclatQuery is the pooled per-query state of indexed mining: the
// shared view (frequent-item filter + bitmap refs into the Index) and
// an expansion scratch whose per-depth buffers and emit arena survive
// across queries, keeping back-to-back indexed mines allocation-flat.
type eclatQuery struct {
	shared  eclatShared
	scratch eclatScratch
	posBuf  []int32 // frequent item positions, sorted into mining order
}

var eclatQueryPool = sync.Pool{New: func() any { return &eclatQuery{} }}

// release returns the query state to the pool, dropping every reference
// into the Index so a pooled query never pins evicted index memory.
func (q *eclatQuery) release() {
	sh := &q.shared
	clear(sh.posts)
	sh.posts = sh.posts[:0]
	sh.weights = nil
	eclatQueryPool.Put(q)
}

// eclatMineIndexed runs the vertical kernel's query phase over a
// prebuilt Index: frequent items are filtered from the index's support
// counts at the requested threshold and their posting bitmaps are used
// in place — no counting pass, no dedup, no bitmap build, no raw
// transactions.
func eclatMineIndexed(ix *Index, minSupport float64, workers int) (*Result, error) {
	if err := checkSupport(minSupport); err != nil {
		return nil, err
	}
	res := &Result{N: ix.n}
	if ix.n == 0 {
		return res, nil
	}
	q := eclatQueryPool.Get().(*eclatQuery)
	defer q.release()
	sh := &q.shared
	sh.mc = minCount(ix.n, minSupport)
	sh.words = ix.words
	sh.weighted = ix.weighted
	sh.weights = ix.weights

	// Frequent item positions in the standard Eclat order (ascending
	// count, ties by ascending ID — positions ascend with IDs, so the
	// tie-break is the position itself).
	q.posBuf = q.posBuf[:0]
	for p, ic := range ix.items {
		if ic.count >= sh.mc {
			q.posBuf = append(q.posBuf, int32(p))
		}
	}
	sort.Slice(q.posBuf, func(i, j int) bool {
		a, b := q.posBuf[i], q.posBuf[j]
		if ix.items[a].count != ix.items[b].count {
			return ix.items[a].count < ix.items[b].count
		}
		return a < b
	})
	sh.freq = sh.freq[:0]
	sh.posts = sh.posts[:0]
	for _, p := range q.posBuf {
		sh.freq = append(sh.freq, ix.items[p])
		sh.posts = append(sh.posts, ix.postingAt(int(p)))
	}

	if err := eclatRun(sh, &q.scratch, res, workers); err != nil {
		return nil, err
	}
	return res, nil
}

// emitSingleton records a size-1 itemset from the global count pass.
func (s *eclatScratch) emitSingleton(ic itemCount) {
	if len(s.arenaFree) < 1 {
		s.arenaFree = make([]ingredient.ID, emitArenaChunk)
	}
	items := s.arenaFree[:1:1]
	s.arenaFree = s.arenaFree[1:]
	items[0] = ic.item
	s.sets = append(s.sets, Itemset{Items: items, Count: ic.count})
}

// dedupTransactions projects every transaction onto the frequent items
// and collapses identical projections into (transaction, weight) pairs.
// Transactions ascend by ID, so a projection listed in ID order is
// already a canonical dedup key; its order indices need no sort, since
// buildBitmaps only sets bits. Replicate pools are copies by
// construction, so the unique-transaction count (and with it every
// bitmap's length) is typically several-fold smaller than the input.
func (m *eclatMiner) dedupTransactions(txs [][]ingredient.ID) {
	sh := &m.shared
	clear(m.dedup)
	m.txArena = m.txArena[:0]
	m.txOff = append(m.txOff[:0], 0)
	sh.weights = sh.weights[:0]
	wide := len(sh.freq) > 0xffff
	buf := m.buf[:0]
	for _, tx := range txs {
		buf = buf[:0]
		for _, it := range tx {
			if v := m.ids.get(it); v > 0 {
				buf = append(buf, v-1)
			}
		}
		if len(buf) == 0 {
			continue
		}
		m.keyBuf = m.keyBuf[:0]
		if wide {
			for _, v := range buf {
				m.keyBuf = append(m.keyBuf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
			}
		} else {
			for _, v := range buf {
				m.keyBuf = append(m.keyBuf, byte(v>>8), byte(v))
			}
		}
		if u, ok := m.dedup[string(m.keyBuf)]; ok {
			sh.weights[u]++
			continue
		}
		m.dedup[string(m.keyBuf)] = int32(len(sh.weights))
		m.txArena = append(m.txArena, buf...)
		m.txOff = append(m.txOff, int32(len(m.txArena)))
		sh.weights = append(sh.weights, 1)
	}
	m.buf = buf[:0]
	sh.weighted = false
	for _, w := range sh.weights {
		if w > 1 {
			sh.weighted = true
			break
		}
	}
}

// buildBitmaps lays out one dense tidset bitmap per frequent item over
// the unique transaction ids, all in one contiguous arena, and exposes
// them as bitset posting views. The raw path stays uniformly dense on
// purpose: a per-mine build has no cardinality statistics worth a
// second pass (the adaptive containers live in the build-once Index,
// where the layout cost amortizes), and all-bitset postings make the
// expansion byte-identical in work to the pre-container kernel. The
// weights slice is padded to a whole word so the weighted intersect
// loop can index by bit position without bounds branches.
func (m *eclatMiner) buildBitmaps() {
	sh := &m.shared
	u := len(sh.weights)
	sh.words = (u + 63) / 64
	need := len(sh.freq) * sh.words
	if cap(m.bitmapArena) < need {
		m.bitmapArena = make([]uint64, need)
	}
	m.bitmapArena = m.bitmapArena[:need]
	for i := range m.bitmapArena {
		m.bitmapArena[i] = 0
	}
	for t := 0; t+1 < len(m.txOff); t++ {
		word, bit := uint64(t>>6), uint64(t&63)
		for _, j := range m.txArena[m.txOff[t]:m.txOff[t+1]] {
			m.bitmapArena[int(j)*sh.words+int(word)] |= 1 << bit
		}
	}
	sh.posts = sh.posts[:0]
	for j := range sh.freq {
		sh.posts = append(sh.posts, posting{
			kind: containerBitset,
			card: -1, // unknown; never consulted for bitset×bitset pairs
			bits: m.bitmapArena[j*sh.words : (j+1)*sh.words],
		})
	}
	if sh.weighted {
		for len(sh.weights) < sh.words*64 {
			sh.weights = append(sh.weights, 0)
		}
	}
}
