package itemset

import (
	"context"
	"strconv"
	"strings"
	"sync"

	"cuisinevol/internal/flight"
	"cuisinevol/internal/ingredient"
	"cuisinevol/internal/lru"
)

// IndexKey derives the canonical cache key for one corpus slice's
// index: the corpus content fingerprint plus the slice selector. Every
// layer that shares an IndexCache — the server handlers, the experiment
// harness, the facade — keys it this way, so a /v1/mine request, a
// Table I run and a Fig 3 panel over the same cuisine converge on one
// entry. Content addressing is the same discipline as the server's
// result cache: the key identifies the data, so entries never need
// invalidation, only eviction.
func IndexKey(corpusFingerprint, region string, categories bool) string {
	return corpusFingerprint + "|region=" + region + "|categories=" + strconv.FormatBool(categories)
}

// IndexCacheStats is a snapshot of an IndexCache's counters.
type IndexCacheStats struct {
	Builds        uint64 // index builds executed (coalesced per key)
	Hits          uint64 // Gets served from a cached index
	Misses        uint64 // Gets that had to build (or join an in-flight build)
	Evictions     uint64 // indexes evicted to fit the byte budget
	Invalidations uint64 // entries removed by InvalidateFingerprint
	Bytes         int64  // retained bytes of cached indexes
	Entries       int    // cached indexes

	// Posting-container telemetry, accumulated once per index that
	// passes through the cache (each successful build, each inserted
	// Put): how many items landed in each container format, and the
	// posting bytes the adaptive layout saved over the uniform dense
	// one. Exposed on /metrics as cuisinevol_index_container_*_total
	// and cuisinevol_index_bytes_saved_total.
	ContainerArrays  uint64
	ContainerBitsets uint64
	ContainerRuns    uint64
	BytesSaved       uint64
}

// IndexCache is a byte-budget LRU of immutable corpus indexes (an
// lru.Cache) with coalesced builds: concurrent Gets for the same key
// share one BuildIndex run (a flight.Group, DESIGN.md §8), and completed
// indexes are retained until the budget forces eviction. Safe for
// concurrent use.
type IndexCache struct {
	// mu guards the counters below and makes a build's commit (the
	// Forgotten check plus the Put) and an invalidation (RemoveFunc plus
	// Forget) mutually atomic. Lock order: mu, then lru or flight.
	mu     sync.Mutex
	lru    *lru.Cache[*Index]
	flight flight.Group[*Index]

	builds, invalidations             uint64
	arrays, bitsets, runs, bytesSaved uint64
}

// NewIndexCache returns a cache bounded at budget bytes of retained
// index memory. budget <= 0 disables retention: every Get builds (still
// coalesced with concurrent identical Gets).
func NewIndexCache(budget int64) *IndexCache {
	return &IndexCache{lru: lru.New(budget, (*Index).Bytes)}
}

// Get returns the index cached under key, building it from source's
// transactions on first use. source is invoked at most once per
// in-flight key no matter how many goroutines ask concurrently; its
// error (or its panic, as a *flight.PanicError) is propagated to every
// waiter and nothing is cached. A waiter whose ctx ends returns
// ctx.Err(). The returned Index is immutable and remains valid after
// eviction.
func (c *IndexCache) Get(ctx context.Context, key string, source func() ([][]ingredient.ID, error)) (*Index, error) {
	if ix, ok := c.lru.Get(key); ok {
		return ix, nil
	}
	ix, err, _ := c.flight.Do(ctx, key, func(fctx context.Context) (*Index, error) {
		// A build that completed between this Get's miss and its flight
		// leadership already cached the index.
		if ix, ok := c.lru.Peek(key); ok {
			return ix, nil
		}
		c.mu.Lock()
		c.builds++
		c.mu.Unlock()
		ix, err := buildFromSource(source)
		if err != nil {
			return nil, err
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		c.countContainers(ix)
		// A build whose fingerprint was invalidated mid-flight still
		// serves its waiters, but must not resurrect in the cache.
		if !c.flight.Forgotten(fctx) {
			c.lru.Put(key, ix)
		}
		return ix, nil
	})
	return ix, err
}

// buildFromSource materializes the transactions and builds the index.
func buildFromSource(source func() ([][]ingredient.ID, error)) (*Index, error) {
	txs, err := source()
	if err != nil {
		return nil, err
	}
	return BuildIndex(txs)
}

// Put inserts an externally built index — a LiveIndex snapshot derived
// incrementally, rather than built from a source callback — under key.
// The usual budget and LRU rules apply; an index wider than the whole
// budget is simply not retained. A racing or pre-existing entry for the
// same key is kept and marked most recently used (same key means same
// content fingerprint, so the incumbent is equivalent). Container
// telemetry counts the index only when it is actually inserted —
// repeated Puts of one memoized snapshot must not inflate the totals.
func (c *IndexCache) Put(key string, ix *Index) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lru.Put(key, ix) {
		c.countContainers(ix)
	}
}

// countContainers accumulates one index's container mix into the cache
// telemetry. Caller holds c.mu.
func (c *IndexCache) countContainers(ix *Index) {
	st := ix.ContainerStats()
	c.arrays += uint64(st.Arrays)
	c.bitsets += uint64(st.Bitsets)
	c.runs += uint64(st.Runs)
	c.bytesSaved += uint64(st.BytesSaved())
}

// InvalidateFingerprint removes every cached index derived from the
// given corpus fingerprint (any region/category view) and reports how
// many were dropped. Callers use this when a corpus is deleted so its
// indexes do not sit unreachable-but-resident until LRU pressure.
// Because cached indexes are immutable, invalidation never breaks
// holders: an *Index pinned by an in-flight query stays valid and
// byte-deterministic after removal, exactly as after eviction.
func (c *IndexCache) InvalidateFingerprint(fp string) int {
	prefix := fp + "|"
	match := func(key string) bool { return strings.HasPrefix(key, prefix) }
	c.mu.Lock()
	defer c.mu.Unlock()
	removed := c.lru.RemoveFunc(match)
	// Builds still in flight for this fingerprint must not land in the
	// cache when they complete — without this, a Get racing the
	// invalidation resurrects the deleted corpus's index. They count
	// with the entries removed directly.
	dropped := c.flight.Forget(match)
	c.invalidations += uint64(removed + dropped)
	return removed
}

// Stats returns a snapshot of the cache counters.
func (c *IndexCache) Stats() IndexCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	hits, misses, evictions, used, entries := c.lru.Stats()
	return IndexCacheStats{
		Builds:           c.builds,
		Hits:             hits,
		Misses:           misses,
		Evictions:        evictions,
		Invalidations:    c.invalidations,
		Bytes:            used,
		Entries:          entries,
		ContainerArrays:  c.arrays,
		ContainerBitsets: c.bitsets,
		ContainerRuns:    c.runs,
		BytesSaved:       c.bytesSaved,
	}
}
