package server

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"cuisinevol/internal/corpusstore"
	"cuisinevol/internal/itemset"
	"cuisinevol/internal/lru"
)

// latencyBuckets are the histogram upper bounds in seconds. They span
// sub-millisecond cache hits through multi-minute full-scale Fig 4
// ensembles.
var latencyBuckets = [numBuckets]float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60, 300}

const numBuckets = 9

// metrics is a dependency-free Prometheus-style registry covering the
// serving layer: per-endpoint request counts and latency histograms,
// cache traffic, coalescing, and compute-pool occupancy. Exposition is
// deterministic (sorted label sets) so /metrics itself is testable.
type metrics struct {
	mu sync.Mutex
	// requests[endpoint][status] counts completed requests.
	requests map[string]map[int]uint64
	// latency[endpoint] is a cumulative histogram over latencyBuckets.
	latency map[string]*histogram

	coalesced    atomic.Uint64 // requests served by joining another's computation
	computations atomic.Uint64 // underlying pipeline computations executed
	inflight     atomic.Int64  // computations currently holding a compute slot
	waiting      atomic.Int64  // computations queued on the compute semaphore

	// Live-index (incremental append) counters.
	liveAppends    atomic.Uint64 // append operations served through a live head
	liveAppendedTx atomic.Uint64 // transactions appended incrementally (delta sizes)
	liveSeeds      atomic.Uint64 // live heads seeded by a full O(n) build
	liveSnapshots  atomic.Uint64 // epoch snapshots materialized into the index cache

	// Peering (multi-node serving tier) counters.
	peerProxied            atomic.Uint64 // requests relayed to their key's owning node
	peerFallback           atomic.Uint64 // owner-unreachable requests served by bounded local compute
	peerFallbackShed       atomic.Uint64 // owner-unreachable requests shed (fallback budget exhausted)
	peerRingMoves          atomic.Uint64 // keyspace arcs reassigned by membership updates
	peerSnapshotSaves      atomic.Uint64 // cache snapshots written to disk
	peerSnapshotLoads      atomic.Uint64 // cache snapshots restored at startup
	peerSnapshotLoadErrors atomic.Uint64 // snapshot loads rejected by verification (quarantined)
	peerSnapshotEntries    atomic.Uint64 // cache entries restored from snapshots

	shedComputations atomic.Uint64 // computations rejected at admission (queue full)
	deadlineTimeouts atomic.Uint64 // requests that exceeded their deadline budget
	// chaosInjected counts injected faults by Fault kind (all zero when
	// chaos is disabled).
	chaosInjected [FaultItem + 1]atomic.Uint64
}

type histogram struct {
	counts [numBuckets + 1]uint64 // +Inf bucket last
	sum    float64
	total  uint64
}

func newMetrics() *metrics {
	return &metrics{
		requests: make(map[string]map[int]uint64),
		latency:  make(map[string]*histogram),
	}
}

// observe records one completed request.
func (m *metrics) observe(endpoint string, status int, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	byStatus := m.requests[endpoint]
	if byStatus == nil {
		byStatus = make(map[int]uint64)
		m.requests[endpoint] = byStatus
	}
	byStatus[status]++
	h := m.latency[endpoint]
	if h == nil {
		h = &histogram{}
		m.latency[endpoint] = h
	}
	idx := numBuckets
	for i, ub := range latencyBuckets {
		if seconds <= ub {
			idx = i
			break
		}
	}
	h.counts[idx]++
	h.sum += seconds
	h.total++
}

// WriteTo renders the registry in Prometheus text exposition format
// (version 0.0.4). Families and label values are emitted in sorted
// order.
func (m *metrics) WriteTo(w io.Writer, cache *lru.Cache[[]byte], indexes *itemset.IndexCache, registry *corpusstore.Registry, live *lru.Cache[*itemset.LiveIndex]) error {
	m.mu.Lock()
	endpoints := make([]string, 0, len(m.requests))
	for ep := range m.requests {
		endpoints = append(endpoints, ep)
	}
	sort.Strings(endpoints)

	var b []byte
	appendf := func(format string, args ...any) {
		b = append(b, fmt.Sprintf(format, args...)...)
	}
	// scalar emits one unlabeled counter or gauge family.
	scalar := func(name, typ, help string, v any) {
		appendf("# HELP %s %s\n# TYPE %s %s\n%s %d\n", name, help, name, typ, name, v)
	}

	appendf("# HELP cuisinevol_http_requests_total Completed HTTP requests by endpoint and status code.\n")
	appendf("# TYPE cuisinevol_http_requests_total counter\n")
	for _, ep := range endpoints {
		statuses := make([]int, 0, len(m.requests[ep]))
		for s := range m.requests[ep] {
			statuses = append(statuses, s)
		}
		sort.Ints(statuses)
		for _, s := range statuses {
			appendf("cuisinevol_http_requests_total{endpoint=%q,code=\"%d\"} %d\n", ep, s, m.requests[ep][s])
		}
	}

	appendf("# HELP cuisinevol_http_request_duration_seconds Request latency by endpoint.\n")
	appendf("# TYPE cuisinevol_http_request_duration_seconds histogram\n")
	for _, ep := range endpoints {
		h := m.latency[ep]
		if h == nil {
			continue
		}
		cum := uint64(0)
		for i, ub := range latencyBuckets {
			cum += h.counts[i]
			appendf("cuisinevol_http_request_duration_seconds_bucket{endpoint=%q,le=%q} %d\n",
				ep, strconv.FormatFloat(ub, 'g', -1, 64), cum)
		}
		cum += h.counts[numBuckets]
		appendf("cuisinevol_http_request_duration_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", ep, cum)
		appendf("cuisinevol_http_request_duration_seconds_sum{endpoint=%q} %s\n",
			ep, strconv.FormatFloat(h.sum, 'g', -1, 64))
		appendf("cuisinevol_http_request_duration_seconds_count{endpoint=%q} %d\n", ep, h.total)
	}
	m.mu.Unlock()

	hits, misses, evictions, used, entries := cache.Stats()
	scalar("cuisinevol_cache_hits_total", "counter", "Result-cache hits.", hits)
	scalar("cuisinevol_cache_misses_total", "counter", "Result-cache misses.", misses)
	scalar("cuisinevol_cache_evictions_total", "counter", "Entries evicted to fit the byte budget.", evictions)
	scalar("cuisinevol_cache_bytes", "gauge", "Bytes of response bodies currently cached.", used)
	scalar("cuisinevol_cache_entries", "gauge", "Entries currently cached.", entries)

	ist := indexes.Stats()
	scalar("cuisinevol_index_builds_total", "counter", "Corpus-index builds executed (coalesced per key).", ist.Builds)
	scalar("cuisinevol_index_hits_total", "counter", "Index-cache lookups served from a cached index.", ist.Hits)
	scalar("cuisinevol_index_misses_total", "counter", "Index-cache lookups that had to build or join an in-flight build.", ist.Misses)
	scalar("cuisinevol_index_evictions_total", "counter", "Indexes evicted to fit the byte budget.", ist.Evictions)
	scalar("cuisinevol_index_invalidations_total", "counter", "Index entries dropped by fingerprint invalidation (corpus deletes).", ist.Invalidations)
	scalar("cuisinevol_index_bytes", "gauge", "Bytes of prebuilt corpus indexes currently retained.", ist.Bytes)
	scalar("cuisinevol_index_entries", "gauge", "Corpus indexes currently cached.", ist.Entries)
	scalar("cuisinevol_index_container_array_total", "counter", "Items laid out as sorted-array posting containers, across all indexes cached.", ist.ContainerArrays)
	scalar("cuisinevol_index_container_bitset_total", "counter", "Items laid out as dense-bitset posting containers, across all indexes cached.", ist.ContainerBitsets)
	scalar("cuisinevol_index_container_run_total", "counter", "Items laid out as run-length posting containers, across all indexes cached.", ist.ContainerRuns)
	scalar("cuisinevol_index_bytes_saved_total", "counter", "Posting bytes the adaptive container layout saved over a uniform dense one, across all indexes cached.", ist.BytesSaved)

	rst := registry.Stats()
	scalar("cuisinevol_corpus_loads_total", "counter", "Corpus loads from the backing store (coalesced per corpus).", rst.Loads)
	scalar("cuisinevol_corpus_load_hits_total", "counter", "Corpus resolutions served from a memoized corpus.", rst.LoadHits)
	scalar("cuisinevol_corpus_load_misses_total", "counter", "Corpus resolutions that had to load (or join an in-flight load).", rst.LoadMisses)
	scalar("cuisinevol_corpus_puts_total", "counter", "Corpora registered (distinct content).", rst.Puts)
	scalar("cuisinevol_corpus_deletes_total", "counter", "Corpora deleted from the registry.", rst.Deletes)
	scalar("cuisinevol_corpus_loaded_bytes", "gauge", "Serialized bytes of corpora currently memoized in memory.", rst.LoadedBytes)
	scalar("cuisinevol_corpus_loaded_entries", "gauge", "Corpora currently memoized in memory.", rst.LoadedEntries)
	scalar("cuisinevol_corpus_store_bytes", "gauge", "Payload bytes in the backing corpus store.", rst.StoreBytes)
	scalar("cuisinevol_corpus_store_entries", "gauge", "Corpora in the backing store.", rst.StoreEntries)

	heads := live.Entries()
	var liveEpochs uint64
	for _, h := range heads {
		liveEpochs += h.Value.Epoch()
	}
	scalar("cuisinevol_live_appends_total", "counter", "Corpus appends served through an incremental live-index head.", m.liveAppends.Load())
	scalar("cuisinevol_live_appended_tx_total", "counter", "Transactions appended incrementally (delta sizes, O(delta) each).", m.liveAppendedTx.Load())
	scalar("cuisinevol_live_seeds_total", "counter", "Live heads seeded by a full corpus build (cold lineage, restart, or head eviction).", m.liveSeeds.Load())
	scalar("cuisinevol_live_snapshots_total", "counter", "Epoch snapshots materialized into the index cache by appends.", m.liveSnapshots.Load())
	scalar("cuisinevol_live_heads", "gauge", "Live-index write heads currently retained.", len(heads))
	scalar("cuisinevol_live_epochs", "gauge", "Summed mutation epochs across retained live heads.", liveEpochs)

	scalar("cuisinevol_coalesced_requests_total", "counter", "Requests served by joining an identical in-flight computation.", m.coalesced.Load())
	scalar("cuisinevol_computations_total", "counter", "Underlying pipeline computations executed.", m.computations.Load())
	scalar("cuisinevol_compute_inflight", "gauge", "Computations currently holding a compute slot.", m.inflight.Load())
	scalar("cuisinevol_compute_waiting", "gauge", "Computations queued for a compute slot.", m.waiting.Load())

	scalar("cuisinevol_peer_proxied_total", "counter", "Requests relayed to the node owning their cache key.", m.peerProxied.Load())
	scalar("cuisinevol_peer_fallback_total", "counter", "Owner-unreachable requests served by bounded local compute.", m.peerFallback.Load())
	scalar("cuisinevol_peer_fallback_shed_total", "counter", "Owner-unreachable requests shed because the fallback budget was exhausted.", m.peerFallbackShed.Load())
	scalar("cuisinevol_peer_ring_moves_total", "counter", "Keyspace arcs reassigned by peer membership updates.", m.peerRingMoves.Load())
	scalar("cuisinevol_peer_snapshot_saves_total", "counter", "Result-cache snapshots written to disk.", m.peerSnapshotSaves.Load())
	scalar("cuisinevol_peer_snapshot_loads_total", "counter", "Result-cache snapshots restored at startup.", m.peerSnapshotLoads.Load())
	scalar("cuisinevol_peer_snapshot_load_errors_total", "counter", "Snapshot loads rejected by verification (file quarantined, node started cold).", m.peerSnapshotLoadErrors.Load())
	scalar("cuisinevol_peer_snapshot_entries_total", "counter", "Cache entries restored from snapshots.", m.peerSnapshotEntries.Load())

	scalar("cuisinevol_shed_total", "counter", "Computations rejected at admission because the wait queue was full.", m.shedComputations.Load())
	scalar("cuisinevol_deadline_timeouts_total", "counter", "Requests that exceeded their deadline budget (504).", m.deadlineTimeouts.Load())
	appendf("# HELP cuisinevol_chaos_injected_total Faults injected by the chaos layer, by kind.\n")
	appendf("# TYPE cuisinevol_chaos_injected_total counter\n")
	for f := FaultError; f <= FaultItem; f++ {
		appendf("cuisinevol_chaos_injected_total{fault=%q} %d\n", f.String(), m.chaosInjected[f].Load())
	}

	_, err := w.Write(b)
	return err
}
