// Package lru is the one size-budgeted least-recently-used cache behind
// the server's result cache, its live write heads and the corpus index
// cache (DESIGN.md §8, §12, §14).
package lru

import (
	"container/list"
	"sync"
)

// Entry is one cached key and value, as Entries returns them.
type Entry[V any] struct {
	Key   string
	Value V
}

// item is a list element's value: the entry plus its size, measured
// once at Put so eviction never calls back into the size function.
type item[V any] struct {
	Entry[V]
	size int64
}

// Cache is an LRU map from string keys to values of type V whose summed
// sizes stay within a budget; eviction walks from the least recently
// used entry until a new one fits. Safe for concurrent use. Its lock is
// a leaf: no caller code runs while it is held except RemoveFunc's
// match, which must not call back into the cache.
type Cache[V any] struct {
	budget int64
	size   func(V) int64

	mu    sync.Mutex
	used  int64
	order *list.List // front = most recently used; values are *item[V]
	items map[string]*list.Element

	hits, misses, evictions uint64
}

// New returns a cache bounded at budget units of size(v), summed over
// the retained values. size must be pure and non-negative. budget <= 0
// retains nothing: every Get misses and every Put is a no-op.
func New[V any](budget int64, size func(V) int64) *Cache[V] {
	return &Cache[V]{
		budget: budget,
		size:   size,
		order:  list.New(),
		items:  make(map[string]*list.Element),
	}
}

// Get returns the value cached under key, marking it most recently
// used, and counts the lookup as a hit or a miss.
func (c *Cache[V]) Get(key string) (V, bool) {
	return c.get(key, true)
}

// Peek is Get without touching the hit/miss counters, for
// double-checked lookups that would otherwise count one request twice.
func (c *Cache[V]) Peek(key string) (V, bool) {
	return c.get(key, false)
}

func (c *Cache[V]) get(key string, count bool) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		if count {
			c.misses++
		}
		var zero V
		return zero, false
	}
	if count {
		c.hits++
	}
	c.order.MoveToFront(el)
	return el.Value.(*item[V]).Value, true
}

// Put inserts v under key, evicting least recently used entries to fit
// the budget, and reports whether it inserted. A value larger than the
// whole budget is not retained. An entry already under key is kept and
// marked most recently used: every owner keys by content, so the
// incumbent is equivalent to v.
func (c *Cache[V]) Put(key string, v V) (inserted bool) {
	size := c.size(v)
	if c.budget <= 0 || size > c.budget {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		return false
	}
	for c.used+size > c.budget {
		c.unlink(c.order.Back())
		c.evictions++
	}
	c.items[key] = c.order.PushFront(&item[V]{Entry[V]{key, v}, size})
	c.used += size
	return true
}

// Remove deletes the entry under key and returns its value. Removals
// are not evictions and are not counted.
func (c *Cache[V]) Remove(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	return c.unlink(el).Value, true
}

// RemoveFunc deletes every entry whose key matches and reports how many
// it deleted. match runs under the cache lock.
func (c *Cache[V]) RemoveFunc(match func(key string) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for key, el := range c.items {
		if match(key) {
			c.unlink(el)
			n++
		}
	}
	return n
}

// unlink drops el from the list, the map and the usage. Caller holds
// c.mu.
func (c *Cache[V]) unlink(el *list.Element) *item[V] {
	it := c.order.Remove(el).(*item[V])
	delete(c.items, it.Key)
	c.used -= it.size
	return it
}

// Entries returns a copy of the cached entries, least recently used
// first: replaying them through Put on an empty cache rebuilds the same
// recency order. Values are shared, not copied.
func (c *Cache[V]) Entries() []Entry[V] {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Entry[V], 0, len(c.items))
	for el := c.order.Back(); el != nil; el = el.Prev() {
		out = append(out, el.Value.(*item[V]).Entry)
	}
	return out
}

// Stats returns the cumulative hit, miss and eviction counters and the
// current usage.
func (c *Cache[V]) Stats() (hits, misses, evictions uint64, used int64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions, c.used, len(c.items)
}
