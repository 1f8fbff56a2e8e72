package lru

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
)

// model is the reference the op-stream interpreter checks Cache
// against: a plain slice, least recently used first, with every rule
// spelled out naively.
type model struct {
	budget                  int64
	entries                 []Entry[string]
	hits, misses, evictions uint64
}

func (m *model) find(key string) int {
	return slices.IndexFunc(m.entries, func(e Entry[string]) bool { return e.Key == key })
}

func (m *model) used() int64 {
	var n int64
	for _, e := range m.entries {
		n += int64(len(e.Value))
	}
	return n
}

func (m *model) get(key string, count bool) (string, bool) {
	i := m.find(key)
	if i < 0 {
		if count {
			m.misses++
		}
		return "", false
	}
	if count {
		m.hits++
	}
	e := m.entries[i]
	m.entries = append(slices.Delete(m.entries, i, i+1), e)
	return e.Value, true
}

func (m *model) put(key, val string) bool {
	if m.budget <= 0 || int64(len(val)) > m.budget {
		return false
	}
	if m.find(key) >= 0 {
		m.get(key, false)
		return false
	}
	for m.used()+int64(len(val)) > m.budget {
		m.entries = m.entries[1:]
		m.evictions++
	}
	m.entries = append(m.entries, Entry[string]{key, val})
	return true
}

func (m *model) remove(key string) (string, bool) {
	i := m.find(key)
	if i < 0 {
		return "", false
	}
	e := m.entries[i]
	m.entries = slices.Delete(m.entries, i, i+1)
	return e.Value, true
}

func (m *model) removeFunc(match func(string) bool) int {
	before := len(m.entries)
	m.entries = slices.DeleteFunc(m.entries, func(e Entry[string]) bool { return match(e.Key) })
	return before - len(m.entries)
}

func strlen(s string) int64 { return int64(len(s)) }

// opKeys are the keys an op stream draws from: two prefix groups, so
// RemoveFunc can match a strict subset.
var opKeys = []string{"a0", "a1", "a2", "b0", "b1", "b2"}

// runOps interprets ops two bytes at a time — an opcode, then an
// argument whose low 3 bits pick the key and whose high 5 bits say how
// many times a Put value repeats it (0 gives an empty value) — against a Cache and the model, and fails at the first divergence in a returned value,
// the Entries order, the Stats tuple, or the budget.
func runOps(t *testing.T, budget int64, ops []byte) {
	t.Helper()
	c := New(budget, strlen)
	m := &model{budget: budget}
	for i := 0; i+1 < len(ops); i += 2 {
		code, arg := ops[i]%5, ops[i+1]
		key := opKeys[int(arg&7)%len(opKeys)]
		var op string
		switch code {
		case 0:
			val := strings.Repeat(key, int(arg>>3)) // 0..62 bytes
			op = fmt.Sprintf("Put(%q, %d bytes)", key, len(val))
			if got, want := c.Put(key, val), m.put(key, val); got != want {
				t.Fatalf("op %d %s = %v, model %v", i/2, op, got, want)
			}
		case 1, 2:
			op = fmt.Sprintf("Get(%q)", key)
			get := c.Get
			if code == 2 {
				op, get = fmt.Sprintf("Peek(%q)", key), c.Peek
			}
			v, ok := get(key)
			if mv, mok := m.get(key, code == 1); v != mv || ok != mok {
				t.Fatalf("op %d %s = (%q, %v), model (%q, %v)", i/2, op, v, ok, mv, mok)
			}
		case 3:
			op = fmt.Sprintf("Remove(%q)", key)
			v, ok := c.Remove(key)
			if mv, mok := m.remove(key); v != mv || ok != mok {
				t.Fatalf("op %d %s = (%q, %v), model (%q, %v)", i/2, op, v, ok, mv, mok)
			}
		case 4:
			prefix := key[:1]
			op = fmt.Sprintf("RemoveFunc(prefix %q)", prefix)
			match := func(k string) bool { return strings.HasPrefix(k, prefix) }
			if got, want := c.RemoveFunc(match), m.removeFunc(match); got != want {
				t.Fatalf("op %d %s = %d, model %d", i/2, op, got, want)
			}
		}
		if got := c.Entries(); !slices.Equal(got, m.entries) {
			t.Fatalf("after op %d %s: Entries = %v, model %v", i/2, op, got, m.entries)
		}
		hits, misses, evictions, used, entries := c.Stats()
		if hits != m.hits || misses != m.misses || evictions != m.evictions || used != m.used() || entries != len(m.entries) {
			t.Fatalf("after op %d %s: Stats = (%d, %d, %d, %d, %d), model (%d, %d, %d, %d, %d)",
				i/2, op, hits, misses, evictions, used, entries,
				m.hits, m.misses, m.evictions, m.used(), len(m.entries))
		}
		if used > max(budget, 0) {
			t.Fatalf("after op %d %s: used %d exceeds budget %d", i/2, op, used, budget)
		}
	}
}

// Op-stream builders for the hand-written cases: key indexes opKeys,
// and put's value is that key repeated n times (2n bytes).
func put(key, n int) []byte      { return []byte{0, byte(n<<3 | key)} }
func get(key int) []byte         { return []byte{1, byte(key)} }
func peek(key int) []byte        { return []byte{2, byte(key)} }
func remove(key int) []byte      { return []byte{3, byte(key)} }
func removeGroup(key int) []byte { return []byte{4, byte(key)} }

func TestCacheMatchesModel(t *testing.T) {
	cases := []struct {
		name   string
		budget int64
		ops    [][]byte
	}{
		{"zero budget retains nothing, not even an empty value", 0,
			[][]byte{put(0, 1), get(0), put(1, 0), peek(1), remove(1)}},
		{"negative budget retains nothing", -5, [][]byte{put(0, 1), get(0), put(1, 0), get(1)}},
		{"budget 1 keeps only empty values", 1, [][]byte{put(0, 1), get(0), put(3, 0), get(3)}},
		{"oversized value is not retained", 10, [][]byte{put(0, 1), put(1, 6), get(0), get(1)}},
		{"put over an existing key keeps the incumbent and refreshes it", 6,
			[][]byte{put(0, 1), put(1, 1), put(2, 1), put(0, 2), put(3, 1), get(0), get(1), get(2)}},
		{"get protects an entry from eviction", 6,
			[][]byte{put(0, 1), put(1, 1), put(2, 1), get(0), put(3, 1), get(1), get(0)}},
		{"peek refreshes recency without counting", 6,
			[][]byte{put(0, 1), put(1, 1), put(2, 1), peek(0), put(3, 1), get(1)}},
		{"remove and removeFunc free their bytes", 6,
			[][]byte{put(0, 1), put(1, 1), put(3, 1), remove(1), remove(1), removeGroup(4), put(2, 1), put(4, 1), put(5, 1)}},
		{"one put can evict several entries", 40,
			[][]byte{put(0, 5), put(1, 5), put(2, 5), put(3, 17), get(0)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			runOps(t, tc.budget, slices.Concat(tc.ops...))
		})
	}
}

func TestCacheMatchesModelRandomStreams(t *testing.T) {
	for _, budget := range []int64{0, 1, 24, 80, 1 << 20} {
		for seed := int64(0); seed < 20; seed++ {
			ops := make([]byte, 400)
			rand.New(rand.NewSource(seed)).Read(ops)
			t.Run(fmt.Sprintf("budget=%d/seed=%d", budget, seed), func(t *testing.T) {
				runOps(t, budget, ops)
			})
		}
	}
}

// FuzzLRUOps drives the model interpreter with arbitrary budgets and op
// streams.
func FuzzLRUOps(f *testing.F) {
	f.Add(int64(0), slices.Concat(put(0, 0), get(0)))
	f.Add(int64(1), slices.Concat(put(0, 1), put(1, 0), peek(1), remove(1)))
	f.Add(int64(24), slices.Concat(put(0, 3), put(1, 4), put(0, 2), put(2, 6), get(1), removeGroup(0)))
	f.Add(int64(1<<20), slices.Concat(put(0, 3), put(3, 3), removeGroup(3), get(0), get(3)))
	f.Fuzz(func(t *testing.T, budget int64, ops []byte) {
		if len(ops) > 2048 {
			ops = ops[:2048]
		}
		runOps(t, budget, ops)
	})
}

// TestCacheConcurrentOps hammers one cache from several goroutines with
// Get, Peek, Put, RemoveFunc, Entries and Stats; the race detector owns
// the locking proof, this owns the invariants the ops leave behind.
func TestCacheConcurrentOps(t *testing.T) {
	const budget = 64
	c := New(budget, strlen)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 2000; i++ {
				key := opKeys[rng.Intn(len(opKeys))]
				switch rng.Intn(6) {
				case 0, 1:
					c.Put(key, key+strings.Repeat("=", rng.Intn(20)))
				case 2:
					if v, ok := c.Get(key); ok && !strings.HasPrefix(v, key) {
						t.Errorf("Get(%q) = %q: value of another key", key, v)
						return
					}
				case 3:
					c.Peek(key)
				case 4:
					c.RemoveFunc(func(k string) bool { return k[0] == key[0] })
				case 5:
					c.Entries()
					c.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	_, _, _, used, entries := c.Stats()
	all := c.Entries()
	var sum int64
	for _, e := range all {
		sum += strlen(e.Value)
	}
	if used > budget || used != sum || entries != len(all) {
		t.Fatalf("used %d (entries sum %d, budget %d), entries %d vs %d listed", used, sum, budget, entries, len(all))
	}
}
