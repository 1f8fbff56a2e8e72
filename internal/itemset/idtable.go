package itemset

import (
	"math/bits"

	"cuisinevol/internal/ingredient"
)

// idTableInitSlots is a fresh table's slot count (a power of two); a
// table holds at most half as many IDs before it doubles.
const idTableInitSlots = 256

// idTableRetainSlots caps the table a pooled miner carries from one
// mine to the next: a table grown past it by one wide corpus is
// replaced on reset, so later small mines do not clear it every time.
const idTableRetainSlots = 1 << 16

// idTable is MineSupports' ingredient.ID → int32 table: open
// addressing with linear probing over power-of-two slot arrays, homed
// by Fibonacci hashing, so any int32 ID (negative, sparse or spread
// over a wide span) takes the same path. A zero value marks an empty
// slot, so stored values must be nonzero. The table never deletes; it
// is reset between mines.
type idTable struct {
	keys  []ingredient.ID
	vals  []int32
	used  int
	shift uint // 32 - log2(len(keys))
}

// reset empties the table for the next mine, dropping storage grown
// past idTableRetainSlots.
func (t *idTable) reset() {
	if t.keys == nil || len(t.keys) > idTableRetainSlots {
		t.alloc(idTableInitSlots)
		return
	}
	clear(t.vals)
	t.used = 0
}

func (t *idTable) alloc(slots int) {
	t.keys = make([]ingredient.ID, slots)
	t.vals = make([]int32, slots)
	t.used = 0
	t.shift = 32 - uint(bits.TrailingZeros(uint(slots)))
}

// home returns id's first probe slot.
func (t *idTable) home(id ingredient.ID) int {
	return int(uint32(id) * 0x9E3779B9 >> t.shift)
}

// slot returns the slot holding id, or the empty slot where it would
// be inserted.
func (t *idTable) slot(id ingredient.ID) int {
	mask := len(t.keys) - 1
	i := t.home(id)
	for t.vals[i] != 0 && t.keys[i] != id {
		i = (i + 1) & mask
	}
	return i
}

// get returns id's value, or 0 when id is absent.
func (t *idTable) get(id ingredient.ID) int32 {
	return t.vals[t.slot(id)]
}

// inc adds one to id's value, inserting id at 1 when absent.
func (t *idTable) inc(id ingredient.ID) {
	i := t.slot(id)
	if t.vals[i] != 0 {
		t.vals[i]++
		return
	}
	t.keys[i], t.vals[i] = id, 1
	t.used++
	if 2*t.used > len(t.keys) {
		t.grow()
	}
}

// grow doubles the slot count and reinserts every entry.
func (t *idTable) grow() {
	keys, vals := t.keys, t.vals
	t.alloc(2 * len(keys))
	for i, v := range vals {
		if v != 0 {
			j := t.slot(keys[i])
			t.keys[j], t.vals[j] = keys[i], v
			t.used++
		}
	}
}
