// Package peering is the multi-node serving substrate: a consistent-hash
// ring that partitions the content-addressed result-cache keyspace across
// peer nodes, an HTTP forwarding client that lets a non-owner proxy a
// request to the key's owner (cross-node coalescing: N nodes asking for
// one key cost one computation, on one node), and a crash-safe snapshot
// format that persists a node's result cache to disk so a restarted node
// comes up warm (DESIGN.md §15).
//
// The ring is a pure function of the membership list: every node given
// the same members computes the same ownership, with no coordination
// protocol, no gossip and no external dependency. Virtual nodes smooth
// the partition; removing one member moves only the keyspace it owned.
package peering

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVirtualNodes is the per-member virtual-node count when a Ring
// is built with vnodes <= 0. 64 points per member keeps the worst-case
// member share within a few percent of fair for small clusters while
// the ring stays tiny (N*64 points, binary-searched per lookup).
const DefaultVirtualNodes = 64

// Ring assigns every key a single owning member by consistent hashing:
// each member contributes vnodes points on a 64-bit circle, and a key is
// owned by the member of the first point at or after the key's hash.
// A Ring is immutable and safe for concurrent use.
type Ring struct {
	members []string // sorted, deduplicated
	vnodes  int
	points  []ringPoint // sorted by hash, ties broken by member
}

type ringPoint struct {
	hash   uint64
	member string
}

// NewRing builds the ring over the given members (order-insensitive;
// duplicates collapse). vnodes <= 0 selects DefaultVirtualNodes.
func NewRing(members []string, vnodes int) (*Ring, error) {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	uniq := make(map[string]bool, len(members))
	sorted := make([]string, 0, len(members))
	for _, m := range members {
		if m == "" {
			return nil, errors.New("peering: empty member id")
		}
		if !uniq[m] {
			uniq[m] = true
			sorted = append(sorted, m)
		}
	}
	if len(sorted) == 0 {
		return nil, errors.New("peering: ring needs at least one member")
	}
	sort.Strings(sorted)

	r := &Ring{
		members: sorted,
		vnodes:  vnodes,
		points:  make([]ringPoint, 0, len(sorted)*vnodes),
	}
	for _, m := range sorted {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:   hash64(fmt.Sprintf("%s#%d", m, v)),
				member: m,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
	return r, nil
}

// Owner returns the member that owns key.
func (r *Ring) Owner(key string) string {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap around the circle
	}
	return r.points[i].member
}

// Members returns the sorted member list.
func (r *Ring) Members() []string {
	return append([]string(nil), r.members...)
}

// Contains reports whether member is on the ring.
func (r *Ring) Contains(member string) bool {
	i := sort.SearchStrings(r.members, member)
	return i < len(r.members) && r.members[i] == member
}

// Moved counts the keyspace arcs whose owner differs between prev and r:
// the circle is cut at every point of either ring, and each resulting
// arc is checked under both. It is an exact structural measure of how
// much of the keyspace a membership change reassigns — the
// cuisinevol_peer_ring_moves_total observable.
func (r *Ring) Moved(prev *Ring) int {
	if prev == nil {
		return 0
	}
	cuts := make([]uint64, 0, len(r.points)+len(prev.points))
	for _, p := range r.points {
		cuts = append(cuts, p.hash)
	}
	for _, p := range prev.points {
		cuts = append(cuts, p.hash)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	moved := 0
	for i, c := range cuts {
		if i > 0 && cuts[i-1] == c {
			continue // duplicate cut
		}
		// The arc starting at c is owned by the first point at or after
		// its lowest key, which is c itself.
		if r.ownerOfHash(c) != prev.ownerOfHash(c) {
			moved++
		}
	}
	return moved
}

// ownerOfHash resolves ownership for a raw ring position.
func (r *Ring) ownerOfHash(h uint64) string {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].member
}

// hash64 maps a string onto the ring circle: FNV-1a for speed and zero
// dependencies, then a SplitMix64 finalizer so short, similar strings
// (member ids, hex cache keys) still spread uniformly.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	z := h.Sum64()
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
