// Package cluster is tasqd's scale-out layer: a sharded fleet of serving
// replicas behind one client. One tasqd process cannot serve millions of
// users (ROADMAP item 2), so the fleet shares the filesystem model
// registry — already crash-safe and cross-process collision-tolerant —
// and splits the scoring keyspace with a consistent-hash ring over the
// job feature-cache key, so each shard's memoized curve cache stays hot
// for the jobs it owns.
//
// The package provides three pieces:
//
//   - Ring: the consistent-hash member ring (this file). Assignment is a
//     pure function of the member *set*, so ejecting and re-admitting a
//     replica restores exactly the original routing — the
//     minimal-key-movement property the fleet chaos suite asserts.
//   - Fleet: N in-process-spawnable tasqd replicas over one registry
//     (fleet.go), with drain-based kill, restart, and partition controls
//     for deterministic chaos testing.
//   - Wave: rolling model promotion across the fleet (wave.go), reusing
//     the autopilot promotion state machine: shadow on one canary
//     replica, promote on its verdict, then wave the new generation
//     through the rest.
package cluster

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
)

// DefaultVirtualNodes is the per-member vnode count. 1024 points per
// member holds every member's load share within ±20% of 1/N at the fleet
// sizes the chaos suite runs (the property test pins this); the ring
// stays tiny — N·1024 24-byte points — and lookups are a binary search.
const DefaultVirtualNodes = 1024

// point is one vnode: a position on the 64-bit ring owned by a member.
type point struct {
	hash   uint64
	member string
}

// Ring is a consistent-hash ring over named members. A key is owned by
// the member of the first vnode clockwise from the key's hash. Safe for
// concurrent use.
//
// Determinism contract: the assignment of keys to members is a pure
// function of the member set (member names and vnode count) — insertion
// order, removal history and timing never matter. Removing a member moves
// only the keys it owned; adding one moves only the keys it takes over.
type Ring struct {
	mu      sync.RWMutex
	vnodes  int
	points  []point // sorted by hash, ties broken by member name
	members map[string]struct{}
}

// NewRing builds an empty ring with vnodes points per member; vnodes < 1
// is refused.
func NewRing(vnodes int) (*Ring, error) {
	if vnodes < 1 {
		return nil, fmt.Errorf("cluster: ring with %d virtual nodes per member: want at least 1", vnodes)
	}
	return &Ring{vnodes: vnodes, members: make(map[string]struct{})}, nil
}

// pointHash places vnode i of a member on the ring: FNV-1a over
// "member#i" pushed through the SplitMix64 finalizer, the same
// avalanche construction as the fault injector's decision streams —
// plain FNV clusters badly on short names that differ in one byte.
func pointHash(member string, i int) uint64 {
	h := uint64(14695981039346656037)
	for j := 0; j < len(member); j++ {
		h ^= uint64(member[j])
		h *= 1099511628211
	}
	h ^= uint64(i) + 0x9e3779b97f4a7c15
	return mix64(h)
}

// KeyHash maps a routing key onto the ring. Routing keys are full
// feature-cache keys — hundreds of bytes — and the balancer hashes one
// per request, so this consumes 8-byte words through the SplitMix64
// finalizer instead of byte-at-a-time FNV (~6x faster on cache keys,
// same avalanche quality; the ring balance property test pins the
// distribution). The key length is folded into the seed so a short key
// and its zero-padded extension cannot collide. Exported so tests and
// the balancer agree on the placement function; the hash is a fixed
// pure function of the bytes, so every client routes identically.
func KeyHash(key []byte) uint64 {
	h := uint64(14695981039346656037) ^ uint64(len(key))
	for len(key) >= 8 {
		h = mix64(h ^ binary.LittleEndian.Uint64(key))
		key = key[8:]
	}
	if len(key) > 0 {
		var tail uint64
		for i, b := range key {
			tail |= uint64(b) << (8 * uint(i))
		}
		h = mix64(h ^ tail)
	}
	return mix64(h)
}

// mix64 is the SplitMix64 finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Add inserts a member's vnodes. Adding an existing member is a no-op.
func (r *Ring) Add(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[member]; ok {
		return
	}
	r.members[member] = struct{}{}
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, point{hash: pointHash(member, i), member: member})
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].member < r.points[b].member
	})
}

// Remove deletes a member and its vnodes. Unknown members are a no-op.
func (r *Ring) Remove(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[member]; !ok {
		return
	}
	delete(r.members, member)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.member != member {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Has reports membership.
func (r *Ring) Has(member string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.members[member]
	return ok
}

// Len returns the member count.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.members)
}

// Members returns the member names sorted.
func (r *Ring) Members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.members))
	for m := range r.members {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Pick returns the member owning a key, or "" and false on an empty ring.
func (r *Ring) Pick(key []byte) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return "", false
	}
	return r.points[r.successor(KeyHash(key))].member, true
}

// successor finds the index of the first point at or clockwise of h.
func (r *Ring) successor(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap around the ring
	}
	return i
}

// Sequence returns up to n distinct members in ring order starting from
// the key's owner — the failover preference order: if the owner is down,
// the next distinct member clockwise takes the request, and so on. n ≤ 0
// or n > Len() returns every member.
func (r *Ring) Sequence(key []byte, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return nil
	}
	if n <= 0 || n > len(r.members) {
		n = len(r.members)
	}
	out := make([]string, 0, n)
	seen := make(map[string]struct{}, n)
	start := r.successor(KeyHash(key))
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if _, ok := seen[p.member]; ok {
			continue
		}
		seen[p.member] = struct{}{}
		out = append(out, p.member)
	}
	return out
}

// Assign maps every key to its owner in one pass — the bulk form tests
// and the minimal-movement checker use. Returns an error on an empty
// ring rather than silently assigning nothing.
func (r *Ring) Assign(keys [][]byte) (map[string]string, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return nil, fmt.Errorf("cluster: assigning %d keys on an empty ring", len(keys))
	}
	out := make(map[string]string, len(keys))
	for _, k := range keys {
		out[string(k)] = r.points[r.successor(KeyHash(k))].member
	}
	return out, nil
}
