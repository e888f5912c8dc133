// Package cluster shards the serving tier: a consistent-hash ring routes
// session ids across replicas, a router tier fronts both the HTTP and the
// binary-stream protocols, and an in-process harness stands up multi-replica
// clusters for the shard-chaos drills. Replicas stay stateless between
// rounds — every classified round is externalized to the shared
// fleet.StateStore — so ownership can move at any time and the next owner
// resumes mid-stream from the store.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// vnodesPerMember is the virtual-node count per member. 64 vnodes keeps the
// worst member within a few percent of the mean share for small clusters
// while the ring stays tiny (a few KiB per member). It is a constant, not a
// knob: routers with different counts would disagree on placement.
const vnodesPerMember = 64

// Ring is a consistent-hash ring: members own contiguous arcs of a 64-bit
// keyspace, split into vnodes so shares stay even and membership changes
// move only the arcs adjacent to the changed member. Safe for concurrent
// use.
type Ring struct {
	mu      sync.RWMutex
	points  []ringPoint // sorted by hash
	members map[string]struct{}
}

type ringPoint struct {
	hash   uint64
	member string
}

// NewRing builds an empty ring.
func NewRing() *Ring {
	return &Ring{members: map[string]struct{}{}}
}

// hash64 is FNV-1a over s, finished with the splitmix64 mixer. Raw FNV-1a
// barely diffuses short, similar strings ("r-17", "alpha#3"): a member's
// vnodes all land in one tiny arc and session ids cluster the same way, so
// one member ends up owning everything. The finalizer gives avalanche while
// staying stable across processes — placement remains a pure function of
// (members, session id).
func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Add inserts a member. Adding an existing member is a no-op, so callers
// can converge membership idempotently.
func (r *Ring) Add(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[member]; ok {
		return
	}
	r.members[member] = struct{}{}
	for v := 0; v < vnodesPerMember; v++ {
		r.points = append(r.points, ringPoint{hash64(fmt.Sprintf("%s#%d", member, v)), member})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove deletes a member and its vnodes. Removing an absent member is a
// no-op.
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

// Members returns the current membership, sorted.
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

// Len reports the member count.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.members)
}

// Owner maps a key to its owning member: the first vnode clockwise from the
// key's hash. Returns "" on an empty ring.
func (r *Ring) Owner(key string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return ""
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the key hashes past the last vnode
	}
	return r.points[i].member
}
