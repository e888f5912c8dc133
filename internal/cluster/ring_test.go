package cluster

import (
	"fmt"
	"testing"
)

// prop: ownership is a pure function of (members, key) — two rings built in
// different orders agree on every key. The router tier depends on this: any
// router instance, or a rebuilt one, must route a session the same way.
func TestRingOrderIndependent(t *testing.T) {
	a, b := NewRing(), NewRing()
	for _, m := range []string{"alpha", "beta", "gamma"} {
		a.Add(m)
	}
	for _, m := range []string{"gamma", "alpha", "beta"} {
		b.Add(m)
	}
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("r-%d", i)
		if a.Owner(k) != b.Owner(k) {
			t.Fatalf("key %q: owners diverge by insertion order (%q vs %q)", k, a.Owner(k), b.Owner(k))
		}
	}
}

// prop: shares are roughly even. With 64 vnodes per member and 3 members,
// every member should own a non-trivial share — the bar here is loose (half
// the fair share) because the point is catching gross imbalance (for
// example a broken vnode hash), not certifying variance.
func TestRingBalance(t *testing.T) {
	r := NewRing()
	members := []string{"alpha", "beta", "gamma"}
	for _, m := range members {
		r.Add(m)
	}
	counts := map[string]int{}
	const keys = 3000
	for i := 0; i < keys; i++ {
		counts[r.Owner(fmt.Sprintf("r-%d", i))]++
	}
	fair := keys / len(members)
	for _, m := range members {
		if counts[m] < fair/2 {
			t.Errorf("member %q owns %d of %d keys (fair share %d) — ring badly imbalanced", m, counts[m], keys, fair)
		}
	}
	t.Logf("shares: %v", counts)
}

// prop (the consistent-hashing property the migration story leans on):
// removing a member only moves that member's keys; every key owned by a
// survivor keeps its owner. Likewise adding a member only moves keys TO the
// new member.
func TestRingMembershipChangesMoveOnlyAffectedKeys(t *testing.T) {
	r := NewRing()
	for _, m := range []string{"alpha", "beta", "gamma"} {
		r.Add(m)
	}
	const keys = 1000
	before := make([]string, keys)
	for i := range before {
		before[i] = r.Owner(fmt.Sprintf("r-%d", i))
	}

	r.Remove("beta")
	moved := 0
	for i := range before {
		after := r.Owner(fmt.Sprintf("r-%d", i))
		if before[i] != "beta" && after != before[i] {
			t.Fatalf("key r-%d moved %q -> %q though its owner survived", i, before[i], after)
		}
		if before[i] == "beta" {
			moved++
			if after == "beta" {
				t.Fatalf("key r-%d still owned by removed member", i)
			}
		}
	}
	if moved == 0 {
		t.Fatal("beta owned no keys before removal — balance test should have caught this")
	}

	atTwo := make([]string, keys)
	for i := range atTwo {
		atTwo[i] = r.Owner(fmt.Sprintf("r-%d", i))
	}
	r.Add("delta")
	joined := 0
	for i := range atTwo {
		after := r.Owner(fmt.Sprintf("r-%d", i))
		if after != atTwo[i] && after != "delta" {
			t.Fatalf("key r-%d moved %q -> %q on join — only moves to the joiner are allowed", i, atTwo[i], after)
		}
		if after == "delta" {
			joined++
		}
	}
	if joined == 0 {
		t.Fatal("joiner took no keys")
	}
	t.Logf("remove moved %d keys, join took %d keys", moved, joined)
}

// Idempotence and edge cases: double add, double remove, empty ring.
func TestRingEdgeCases(t *testing.T) {
	r := NewRing()
	if r.Owner("r-1") != "" {
		t.Fatal("empty ring must own nothing")
	}
	r.Add("alpha")
	r.Add("alpha")
	if got := r.Members(); len(got) != 1 || got[0] != "alpha" {
		t.Fatalf("double add corrupted membership: %v", got)
	}
	if r.Owner("anything") != "alpha" {
		t.Fatal("sole member must own every key")
	}
	r.Remove("alpha")
	r.Remove("alpha")
	if r.Len() != 0 || r.Owner("r-1") != "" {
		t.Fatalf("double remove corrupted ring: %d members", r.Len())
	}
}
