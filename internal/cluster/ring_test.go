package cluster

import (
	"fmt"
	"reflect"
	"testing"
)

// synthKeys builds the deterministic synthetic keyspace for a seed: the
// shape mimics the serving curve-cache key (model name + job features)
// without importing the serve package.
func synthKeys(seed int64, n int) [][]byte {
	keys := make([][]byte, n)
	for i := 0; i < n; i++ {
		keys[i] = []byte(fmt.Sprintf("xgboost-pl\x00job-%d-%04d/tokens=%d", seed, i, 16+(i%241)))
	}
	return keys
}

// memberNames builds n replica IDs in tasqd's -cluster-id convention.
func memberNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("tasqd-%d", i)
	}
	return out
}

func newRing(t testing.TB, vnodes int) *Ring {
	t.Helper()
	r, err := NewRing(vnodes)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func ringOf(t testing.TB, members []string) *Ring {
	t.Helper()
	r := newRing(t, DefaultVirtualNodes)
	for _, m := range members {
		r.Add(m)
	}
	return r
}

func loads(assign map[string]string) map[string]int {
	out := map[string]int{}
	for _, m := range assign {
		out[m]++
	}
	return out
}

// TestRingBalance is the satellite property test: across 1k synthetic
// keys the per-member load stays within ±20% of the fair share keys/N,
// for every fleet size the chaos suite runs, at several fixed seeds.
func TestRingBalance(t *testing.T) {
	const numKeys = 1000
	for _, seed := range []int64{1, 42, 1337} {
		keys := synthKeys(seed, numKeys)
		for _, n := range []int{2, 3, 5, 8} {
			t.Run(fmt.Sprintf("seed=%d/n=%d", seed, n), func(t *testing.T) {
				r := ringOf(t, memberNames(n))
				assign, err := r.Assign(keys)
				if err != nil {
					t.Fatal(err)
				}
				fair := float64(numKeys) / float64(n)
				lo, hi := fair*0.8, fair*1.2
				for member, load := range loads(assign) {
					if float64(load) < lo || float64(load) > hi {
						t.Errorf("member %s load %d outside ±20%% of fair share %.1f", member, load, fair)
					}
				}
				if got := len(loads(assign)); got != n {
					t.Errorf("only %d of %d members own keys", got, n)
				}
			})
		}
	}
}

// TestRingMinimalMovement is the satellite movement test: when one member
// joins or leaves, at most keys/N + ε keys remap — and strictly, a join
// moves keys only *onto* the joiner and a leave moves only the leaver's
// keys. Anything else would dump whole shards' curve caches on every
// membership change.
func TestRingMinimalMovement(t *testing.T) {
	const numKeys = 1000
	for _, seed := range []int64{1, 42, 1337} {
		keys := synthKeys(seed, numKeys)
		for _, n := range []int{2, 3, 5, 8} {
			t.Run(fmt.Sprintf("seed=%d/n=%d", seed, n), func(t *testing.T) {
				members := memberNames(n)
				base := ringOf(t, members)
				before, err := base.Assign(keys)
				if err != nil {
					t.Fatal(err)
				}
				// ε: a quarter of the fair share on top of keys/N — tighter
				// than the ±20% balance bound, far below the keys·(N-1)/N a
				// naive mod-N rehash would move.
				eps := numKeys / (4 * n)
				bound := numKeys/n + eps

				// Join: a new member takes over only its own keys.
				joined := ringOf(t, members)
				joined.Add("tasqd-new")
				after, err := joined.Assign(keys)
				if err != nil {
					t.Fatal(err)
				}
				moved := 0
				for k, owner := range after {
					if owner != before[k] {
						moved++
						if owner != "tasqd-new" {
							t.Fatalf("join moved key %q from %s to %s, not to the joiner", k, before[k], owner)
						}
					}
				}
				if moved == 0 || moved > bound {
					t.Errorf("join moved %d keys, want 1..%d (keys/N=%d + ε=%d)", moved, bound, numKeys/n, eps)
				}

				// Leave: only the leaver's keys move (n ≥ 2 keeps the ring
				// non-empty afterwards).
				leaver := members[0]
				left := ringOf(t, members)
				left.Remove(leaver)
				afterLeave, err := left.Assign(keys)
				if err != nil {
					t.Fatal(err)
				}
				moved = 0
				for k, owner := range afterLeave {
					if owner != before[k] {
						moved++
						if before[k] != leaver {
							t.Fatalf("leave of %s moved key %q owned by %s", leaver, k, before[k])
						}
					}
					if owner == leaver {
						t.Fatalf("key %q still assigned to removed member", k)
					}
				}
				if moved == 0 || moved > bound {
					t.Errorf("leave moved %d keys, want 1..%d", moved, bound)
				}
			})
		}
	}
}

// TestRingSetDeterminism pins the re-admission guarantee the fleet relies
// on: assignment is a pure function of the member set, so removing a
// member and adding it back — or building the same set in any order —
// restores the identical routing.
func TestRingSetDeterminism(t *testing.T) {
	keys := synthKeys(7, 500)
	members := memberNames(5)

	forward := ringOf(t, members)
	reversed := newRing(t, DefaultVirtualNodes)
	for i := len(members) - 1; i >= 0; i-- {
		reversed.Add(members[i])
	}
	a1, err := forward.Assign(keys)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := reversed.Assign(keys)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a1, a2) {
		t.Fatal("assignment depends on member insertion order")
	}

	// Eject + re-admit round-trips to the original assignment.
	forward.Remove("tasqd-2")
	forward.Add("tasqd-2")
	a3, err := forward.Assign(keys)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a1, a3) {
		t.Fatal("re-admission did not restore the original assignment")
	}
}

// TestRingSequence pins the failover order: it starts at the key's owner,
// lists distinct members, honors n, and returns everyone for n ≤ 0.
func TestRingSequence(t *testing.T) {
	r := ringOf(t, memberNames(5))
	for _, key := range synthKeys(3, 50) {
		owner, ok := r.Pick(key)
		if !ok {
			t.Fatal("Pick on non-empty ring failed")
		}
		seq := r.Sequence(key, 3)
		if len(seq) != 3 {
			t.Fatalf("Sequence(n=3) returned %d members", len(seq))
		}
		if seq[0] != owner {
			t.Fatalf("Sequence starts at %s, Pick says %s", seq[0], owner)
		}
		seen := map[string]bool{}
		for _, m := range seq {
			if seen[m] {
				t.Fatalf("Sequence repeated member %s", m)
			}
			seen[m] = true
		}
		if all := r.Sequence(key, 0); len(all) != 5 {
			t.Fatalf("Sequence(n=0) returned %d members, want all 5", len(all))
		}
	}
}

// TestRingEmptyAndMembership covers the edge contract: empty-ring Pick /
// Sequence / Assign, idempotent Add, unknown Remove, Members ordering.
func TestRingEmptyAndMembership(t *testing.T) {
	for _, bad := range []int{0, -1} {
		if _, err := NewRing(bad); err == nil {
			t.Fatalf("NewRing(%d) accepted", bad)
		}
	}
	r := newRing(t, 4)
	if _, ok := r.Pick([]byte("k")); ok {
		t.Fatal("Pick on empty ring succeeded")
	}
	if seq := r.Sequence([]byte("k"), 2); seq != nil {
		t.Fatalf("Sequence on empty ring = %v", seq)
	}
	if _, err := r.Assign([][]byte{[]byte("k")}); err == nil {
		t.Fatal("Assign on empty ring succeeded")
	}
	r.Add("b")
	r.Add("a")
	r.Add("a") // idempotent
	r.Remove("zzz")
	if got := r.Members(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("Members = %v", got)
	}
	if !r.Has("a") || r.Has("zzz") {
		t.Fatal("Has membership wrong")
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	// Single-member ring owns everything.
	r.Remove("b")
	owner, ok := r.Pick([]byte("anything"))
	if !ok || owner != "a" {
		t.Fatalf("single-member Pick = %q, %v", owner, ok)
	}
}
