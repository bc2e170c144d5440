package aserver

import (
	"fmt"
	"sort"
	"testing"
)

// TestDirectoryDeterministic: two independently built rings over the
// same backends agree on every placement — the property that lets a
// router fleet (and a test) compute placements with no coordination.
func TestDirectoryDeterministic(t *testing.T) {
	backends := []string{"afd-a:7000", "afd-b:7000", "afd-c:7000"}
	d1 := NewDirectory(backends, 64)
	d2 := NewDirectory(backends, 64)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("device-%d", i)
		if a, b := d1.Lookup(key), d2.Lookup(key); a != b {
			t.Fatalf("placement of %q differs across builds: %d vs %d", key, a, b)
		}
	}
	// Order of the backend list must not change placement identity:
	// the ring hashes names, not indices.
	shuffled := []string{"afd-c:7000", "afd-a:7000", "afd-b:7000"}
	d3 := NewDirectory(shuffled, 64)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("device-%d", i)
		if backends[d1.Lookup(key)] != shuffled[d3.Lookup(key)] {
			t.Fatalf("placement of %q depends on backend list order", key)
		}
	}
}

// TestDirectoryStability: adding one backend to N moves only ~K/(N+1)
// of K keys, and removing it restores the original placement exactly.
func TestDirectoryStability(t *testing.T) {
	const keys = 4000
	base := []string{"afd-0", "afd-1", "afd-2", "afd-3"}
	grown := append(append([]string(nil), base...), "afd-4")
	d := NewDirectory(base, 0)
	dg := NewDirectory(grown, 0)

	moved := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("device-%d", i)
		was := base[d.Lookup(key)]
		now := grown[dg.Lookup(key)]
		if was != now {
			moved++
			if now != "afd-4" {
				t.Fatalf("key %q moved %s -> %s, not to the new backend", key, was, now)
			}
		}
	}
	// Expect ~keys/5 moves; allow generous slop for hash variance.
	want := keys / 5
	if moved < want/2 || moved > want*2 {
		t.Fatalf("adding 1 of 5 backends moved %d/%d keys, want about %d", moved, keys, want)
	}

	// Removal is the inverse: rebuilding without afd-4 restores every
	// placement (the ring has no history).
	dr := NewDirectory(base, 0)
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("device-%d", i)
		if d.Lookup(key) != dr.Lookup(key) {
			t.Fatalf("key %q placement not restored after remove", key)
		}
	}
}

// TestDirectoryBalance: virtual points spread keys within a reasonable
// factor of even.
func TestDirectoryBalance(t *testing.T) {
	backends := []string{"afd-0", "afd-1", "afd-2", "afd-3", "afd-4"}
	d := NewDirectory(backends, 0)
	counts := make([]int, len(backends))
	const keys = 10000
	for i := 0; i < keys; i++ {
		counts[d.Lookup(fmt.Sprintf("device-%d", i))]++
	}
	even := keys / len(backends)
	for i, n := range counts {
		if n < even/3 || n > even*3 {
			t.Fatalf("backend %d holds %d/%d keys (even share %d): ring badly unbalanced %v",
				i, n, keys, even, counts)
		}
	}
}

// TestDirectoryAvoidsDownBackends: LookupLive never returns a backend
// the liveness predicate rejects, falls back clockwise deterministically,
// and returns -1 only when nothing is live.
func TestDirectoryAvoidsDownBackends(t *testing.T) {
	backends := []string{"afd-0", "afd-1", "afd-2"}
	d := NewDirectory(backends, 0)
	down := map[int]bool{}
	live := func(i int) bool { return !down[i] }

	for kill := 0; kill < len(backends); kill++ {
		for i := 0; i < 500; i++ {
			key := fmt.Sprintf("device-%d", i)
			got := d.LookupLive(key, live)
			if got < 0 {
				t.Fatalf("no placement for %q with %d/%d backends down", key, kill, len(backends))
			}
			if down[got] {
				t.Fatalf("key %q placed on down backend %d", key, got)
			}
			// A key whose owner is still up must not move.
			owner := d.Lookup(key)
			if !down[owner] && got != owner {
				t.Fatalf("key %q moved off its live owner %d to %d", key, owner, got)
			}
			// The failover target is the next live owner in preference
			// order — deterministic, so a router fleet agrees on it: the
			// first backend up at or clockwise from the key's point.
			h := mix64(fnv1a(key))
			start := sort.Search(len(d.ring), func(i int) bool { return d.ring[i].hash >= h })
			for i := range d.ring {
				if o := d.ring[(start+i)%len(d.ring)].backend; !down[o] {
					if got != o {
						t.Fatalf("key %q placed on %d, want first live owner %d", key, got, o)
					}
					break
				}
			}
		}
		down[kill] = true
	}
	// Everything down: no placement.
	if got := d.LookupLive("device-1", live); got != -1 {
		t.Fatalf("LookupLive with all backends down = %d, want -1", got)
	}
}
