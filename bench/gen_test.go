package main

import "testing"

// TestGenerateIsSeedDeterministic pins the contract the whole benchmark
// rests on: the same seed reproduces the database and the request
// schedule byte for byte, and another seed does not.
func TestGenerateIsSeedDeterministic(t *testing.T) {
	a := generate(tinyScale, 7).fingerprint(1000)
	if b := generate(tinyScale, 7).fingerprint(1000); a != b {
		t.Fatalf("seed 7 generated two different input sets: %x vs %x", a, b)
	}
	if c := generate(tinyScale, 8).fingerprint(1000); a == c {
		t.Fatalf("seeds 7 and 8 generated the same inputs (%x)", a)
	}
}

// TestWorkShapeIsSeedIndependent checks what keeps timings comparable
// across seeds: root lengths and the query-length sequence do not
// depend on the seed, only the residues do.
func TestWorkShapeIsSeedIndependent(t *testing.T) {
	a, b := generate(tinyScale, 1), generate(tinyScale, 2)
	for i := range a.roots {
		if len(a.roots[i]) != len(b.roots[i]) {
			t.Fatalf("root %d: length %d under seed 1, %d under seed 2", i, len(a.roots[i]), len(b.roots[i]))
		}
	}
	var la, lb int
	for i := 0; i < 200; i++ {
		la += len(a.familyQuery(missBase + i))
		lb += len(b.familyQuery(missBase + i))
	}
	if d := float64(la-lb) / float64(la); d > 0.02 || d < -0.02 {
		t.Fatalf("200 queries total %d residues under seed 1, %d under seed 2", la, lb)
	}
}

func TestHotmixMissShare(t *testing.T) {
	in := generate(tinyScale, 3)
	reqs := in.hotmix(missBase, 1000)
	seen := make(map[string]bool)
	misses := 0
	for _, r := range reqs {
		if r.hot >= 0 {
			if r.query != in.hot[r.hot] {
				t.Fatalf("hot request carries a query that is not hot[%d]", r.hot)
			}
			continue
		}
		misses++
		if seen[r.query] {
			t.Fatal("a new family query repeated, so it would hit the cache")
		}
		seen[r.query] = true
	}
	if misses != len(reqs)/missEvery {
		t.Fatalf("%d misses in %d requests, want one per %d", misses, len(reqs), missEvery)
	}
}
