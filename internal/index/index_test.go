package index

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bio"
)

func testDB(t testing.TB, n int, seed int64) *bio.Database {
	t.Helper()
	spec := bio.DefaultDBSpec(n)
	spec.Seed = seed
	return bio.SyntheticDB(spec)
}

func TestPackKmerRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		k := MinK + rng.Intn(MaxK-MinK+1)
		seq := make([]uint8, k)
		for i := range seq {
			seq[i] = uint8(rng.Intn(bio.NumStandard))
		}
		key, ok := PackKmer(seq, 0, k)
		if !ok {
			t.Fatalf("clean %d-mer rejected", k)
		}
		if key >= maxKey(k) {
			t.Fatalf("key %d >= maxKey %d", key, maxKey(k))
		}
		if got := UnpackKmer(key, k); !bytes.Equal(got, seq) {
			t.Fatalf("unpack(pack(%v)) = %v", seq, got)
		}
	}
}

func TestPackKmerRejects(t *testing.T) {
	seq := bio.Encode("ARNDC")
	if _, ok := PackKmer(seq, 2, 5); ok {
		t.Error("window past the end accepted")
	}
	if _, ok := PackKmer(seq, -1, 3); ok {
		t.Error("negative position accepted")
	}
	if _, ok := PackKmer(seq, 0, 1); ok {
		t.Error("k below MinK accepted")
	}
	if _, ok := PackKmer(seq, 0, MaxK+1); ok {
		t.Error("k above MaxK accepted")
	}
	amb := bio.Encode("ARXDC") // X is a non-standard residue
	if _, ok := PackKmer(amb, 0, 5); ok {
		t.Error("ambiguous window accepted")
	}
	if _, ok := PackKmer(amb, 0, 2); !ok {
		t.Error("clean prefix of an ambiguous sequence rejected")
	}
}

// Lookup must agree with a naive map-of-slices ground truth for every
// k-mer present, and return nil for absent ones.
func TestLookupMatchesNaive(t *testing.T) {
	db := testDB(t, 30, 11)
	ix := Build(db, Options{K: 4, MaxPostings: -1})

	naive := map[uint64][]Posting{}
	for ti, s := range db.Seqs {
		for i := 0; i+4 <= len(s.Residues); i++ {
			if key, ok := PackKmer(s.Residues, i, 4); ok {
				naive[key] = append(naive[key], Posting{Target: int32(ti), Pos: int32(i)})
			}
		}
	}
	if got, want := ix.Stats().DistinctKmers, len(naive); got != want {
		t.Fatalf("%d distinct k-mers indexed, want %d", got, want)
	}
	for key, want := range naive {
		got := ix.Lookup(key)
		if len(got) != len(want) {
			t.Fatalf("key %d: %d postings, want %d", key, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("key %d posting %d = %+v, want %+v", key, i, got[i], want[i])
			}
		}
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 1000; trial++ {
		key := rng.Uint64() % maxKey(4)
		if _, present := naive[key]; !present {
			if got := ix.Lookup(key); got != nil {
				t.Fatalf("absent key %d returned %d postings", key, len(got))
			}
		}
	}
}

// Building with any worker count must yield the identical index,
// slice for slice: the two-pass counting build's sharded fill is
// required to reproduce the single-shard canonical layout exactly,
// slot for slot. Raw() is what a snapshot serializes, so equal slices
// are equal artifacts.
func TestBuildWorkerInvariance(t *testing.T) {
	db := testDB(t, 50, 23)
	ref := Build(db, Options{Workers: 1}).Raw()
	for _, workers := range []int{2, 3, 4, 5, 7, 8, 16, 50} {
		got := Build(db, Options{Workers: workers}).Raw()
		if got.K != ref.K || got.MaxPostings != ref.MaxPostings ||
			got.NumTargets != ref.NumTargets || got.TotalRes != ref.TotalRes {
			t.Fatalf("workers=%d: geometry differs from workers=1", workers)
		}
		if !slices.Equal(got.Keys, ref.Keys) || !slices.Equal(got.RawCount, ref.RawCount) ||
			!slices.Equal(got.Offs, ref.Offs) || !slices.Equal(got.Postings, ref.Postings) ||
			!slices.Equal(got.Table, ref.Table) {
			t.Fatalf("workers=%d: index arrays differ from workers=1", workers)
		}
	}
}

// An overrepresented k-mer must drop its whole posting list (not
// truncate it, which would bias seeding toward early targets) while
// keeping its raw count for inspection.
func TestOverrepresentationCap(t *testing.T) {
	poly := &bio.Sequence{ID: "POLYA", Residues: bytes.Repeat([]byte{0}, 40)}
	normal := bio.RandomSequence("R1", 60, 3)
	db := bio.NewDatabase([]*bio.Sequence{poly, normal})

	key, _ := PackKmer(poly.Residues, 0, DefaultK)
	capped := Build(db, Options{MaxPostings: 8})
	if got := capped.Lookup(key); len(got) != 0 {
		t.Fatalf("capped poly-A k-mer returned %d postings, want 0", len(got))
	}
	st := capped.Stats()
	if st.CappedKmers == 0 {
		t.Error("no k-mers reported capped")
	}
	if st.RawPostings <= int64(st.Postings) {
		t.Errorf("raw postings %d not above stored %d", st.RawPostings, st.Postings)
	}

	uncapped := Build(db, Options{MaxPostings: -1})
	if got := uncapped.Lookup(key); len(got) != 40-DefaultK+1 {
		t.Fatalf("uncapped poly-A k-mer returned %d postings, want %d", len(got), 40-DefaultK+1)
	}
	if st := uncapped.Stats(); st.CappedKmers != 0 {
		t.Errorf("uncapped index reports %d capped k-mers", st.CappedKmers)
	}
}

func TestValidateFingerprint(t *testing.T) {
	db := testDB(t, 10, 1)
	ix := Build(db, Options{})
	if err := ix.Validate(db); err != nil {
		t.Fatalf("index rejects its own database: %v", err)
	}
	other := testDB(t, 11, 2)
	if err := ix.Validate(other); err == nil {
		t.Fatal("index accepted a different database")
	}
}

// FuzzPackKmer asserts the packing properties on arbitrary residue
// windows: accepted windows round-trip through UnpackKmer exactly and
// pack below maxKey; windows touching non-standard residues are
// rejected.
func FuzzPackKmer(f *testing.F) {
	f.Add([]byte("ARNDCQEGHILKMFPSTWYV"), 0, 5)
	f.Add([]byte("AAAAAAAAAAAAA"), 0, 13)
	f.Add([]byte("ARXDC"), 0, 5)
	f.Add([]byte{}, 0, 2)
	f.Fuzz(func(t *testing.T, ascii []byte, pos, k int) {
		seq := bio.Encode(string(ascii))
		key, ok := PackKmer(seq, pos, k)
		clean := pos >= 0 && k >= MinK && k <= MaxK && pos <= len(seq)-k
		if clean {
			for i := pos; i < pos+k; i++ {
				if seq[i] >= bio.NumStandard {
					clean = false
					break
				}
			}
		}
		if ok != clean {
			t.Fatalf("PackKmer(%v, %d, %d) ok=%v, want %v", seq, pos, k, ok, clean)
		}
		if !ok {
			return
		}
		if key >= maxKey(k) {
			t.Fatalf("key %d >= maxKey(%d)=%d", key, k, maxKey(k))
		}
		if got := UnpackKmer(key, k); !bytes.Equal(got, seq[pos:pos+k]) {
			t.Fatalf("unpack(pack) = %v, want %v", got, seq[pos:pos+k])
		}
	})
}
