// Package index implements a k-mer seed index over a protein database
// and the seed-and-extend heuristic search pipeline built on it. This
// is the architectural move that separates the paper's heuristic tools
// (BLAST, FASTA) from the rigorous scanners: a cheap seeding filter
// proposes a handful of candidate library sequences, and only those
// are paid full dynamic-programming attention. Where internal/blast
// indexes the *query* (NCBI BLAST's neighborhood table), this package
// indexes the *database* — the SNAP-style layout that amortizes index
// construction across millions of queries and turns a database scan
// into hash lookups plus a few extensions.
//
// The index is deterministic end to end: building with any worker
// count yields the identical arrays, slice for slice (entries are
// stored in canonical key order, posting lists in database order), so
// a snapshot of it (internal/snapshot) is reproducible, and searches
// driven through align.SearchDB return bit-identical top-K hit lists
// at every worker count.
package index

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/bio"
)

// Packing limits. K-mers are packed base-NumStandard (20), so 13
// residues are the most that fit a uint64 (20^13 < 2^63 < 20^14).
const (
	// MinK is the smallest supported k-mer length. k=1 postings are
	// pure composition and seed nothing useful.
	MinK = 2
	// MaxK is the largest k-mer length whose packed form fits uint64.
	MaxK = 13
	// DefaultK balances sensitivity and selectivity for protein: a
	// 5-mer match between unrelated SwissProt-composition sequences is
	// rare (~7e-7 per residue pair), while a 30%-mutated homolog of a
	// 360-residue query still carries ~60 intact 5-mers.
	DefaultK = 5
	// DefaultMaxPostings caps posting lists: a k-mer occurring more
	// often than this across the database (low-complexity runs,
	// composition-biased repeats) seeds everything and selects
	// nothing, so its list is dropped rather than scanned.
	DefaultMaxPostings = 256
)

// Posting is one occurrence of a k-mer in the database: sequence
// Target (database order) at residue offset Pos.
type Posting struct {
	Target int32
	Pos    int32
}

// Options tunes index construction. The zero value selects the
// defaults documented on each field.
type Options struct {
	// K is the k-mer length; 0 means DefaultK. Must lie in [MinK, MaxK].
	K int
	// MaxPostings is the overrepresented-seed cap: a k-mer with more
	// database occurrences than this stores no postings (its raw count
	// is kept for stats). 0 means DefaultMaxPostings; negative
	// disables capping.
	MaxPostings int
	// Workers parallelizes the build across contiguous database
	// shards; <= 0 means GOMAXPROCS. The result is identical — slice
	// for slice — for every worker count.
	Workers int
}

func (o Options) normalized() Options {
	if o.K == 0 {
		o.K = DefaultK
	}
	if o.MaxPostings == 0 {
		o.MaxPostings = DefaultMaxPostings
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// Index is the k-mer seed index: distinct k-mers in canonical (packed
// key ascending) order, a CSR postings array sorted by (target, pos)
// within each list, and an open-addressed hash table mapping packed
// keys to entries. Lookups are O(1) expected; the canonical layout is
// what makes serialization and sharded builds deterministic.
type Index struct {
	k           int
	maxPostings int // cap the build applied; < 0 means uncapped
	numTargets  int
	totalRes    int

	keys     []uint64 // distinct k-mers, strictly ascending
	raw      []uint32 // pre-cap occurrence count per entry
	offs     []int64  // CSR offsets; entry e spans postings[offs[e]:offs[e+1]]
	postings []Posting

	table []int32 // open-addressed probe table: entry index + 1, 0 = empty
	mask  uint64
}

// PackKmer packs the k residues of seq starting at pos into a base-20
// key. It reports false when the window leaves the sequence or touches
// a non-standard residue (ambiguity codes B/Z/X and '*' are never
// seeded — they would match everything the matrix only tolerates).
func PackKmer(seq []uint8, pos, k int) (uint64, bool) {
	// Written as pos > len-k (not pos+k > len) so a huge pos cannot
	// overflow past the bound.
	if pos < 0 || k < MinK || k > MaxK || pos > len(seq)-k {
		return 0, false
	}
	var key uint64
	for i := 0; i < k; i++ {
		r := seq[pos+i]
		if r >= bio.NumStandard {
			return 0, false
		}
		key = key*bio.NumStandard + uint64(r)
	}
	return key, true
}

// UnpackKmer inverts PackKmer, returning the k residue codes of key.
func UnpackKmer(key uint64, k int) []uint8 {
	res := make([]uint8, k)
	for i := k - 1; i >= 0; i-- {
		res[i] = uint8(key % bio.NumStandard)
		key /= bio.NumStandard
	}
	return res
}

// maxKey returns the exclusive upper bound of packed keys at length k.
func maxKey(k int) uint64 {
	key := uint64(1)
	for i := 0; i < k; i++ {
		key *= bio.NumStandard
	}
	return key
}

// PossibleKmers returns the size of the packed key space at length k
// (NumStandard^k) — the "of N possible" denominator inspection tools
// report distinct-k-mer counts against.
func PossibleKmers(k int) uint64 { return maxKey(k) }

// Build constructs the seed index of db with a two-pass counting
// build: a parallel counting pass over contiguous target shards, a
// CSR skeleton (canonical key order, prefix-summed offsets) derived
// from the merged counts, and a parallel fill pass that writes every
// posting directly into its final slot. No intermediate (key,
// posting) stream is ever materialized — peak transient memory is one
// count per distinct (shard, k-mer) pair instead of ~32 bytes per
// database residue, which is what lets the build scale to
// RAM-bounded (1e9-residue) databases.
//
// Shards cover contiguous ascending target ranges and each shard
// fills a precomputed contiguous slice of every posting list, so the
// index — every array Raw exposes — does not depend on
// Options.Workers.
func Build(db *bio.Database, opts Options) *Index {
	o := opts.normalized()
	if o.K < MinK || o.K > MaxK {
		panic(fmt.Sprintf("index: k=%d outside [%d, %d]", o.K, MinK, MaxK))
	}
	n := db.NumSeqs()
	workers := o.Workers
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	bound := func(w int) (int, int) { return n * w / workers, n * (w + 1) / workers }

	// Pass 1: count k-mer occurrences per shard. The per-shard maps
	// are kept — they become the fill pass's write cursors.
	counts := make([]map[uint64]uint32, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := bound(w)
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			counts[w] = countRange(db, lo, hi, o.K)
		}(w, lo, hi)
	}
	wg.Wait()

	// Skeleton: merge the shard counts (order-independent sums),
	// sort the distinct keys into canonical order, and prefix-sum the
	// capped counts into CSR offsets. A k-mer over the cap keeps its
	// raw count but stores no postings — truncating would bias
	// seeding toward low-numbered targets.
	total := make(map[uint64]uint32)
	for _, m := range counts {
		for key, c := range m {
			total[key] += c
		}
	}
	ix := &Index{
		k:           o.K,
		maxPostings: o.MaxPostings,
		numTargets:  n,
		totalRes:    db.TotalResidues(),
		keys:        make([]uint64, 0, len(total)),
	}
	for key := range total {
		ix.keys = append(ix.keys, key)
	}
	sort.Slice(ix.keys, func(i, j int) bool { return ix.keys[i] < ix.keys[j] })
	ix.raw = make([]uint32, len(ix.keys))
	ix.offs = make([]int64, 1, len(ix.keys)+1)
	stored := int64(0)
	for e, key := range ix.keys {
		c := total[key]
		ix.raw[e] = c
		if o.MaxPostings < 0 || int(c) <= o.MaxPostings {
			stored += int64(c)
		}
		ix.offs = append(ix.offs, stored)
	}
	ix.buildTable()

	// Fill cursors: shard w's slice of entry e's posting list starts
	// after the slots of shards 0..w-1 (their targets all precede
	// w's), which reproduces exactly the (target, pos) order of a
	// single-shard build.
	next := make([]int64, len(ix.keys))
	starts := make([]map[uint64]int64, workers)
	for w := 0; w < workers; w++ {
		s := make(map[uint64]int64, len(counts[w]))
		for key, c := range counts[w] {
			e := ix.entryIndex(key)
			if ix.offs[e+1] == ix.offs[e] {
				continue // capped: nothing stored
			}
			s[key] = ix.offs[e] + next[e]
			next[e] += int64(c)
		}
		starts[w] = s
	}

	// Pass 2: re-scan each shard in (target, pos) order and write
	// postings in place. Shards write disjoint slots, so the fill is
	// embarrassingly parallel.
	ix.postings = make([]Posting, stored)
	for w := 0; w < workers; w++ {
		lo, hi := bound(w)
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fillRange(ix.postings, starts[w], db, lo, hi, o.K)
		}(w, lo, hi)
	}
	wg.Wait()
	return ix
}

// countRange tallies the packable k-mers of targets [lo, hi).
func countRange(db *bio.Database, lo, hi, k int) map[uint64]uint32 {
	m := make(map[uint64]uint32)
	for t := lo; t < hi; t++ {
		res := db.Seqs[t].Residues
		for i := 0; i+k <= len(res); i++ {
			if key, ok := PackKmer(res, i, k); ok {
				m[key]++
			}
		}
	}
	return m
}

// fillRange writes the postings of targets [lo, hi) into their
// precomputed slots, advancing the shard's write cursors in place.
func fillRange(postings []Posting, starts map[uint64]int64, db *bio.Database, lo, hi, k int) {
	for t := lo; t < hi; t++ {
		res := db.Seqs[t].Residues
		for i := 0; i+k <= len(res); i++ {
			key, ok := PackKmer(res, i, k)
			if !ok {
				continue
			}
			slot, ok := starts[key]
			if !ok {
				continue // capped list
			}
			postings[slot] = Posting{Target: int32(t), Pos: int32(i)}
			starts[key] = slot + 1
		}
	}
}

// buildTable sizes and fills the open-addressed probe table at load
// factor <= 0.5. Insertion order is the canonical entry order, so the
// table layout is deterministic too.
func (ix *Index) buildTable() {
	size := 8
	for size < 2*len(ix.keys) {
		size <<= 1
	}
	ix.table = make([]int32, size)
	ix.mask = uint64(size - 1)
	for e, key := range ix.keys {
		h := probeStart(key) & ix.mask
		for ix.table[h] != 0 {
			h = (h + 1) & ix.mask
		}
		ix.table[h] = int32(e) + 1
	}
}

// probeStart is Fibonacci hashing: one multiply spreads packed keys
// (which cluster in low bits for composition-biased sequences) across
// the table.
func probeStart(key uint64) uint64 {
	return (key * 0x9E3779B97F4A7C15) >> 17
}

// entryIndex resolves a packed key to its canonical entry index, -1
// when the k-mer is not in the index.
func (ix *Index) entryIndex(key uint64) int {
	if len(ix.table) == 0 {
		return -1
	}
	h := probeStart(key) & ix.mask
	for {
		s := ix.table[h]
		if s == 0 {
			return -1
		}
		if e := int(s) - 1; ix.keys[e] == key {
			return e
		}
		h = (h + 1) & ix.mask
	}
}

// Lookup returns the posting list of the packed k-mer key, nil when
// the k-mer is absent or its list was dropped by the cap. The slice
// aliases the index; callers must not modify it.
func (ix *Index) Lookup(key uint64) []Posting {
	e := ix.entryIndex(key)
	if e < 0 {
		return nil
	}
	return ix.postings[ix.offs[e]:ix.offs[e+1]]
}

// K returns the index's k-mer length.
func (ix *Index) K() int { return ix.k }

// ForEachEntry visits every indexed k-mer in canonical (ascending
// key) order with its raw occurrence count and stored posting count.
// Inspection tooling walks the index through this instead of private
// state.
func (ix *Index) ForEachEntry(visit func(key uint64, raw, stored int)) {
	for e, key := range ix.keys {
		visit(key, int(ix.raw[e]), int(ix.offs[e+1]-ix.offs[e]))
	}
}

// NumTargets returns the number of database sequences indexed.
func (ix *Index) NumTargets() int { return ix.numTargets }

// ErrDBMismatch reports that an index was built over a different
// database than the one it is being searched with.
var ErrDBMismatch = fmt.Errorf("index: index does not match this database")

// Validate checks the index's database fingerprint (sequence count
// and total residues) against db. It catches loading an index built
// for another database — the searches would silently return garbage
// candidate sets otherwise.
func (ix *Index) Validate(db *bio.Database) error {
	if ix.numTargets != db.NumSeqs() || ix.totalRes != db.TotalResidues() {
		return fmt.Errorf("%w: index fingerprint %d seqs/%d residues, database %d seqs/%d residues",
			ErrDBMismatch, ix.numTargets, ix.totalRes, db.NumSeqs(), db.TotalResidues())
	}
	return nil
}

// Stats summarizes an index for inspection and benchmarking.
type Stats struct {
	K              int
	MaxPostings    int // cap in force; < 0 means uncapped
	DistinctKmers  int
	Postings       int   // stored (post-cap) postings
	RawPostings    int64 // pre-cap k-mer occurrences
	CappedKmers    int   // k-mers whose lists the cap dropped
	FootprintBytes int64
}

// Stats computes the index's summary statistics.
func (ix *Index) Stats() Stats {
	st := Stats{
		K:             ix.k,
		MaxPostings:   ix.maxPostings,
		DistinctKmers: len(ix.keys),
		Postings:      len(ix.postings),
	}
	for e, r := range ix.raw {
		st.RawPostings += int64(r)
		if ix.offs[e+1] == ix.offs[e] && r > 0 && ix.maxPostings >= 0 && int(r) > ix.maxPostings {
			st.CappedKmers++
		}
	}
	st.FootprintBytes = int64(len(ix.keys))*8 + int64(len(ix.raw))*4 +
		int64(len(ix.offs))*8 + int64(len(ix.postings))*8 + int64(len(ix.table))*4
	return st
}
