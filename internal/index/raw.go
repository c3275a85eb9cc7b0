package index

import (
	"errors"
	"fmt"
)

// Sentinel errors FromRaw reports, so the container handing it slices
// can tell absurd geometry from internally inconsistent arrays.
var (
	ErrImplausible = errors.New("index: implausible seed-index geometry")
	ErrCorrupt     = errors.New("index: corrupt seed-index arrays")
)

// maxIndexEntries bounds the entry count: the probe table encodes
// entry indexes as int32, and 2^31 distinct k-mers exceeds the whole
// k<=7 key space, so anything above it is corruption, not an index.
const maxIndexEntries = 1<<31 - 1

// Raw is the index's complete structural state with the field layout
// exposed, the bridge internal/snapshot serializes through: a snapshot
// section per slice lets a mmap-backed load reconstruct the index as
// five slice headers over the mapped file instead of re-reading (or
// worse, rebuilding) anything. The slices alias the index that
// produced them — treat a Raw as read-only.
type Raw struct {
	K           int
	MaxPostings int // cap the build applied; < 0 means uncapped
	NumTargets  int
	TotalRes    int

	Keys     []uint64 // distinct k-mers, strictly ascending
	RawCount []uint32 // pre-cap occurrence count per entry
	Offs     []int64  // CSR offsets; len(Keys)+1, Offs[0] == 0
	Postings []Posting
	Table    []int32 // probe table (entry index + 1, 0 = empty); nil = rebuild
}

// Raw exposes the index's structural state for serialization. The
// returned slices alias the index.
func (ix *Index) Raw() Raw {
	return Raw{
		K:           ix.k,
		MaxPostings: ix.maxPostings,
		NumTargets:  ix.numTargets,
		TotalRes:    ix.totalRes,
		Keys:        ix.keys,
		RawCount:    ix.raw,
		Offs:        ix.offs,
		Postings:    ix.postings,
		Table:       ix.table,
	}
}

// FromRaw reassembles an Index around r's slices without copying them.
// It re-checks the cheap structural invariants (geometry, canonical
// key order, CSR monotonicity, probe-table shape) so a corrupt
// container surfaces ErrCorrupt here instead of a garbage index;
// per-posting range checks are the container's job (snapshot sections
// carry checksums), because touching every posting page on load would
// defeat the mmap page-cache win. A nil or
// wrong-shape Table is rebuilt from the canonical entry order.
func FromRaw(r Raw) (*Index, error) {
	if r.K < MinK || r.K > MaxK {
		return nil, fmt.Errorf("%w: k=%d outside [%d, %d]", ErrImplausible, r.K, MinK, MaxK)
	}
	if r.NumTargets < 0 || r.TotalRes < 0 {
		return nil, fmt.Errorf("%w: %d targets / %d residues", ErrImplausible, r.NumTargets, r.TotalRes)
	}
	if len(r.Keys) > maxIndexEntries {
		return nil, fmt.Errorf("%w: %d entries", ErrImplausible, len(r.Keys))
	}
	if uint64(len(r.Keys)) > maxKey(r.K) {
		return nil, fmt.Errorf("%w: %d entries exceed the %d possible %d-mers", ErrImplausible, len(r.Keys), maxKey(r.K), r.K)
	}
	if len(r.RawCount) != len(r.Keys) {
		return nil, fmt.Errorf("%w: %d raw counts for %d entries", ErrCorrupt, len(r.RawCount), len(r.Keys))
	}
	if len(r.Offs) != len(r.Keys)+1 {
		return nil, fmt.Errorf("%w: %d CSR offsets for %d entries", ErrCorrupt, len(r.Offs), len(r.Keys))
	}
	if len(r.Offs) > 0 {
		if r.Offs[0] != 0 {
			return nil, fmt.Errorf("%w: CSR offsets start at %d, want 0", ErrCorrupt, r.Offs[0])
		}
		if last := r.Offs[len(r.Offs)-1]; last != int64(len(r.Postings)) {
			return nil, fmt.Errorf("%w: CSR offsets end at %d, want %d postings", ErrCorrupt, last, len(r.Postings))
		}
	}
	for e := 1; e < len(r.Keys); e++ {
		if r.Keys[e] <= r.Keys[e-1] {
			return nil, fmt.Errorf("%w: entry %d key %d out of canonical order", ErrCorrupt, e, r.Keys[e])
		}
	}
	for e := 1; e < len(r.Offs); e++ {
		if r.Offs[e] < r.Offs[e-1] {
			return nil, fmt.Errorf("%w: CSR offset %d decreases", ErrCorrupt, e)
		}
		if uint32(r.Offs[e]-r.Offs[e-1]) > r.RawCount[e-1] {
			return nil, fmt.Errorf("%w: entry %d stores %d of %d postings", ErrCorrupt, e-1, r.Offs[e]-r.Offs[e-1], r.RawCount[e-1])
		}
	}
	// Keys are strictly ascending (checked above), so bounding the last
	// one bounds them all.
	if n := len(r.Keys); n > 0 && r.Keys[n-1] >= maxKey(r.K) {
		return nil, fmt.Errorf("%w: key %d is not a packed %d-mer", ErrCorrupt, r.Keys[n-1], r.K)
	}
	ix := &Index{
		k:           r.K,
		maxPostings: r.MaxPostings,
		numTargets:  r.NumTargets,
		totalRes:    r.TotalRes,
		keys:        r.Keys,
		raw:         r.RawCount,
		offs:        r.Offs,
		postings:    r.Postings,
	}
	if tableUsable(r.Table, len(r.Keys)) {
		ix.table = r.Table
		ix.mask = uint64(len(r.Table) - 1)
	} else {
		ix.buildTable()
	}
	return ix, nil
}

// tableUsable reports whether a stored probe table has the shape
// buildTable would produce: a power-of-two length at load factor
// <= 0.5. Content is trusted (the container checksums it); a bad shape
// just falls back to the deterministic rebuild.
func tableUsable(table []int32, entries int) bool {
	n := len(table)
	if n < 8 || n&(n-1) != 0 || n < 2*entries {
		return false
	}
	return true
}
