package index

import (
	"errors"
	"slices"
	"strings"
	"testing"
)

// cloneRaw deep-copies r so a test can mutate one field without
// touching the index that produced it (Raw slices alias their index).
func cloneRaw(r Raw) Raw {
	r.Keys = slices.Clone(r.Keys)
	r.RawCount = slices.Clone(r.RawCount)
	r.Offs = slices.Clone(r.Offs)
	r.Postings = slices.Clone(r.Postings)
	r.Table = slices.Clone(r.Table)
	return r
}

// FromRaw is the only gate between a container's bytes and a served
// index, so each structural check gets a mutant that trips exactly it:
// a valid Raw with one field broken must surface the named sentinel
// (and the named check — the detail substring pins which one fired).
func TestFromRawRejects(t *testing.T) {
	db := testDB(t, 25, 4)
	valid := Build(db, Options{K: 4, MaxPostings: -1}).Raw()
	if len(valid.Keys) <= int(maxKey(2)) {
		t.Fatalf("fixture too small: %d entries", len(valid.Keys))
	}
	mid := len(valid.Keys) / 2

	cases := []struct {
		name   string
		mutate func(r *Raw)
		want   error
		detail string
	}{
		{"k below range", func(r *Raw) { r.K = MinK - 1 }, ErrImplausible, "k=1 outside"},
		{"k above range", func(r *Raw) { r.K = MaxK + 1 }, ErrImplausible, "k=14 outside"},
		{"negative targets", func(r *Raw) { r.NumTargets = -1 }, ErrImplausible, "targets"},
		{"more entries than k-mers exist", func(r *Raw) { r.K = 2 }, ErrImplausible, "possible 2-mers"},
		{"raw count length", func(r *Raw) { r.RawCount = r.RawCount[:len(r.RawCount)-1] }, ErrCorrupt, "raw counts"},
		{"offsets length", func(r *Raw) { r.Offs = r.Offs[:len(r.Offs)-1] }, ErrCorrupt, "CSR offsets for"},
		{"offsets start", func(r *Raw) { r.Offs[0] = 1 }, ErrCorrupt, "start at 1"},
		{"offsets end", func(r *Raw) { r.Postings = r.Postings[:len(r.Postings)-1] }, ErrCorrupt, "CSR offsets end"},
		{"non-ascending key", func(r *Raw) { r.Keys[mid], r.Keys[mid+1] = r.Keys[mid+1], r.Keys[mid] }, ErrCorrupt, "canonical order"},
		{"key outside the key space", func(r *Raw) { r.Keys[len(r.Keys)-1] = maxKey(r.K) }, ErrCorrupt, "not a packed 4-mer"},
		{"decreasing offset", func(r *Raw) { r.Offs[mid] = r.Offs[mid-1] - 1 }, ErrCorrupt, "decreases"},
		{"stored above raw", func(r *Raw) { r.RawCount[mid] = 0 }, ErrCorrupt, "stores"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := cloneRaw(valid)
			tc.mutate(&r)
			_, err := FromRaw(r)
			if !errors.Is(err, tc.want) {
				t.Fatalf("want %v, got %v", tc.want, err)
			}
			if !strings.Contains(err.Error(), tc.detail) {
				t.Fatalf("wrong check fired: %q lacks %q", err, tc.detail)
			}
		})
	}
}

// A probe table FromRaw cannot use (absent, not a power of two, over
// load factor 0.5) is rebuilt rather than rejected, and the rebuilt
// index answers every lookup exactly as the original does.
func TestFromRawRebuildsUnusableTable(t *testing.T) {
	db := testDB(t, 25, 4)
	orig := Build(db, Options{K: 4, MaxPostings: 16})
	valid := orig.Raw()

	tables := map[string][]int32{
		"stored":           valid.Table,
		"absent":           nil,
		"not a power of 2": make([]int32, len(valid.Table)-1),
		"overloaded":       make([]int32, 8),
	}
	for name, table := range tables {
		t.Run(name, func(t *testing.T) {
			r := cloneRaw(valid)
			r.Table = table
			ix, err := FromRaw(r)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(ix.Raw().Table, valid.Table) {
				t.Fatal("probe table differs from the canonical build's")
			}
			// Every indexed key, plus the last key of the space (a probe
			// that usually runs to an empty slot).
			for _, key := range append(slices.Clone(valid.Keys), maxKey(4)-1) {
				if !slices.Equal(ix.Lookup(key), orig.Lookup(key)) {
					t.Fatalf("key %d: lookup differs after reload", key)
				}
			}
		})
	}
}
