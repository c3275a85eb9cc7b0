package snapshot

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/bio"
	"repro/internal/index"
)

func testDB(t testing.TB, n int) *bio.Database {
	t.Helper()
	spec := bio.DefaultDBSpec(n)
	return bio.SyntheticDB(spec)
}

func writeTestSnapshot(t testing.TB, n int, version string) (string, *bio.Database, *index.Index) {
	t.Helper()
	db := testDB(t, n)
	ix := index.Build(db, index.Options{})
	path := filepath.Join(t.TempDir(), "db.seqsnap")
	if _, err := Write(path, db, ix, Manifest{Version: version, Tool: "test"}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return path, db, ix
}

// sameIndex compares two indexes entry by entry and posting list by
// posting list — the loaded index must be bit-identical in behavior to
// the one that was packed.
func sameIndex(t *testing.T, want, got *index.Index) {
	t.Helper()
	if !reflect.DeepEqual(want.Stats(), got.Stats()) {
		t.Fatalf("stats differ:\n want %+v\n  got %+v", want.Stats(), got.Stats())
	}
	want.ForEachEntry(func(key uint64, raw, stored int) {
		wl := want.Lookup(key)
		gl := got.Lookup(key)
		if !reflect.DeepEqual(wl, gl) {
			t.Fatalf("posting list for key %d differs: want %v, got %v", key, wl, gl)
		}
	})
}

func TestRoundTrip(t *testing.T) {
	path, db, ix := writeTestSnapshot(t, 120, "v1")
	s, err := Open(path, OpenOptions{Verify: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()

	if s.Manifest.Version != "v1" || s.Manifest.Tool != "test" {
		t.Fatalf("manifest identity lost: %+v", s.Manifest)
	}
	if s.Manifest.NumSeqs != db.NumSeqs() || s.Manifest.TotalResidues != db.TotalResidues() {
		t.Fatalf("manifest fingerprint %d/%d, db %d/%d", s.Manifest.NumSeqs, s.Manifest.TotalResidues, db.NumSeqs(), db.TotalResidues())
	}
	if s.Manifest.DBHash != DBHash(db) {
		t.Fatalf("manifest hash %s, recomputed %s", s.Manifest.DBHash, DBHash(db))
	}
	if s.DB.NumSeqs() != db.NumSeqs() || s.DB.TotalResidues() != db.TotalResidues() {
		t.Fatalf("db shape: got %d/%d, want %d/%d", s.DB.NumSeqs(), s.DB.TotalResidues(), db.NumSeqs(), db.TotalResidues())
	}
	for i, want := range db.Seqs {
		got := s.DB.Seqs[i]
		if got.ID != want.ID || got.Desc != want.Desc || !reflect.DeepEqual(got.Residues, want.Residues) {
			t.Fatalf("sequence %d differs", i)
		}
	}
	sameIndex(t, ix, s.Index)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestReadManifest(t *testing.T) {
	path, db, _ := writeTestSnapshot(t, 30, "v7")
	m, err := ReadManifest(path)
	if err != nil {
		t.Fatalf("ReadManifest: %v", err)
	}
	if m.Version != "v7" || m.NumSeqs != db.NumSeqs() || m.DBHash != DBHash(db) {
		t.Fatalf("manifest: %+v", m)
	}
}

func TestWriteRefusesMismatchedPair(t *testing.T) {
	db := testDB(t, 30)
	other := testDB(t, 31)
	ix := index.Build(other, index.Options{})
	if _, err := Write(filepath.Join(t.TempDir(), "x.seqsnap"), db, ix, Manifest{Version: "v1"}); err == nil {
		t.Fatal("Write accepted an index built over a different database")
	}
}

// findSection returns the named section of container b and its index
// in the section table.
func findSection(t testing.TB, b []byte, name string) (int, section) {
	t.Helper()
	toc, _, err := parseHeader(b, uint64(len(b)))
	if err != nil {
		t.Fatal(err)
	}
	for i, sec := range toc {
		if sec.name == name {
			return i, sec
		}
	}
	t.Fatalf("no %s section", name)
	return 0, section{}
}

// swapIdxKeys breaks the index's canonical key order by exchanging the
// first two keys, and re-stamps the section checksum so the mutant gets
// past every checksum sweep: only the structural re-check can stop it.
func swapIdxKeys(t testing.TB, b []byte) []byte {
	t.Helper()
	i, sec := findSection(t, b, secIdxKeys)
	keys := b[sec.offset : sec.offset+sec.length]
	if len(keys) < 16 {
		t.Fatalf("idxkeys holds %d bytes, need two keys", len(keys))
	}
	var first [8]byte
	copy(first[:], keys[:8])
	copy(keys[:8], keys[8:16])
	copy(keys[8:16], first[:])
	binary.LittleEndian.PutUint64(b[headerSize+i*sectionRecSize+32:], checksum(keys))
	return b
}

func TestOpenFailureTaxonomy(t *testing.T) {
	path, _, _ := writeTestSnapshot(t, 40, "v1")
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	openMutant := func(t *testing.T, mutate func([]byte) []byte, verify bool) error {
		t.Helper()
		p := filepath.Join(t.TempDir(), "mut.seqsnap")
		if err := os.WriteFile(p, mutate(append([]byte(nil), good...)), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(p, OpenOptions{Verify: verify})
		if err == nil {
			s.Close()
		}
		return err
	}

	t.Run("bad magic", func(t *testing.T) {
		err := openMutant(t, func(b []byte) []byte { b[0] = 'X'; return b }, false)
		if !errors.Is(err, ErrBadMagic) {
			t.Fatalf("want ErrBadMagic, got %v", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		err := openMutant(t, func(b []byte) []byte { b[8] = '9'; return b }, false)
		if !errors.Is(err, ErrBadVersion) {
			t.Fatalf("want ErrBadVersion, got %v", err)
		}
	})
	t.Run("truncated header", func(t *testing.T) {
		err := openMutant(t, func(b []byte) []byte { return b[:100] }, false)
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("want ErrTruncated, got %v", err)
		}
	})
	t.Run("truncated body", func(t *testing.T) {
		err := openMutant(t, func(b []byte) []byte { return b[:len(b)-pageSize] }, false)
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("want ErrTruncated, got %v", err)
		}
	})
	t.Run("manifest bitflip", func(t *testing.T) {
		err := openMutant(t, func(b []byte) []byte { b[pageSize] ^= 0x40; return b }, false)
		if !errors.Is(err, ErrChecksum) {
			t.Fatalf("want ErrChecksum, got %v", err)
		}
	})
	t.Run("bulk bitflip caught under Verify", func(t *testing.T) {
		_, res := findSection(t, good, secResidues)
		err := openMutant(t, func(b []byte) []byte { b[res.offset] ^= 0x01; return b }, true)
		if !errors.Is(err, ErrChecksum) {
			t.Fatalf("Verify missed a bulk bit flip: %v", err)
		}
	})
	// Every prebuilt index reaches serving through this path: with the
	// checksums satisfied, index.FromRaw's structural re-check is what
	// stands between reordered keys and a served index.
	t.Run("index keys out of canonical order", func(t *testing.T) {
		err := openMutant(t, func(b []byte) []byte { return swapIdxKeys(t, b) }, false)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("want ErrCorrupt, got %v", err)
		}
	})
}

func TestOpenEmptyFile(t *testing.T) {
	p := filepath.Join(t.TempDir(), "empty.seqsnap")
	if err := os.WriteFile(p, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(p, OpenOptions{}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("want ErrTruncated, got %v", err)
	}
}
