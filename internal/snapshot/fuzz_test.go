package snapshot

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/index"
)

// FuzzReadSnapshot throws mutated containers at Open: whatever the
// bytes, the answer must be a sentinel error or a well-formed
// Snapshot — never a panic. The seed corpus covers the interesting
// prefixes: a valid container, truncations at every structural
// boundary, bad magic, a wrong version, and a checksum-clean container
// whose index arrays break the canonical key order.
func FuzzReadSnapshot(f *testing.F) {
	db := testDB(f, 12)
	ix := index.Build(db, index.Options{})
	dir := f.TempDir()
	path := filepath.Join(dir, "seed.seqsnap")
	if _, err := Write(path, db, ix, Manifest{Version: "fuzz"}); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}

	f.Add(valid)
	f.Add(valid[:0])
	f.Add(valid[:7])
	f.Add(valid[:headerSize])
	f.Add(valid[:pageSize])
	f.Add(valid[:pageSize+10])
	f.Add(valid[:len(valid)/2])
	badMagic := append([]byte(nil), valid...)
	badMagic[0] = 'X'
	f.Add(badMagic)
	badVer := append([]byte(nil), valid...)
	badVer[9] = '9'
	f.Add(badVer)
	f.Add(swapIdxKeys(f, append([]byte(nil), valid...)))

	f.Fuzz(func(t *testing.T, data []byte) {
		// openBytes is Open minus the mmap plumbing — fuzzing it
		// directly keeps the per-exec cost at parsing, not file I/O.
		s, err := openBytes(data, false, OpenOptions{Verify: true})
		if err != nil {
			return
		}
		// A container that opens must be internally consistent enough
		// to walk.
		if s.DB.NumSeqs() != s.Manifest.NumSeqs {
			t.Fatalf("opened snapshot disagrees with its manifest: %d vs %d", s.DB.NumSeqs(), s.Manifest.NumSeqs)
		}
		_ = s.Index.Stats()
		s.Close()
	})
}
