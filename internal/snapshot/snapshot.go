// Package snapshot packages a database and its seed index into one
// immutable, versioned, mmap-able artifact — the SEQSNAP/01 container
// — so a serving process loads (or hot-reloads) its data as a
// page-cache hit instead of an in-process rebuild. The container is a
// fixed header page, a section table, and page-aligned sections: the
// packed residue blob and the index's CSR arrays (keys, counts,
// offsets, postings, probe table) are stored in their in-memory layout
// and come back as slice headers over the mapped file — zero copies,
// zero rebuild, and the kernel pages them in lazily as searches touch
// them.
//
// Every section carries an FNV-1a checksum in the table; Open always
// verifies the metadata sections and re-checks the index's structural
// invariants (via index.FromRaw), while OpenOptions.Verify extends the
// checksum sweep to the bulk sections for offline `indexbuild snapshot
// -verify`. The manifest records the operator-facing version label,
// the database fingerprint (sequence count, residue count, content
// hash), and the index build parameters, which is what the serving
// layer stamps into /statsz, /metrics, and response envelopes as
// snapshot_version.
//
// The failure taxonomy tells apart garbage (ErrBadMagic), old formats
// (ErrBadVersion), short files (ErrTruncated), absurd headers
// (ErrImplausible), internal inconsistencies (ErrCorrupt), and
// checksum mismatches (ErrChecksum).
//
// Bulk sections are stored in native byte order — the zero-copy cast
// is the point — so a container is not portable across endianness;
// the header and metadata sections are little-endian, and Open on a
// mismatched host fails the structural checks rather than serving
// byte-swapped data.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"
	"unsafe"

	"repro/internal/bio"
	"repro/internal/index"
)

// Container geometry. Sections start on page boundaries so mmap-backed
// slices of uint64/int64 are always 8-byte aligned and so the bulk
// blobs fault in on their own pages, untouched until a search needs
// them.
const (
	pageSize       = 4096
	headerSize     = 24 // magic+version+counts, before the section table
	sectionRecSize = 40 // name[16] + offset + length + checksum
	maxSections    = (pageSize - headerSize) / sectionRecSize
)

var (
	snapMagic   = [7]byte{'S', 'E', 'Q', 'S', 'N', 'A', 'P'}
	snapVersion = [2]byte{'0', '1'}
)

// Section names. Required unless noted.
const (
	secManifest = "manifest" // JSON Manifest
	secSeqMeta  = "seqmeta"  // per-sequence id/desc/length records
	secResidues = "residues" // concatenated residue codes, zero-copy
	secIdxMeta  = "idxmeta"  // index geometry header
	secIdxKeys  = "idxkeys"  // []uint64, zero-copy
	secIdxRaw   = "idxraw"   // []uint32, zero-copy
	secIdxOffs  = "idxoffs"  // []int64, zero-copy
	secIdxPost  = "idxpost"  // []index.Posting, zero-copy
	secIdxTable = "idxtable" // []int32 probe table, zero-copy (optional)
)

// Sentinel errors for the container's failure modes.
var (
	ErrBadMagic    = errors.New("snapshot: not a SEQSNAP file (bad magic)")
	ErrBadVersion  = errors.New("snapshot: unsupported SEQSNAP version")
	ErrTruncated   = errors.New("snapshot: truncated SEQSNAP file")
	ErrImplausible = errors.New("snapshot: implausible SEQSNAP header")
	ErrCorrupt     = errors.New("snapshot: corrupt SEQSNAP file")
	ErrChecksum    = errors.New("snapshot: SEQSNAP section checksum mismatch")
)

func init() {
	// The idxpost section is a native-layout cast of []index.Posting;
	// a layout change there is a format change here.
	if unsafe.Sizeof(index.Posting{}) != 8 {
		panic("snapshot: index.Posting layout changed; bump the SEQSNAP version")
	}
}

// Manifest identifies a snapshot: the operator-facing version label,
// the database fingerprint, and the index build parameters. It is
// stored as JSON in its own section and is what `indexbuild snapshot
// -inspect` prints and the serving layer reports.
type Manifest struct {
	Version       string `json:"version"`        // operator label, e.g. "v2026-08-08"
	CreatedUnix   int64  `json:"created_unix"`   // build time, seconds
	Tool          string `json:"tool,omitempty"` // what wrote it
	NumSeqs       int    `json:"num_seqs"`
	TotalResidues int    `json:"total_residues"`
	DBHash        string `json:"db_hash"` // FNV-1a over ids/descs/residues, hex
	K             int    `json:"k"`
	MaxPostings   int    `json:"max_postings"`
	DistinctKmers int    `json:"distinct_kmers"`
	Postings      int    `json:"postings"`
}

// DBHash fingerprints a database's content: FNV-1a over every
// sequence's id, description, and residues (each length-prefixed so
// record boundaries can't alias).
func DBHash(db *bio.Database) string {
	h := fnv.New64a()
	var n [8]byte
	put := func(b []byte) {
		binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	for _, s := range db.Seqs {
		put([]byte(s.ID))
		put([]byte(s.Desc))
		put(s.Residues)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Snapshot is an open container: the reconstructed database and index,
// both potentially backed by the mapped file. Close unmaps; the caller
// owns the ordering guarantee that nothing dereferences DB or Index
// afterward (the server's epoch refcount is that guarantee).
type Snapshot struct {
	Manifest Manifest
	DB       *bio.Database
	Index    *index.Index

	data      []byte
	mapped    bool
	closeOnce sync.Once
	closeErr  error
}

// Mapped reports whether the snapshot is mmap-backed (as opposed to
// read into process memory on a platform without mmap support).
func (s *Snapshot) Mapped() bool { return s.mapped }

// SizeBytes returns the container's total size.
func (s *Snapshot) SizeBytes() int64 { return int64(len(s.data)) }

// Close releases the mapping. Idempotent. After Close the Snapshot's
// DB and Index must not be used: their bulk slices alias the mapping.
func (s *Snapshot) Close() error {
	s.closeOnce.Do(func() {
		if s.mapped {
			s.closeErr = unmapFile(s.data)
		}
		s.data = nil
	})
	return s.closeErr
}

// OpenOptions tunes Open.
type OpenOptions struct {
	// Verify extends checksum verification to the bulk sections
	// (residues, postings, keys, offsets, probe table). The default
	// checks only the metadata sections so a load stays lazy — bulk
	// pages fault in on first use instead of being read front to back.
	Verify bool
}

// section is one parsed entry of the container's section table.
type section struct {
	name   string
	offset uint64
	length uint64
	sum    uint64
}

// Write builds a SEQSNAP/01 container for db and its index ix and
// writes it to path atomically (temp file + rename). The manifest's
// Version and Tool are taken from m; every other field is computed.
// The completed manifest is returned.
func Write(path string, db *bio.Database, ix *index.Index, m Manifest) (Manifest, error) {
	if db == nil || ix == nil {
		return Manifest{}, fmt.Errorf("snapshot: Write needs a database and an index")
	}
	if err := ix.Validate(db); err != nil {
		return Manifest{}, fmt.Errorf("snapshot: refusing to pack a mismatched pair: %w", err)
	}
	raw := ix.Raw()
	st := ix.Stats()
	m.NumSeqs = db.NumSeqs()
	m.TotalResidues = db.TotalResidues()
	m.DBHash = DBHash(db)
	m.K = st.K
	m.MaxPostings = st.MaxPostings
	m.DistinctKmers = st.DistinctKmers
	m.Postings = st.Postings
	if m.CreatedUnix == 0 {
		m.CreatedUnix = time.Now().Unix()
	}
	manifestJSON, err := json.Marshal(m)
	if err != nil {
		return Manifest{}, fmt.Errorf("snapshot: encoding manifest: %w", err)
	}

	// Assemble the sections. Metadata sections are built in buffers;
	// bulk sections are native-layout byte views of the live slices.
	seqMeta := encodeSeqMeta(db)
	residues := make([]byte, 0, db.TotalResidues())
	for _, s := range db.Seqs {
		residues = append(residues, s.Residues...)
	}
	sections := []struct {
		name string
		data []byte
	}{
		{secManifest, manifestJSON},
		{secSeqMeta, seqMeta},
		{secResidues, residues},
		{secIdxMeta, encodeIdxMeta(raw)},
		{secIdxKeys, u64Bytes(raw.Keys)},
		{secIdxRaw, u32Bytes(raw.RawCount)},
		{secIdxOffs, i64Bytes(raw.Offs)},
		{secIdxPost, postingBytes(raw.Postings)},
		{secIdxTable, i32Bytes(raw.Table)},
	}

	// Lay out the file: header page, then each section page-aligned.
	toc := make([]section, len(sections))
	off := uint64(pageSize)
	for i, s := range sections {
		h := fnv.New64a()
		h.Write(s.data)
		toc[i] = section{name: s.name, offset: off, length: uint64(len(s.data)), sum: h.Sum64()}
		off = pageAlign(off + uint64(len(s.data)))
	}
	fileSize := off

	hdr := make([]byte, pageSize)
	copy(hdr[0:7], snapMagic[:])
	copy(hdr[8:10], snapVersion[:])
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(sections)))
	binary.LittleEndian.PutUint64(hdr[16:], fileSize)
	for i, s := range toc {
		rec := hdr[headerSize+i*sectionRecSize:]
		copy(rec[0:16], s.name)
		binary.LittleEndian.PutUint64(rec[16:], s.offset)
		binary.LittleEndian.PutUint64(rec[24:], s.length)
		binary.LittleEndian.PutUint64(rec[32:], s.sum)
	}

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".seqsnap-*")
	if err != nil {
		return Manifest{}, fmt.Errorf("snapshot: %w", err)
	}
	defer os.Remove(tmp.Name())
	ok := false
	defer func() {
		if !ok {
			tmp.Close()
		}
	}()
	if _, err := tmp.Write(hdr); err != nil {
		return Manifest{}, fmt.Errorf("snapshot: writing header: %w", err)
	}
	pos := uint64(pageSize)
	var pad [pageSize]byte
	for i, s := range sections {
		if gap := toc[i].offset - pos; gap > 0 {
			if _, err := tmp.Write(pad[:gap]); err != nil {
				return Manifest{}, fmt.Errorf("snapshot: padding: %w", err)
			}
			pos += gap
		}
		if _, err := tmp.Write(s.data); err != nil {
			return Manifest{}, fmt.Errorf("snapshot: writing %s: %w", s.name, err)
		}
		pos += uint64(len(s.data))
	}
	if gap := fileSize - pos; gap > 0 {
		if _, err := tmp.Write(pad[:gap]); err != nil {
			return Manifest{}, fmt.Errorf("snapshot: padding: %w", err)
		}
	}
	if err := tmp.Sync(); err != nil {
		return Manifest{}, fmt.Errorf("snapshot: sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return Manifest{}, fmt.Errorf("snapshot: close: %w", err)
	}
	ok = true
	if err := os.Rename(tmp.Name(), path); err != nil {
		return Manifest{}, fmt.Errorf("snapshot: publishing %s: %w", path, err)
	}
	return m, nil
}

// Open maps (or, without mmap support, reads) the container at path
// and reconstructs its database and index. The bulk arrays alias the
// mapping — no copies, no rebuild; see OpenOptions for the checksum
// policy.
func Open(path string, opts OpenOptions) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	data, mapped, err := mapFile(f, fi.Size())
	if err != nil {
		return nil, err
	}
	if !mapped {
		data = make([]byte, fi.Size())
		if _, err := io.ReadFull(f, data); err != nil {
			return nil, fmt.Errorf("snapshot: reading %s: %w", path, err)
		}
	}
	s, err := openBytes(data, mapped, opts)
	if err != nil {
		if mapped {
			_ = unmapFile(data)
		}
		return nil, err
	}
	return s, nil
}

// ReadManifest reads just the header page and manifest section —
// enough for `indexbuild snapshot -inspect` and the reload admin
// endpoint to identify a container without mapping the bulk.
func ReadManifest(path string) (Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return Manifest{}, fmt.Errorf("snapshot: %w", err)
	}
	defer f.Close()
	hdr := make([]byte, pageSize)
	if _, err := io.ReadFull(f, hdr); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return Manifest{}, fmt.Errorf("%w: file shorter than the %d-byte header page", ErrTruncated, pageSize)
		}
		return Manifest{}, fmt.Errorf("snapshot: reading header: %w", err)
	}
	toc, _, err := parseHeader(hdr, 0)
	if err != nil {
		return Manifest{}, err
	}
	for _, sec := range toc {
		if sec.name != secManifest {
			continue
		}
		buf := make([]byte, sec.length)
		if _, err := f.ReadAt(buf, int64(sec.offset)); err != nil {
			return Manifest{}, fmt.Errorf("%w: manifest section unreadable: %v", ErrTruncated, err)
		}
		if checksum(buf) != sec.sum {
			return Manifest{}, fmt.Errorf("%w: manifest", ErrChecksum)
		}
		var m Manifest
		if err := json.Unmarshal(buf, &m); err != nil {
			return Manifest{}, fmt.Errorf("%w: manifest is not JSON: %v", ErrCorrupt, err)
		}
		return m, nil
	}
	return Manifest{}, fmt.Errorf("%w: no manifest section", ErrCorrupt)
}

// parseHeader validates the header page and returns the section table.
// fileSize 0 skips the size cross-check (ReadManifest's pread path).
func parseHeader(data []byte, fileSize uint64) ([]section, uint64, error) {
	if len(data) < pageSize {
		return nil, 0, fmt.Errorf("%w: %d bytes, header page is %d", ErrTruncated, len(data), pageSize)
	}
	if !bytes.Equal(data[0:7], snapMagic[:]) {
		return nil, 0, fmt.Errorf("%w: %q", ErrBadMagic, data[0:8])
	}
	if !bytes.Equal(data[8:10], snapVersion[:]) {
		return nil, 0, fmt.Errorf("%w %q (want %q)", ErrBadVersion, data[8:10], snapVersion[:])
	}
	numSections := binary.LittleEndian.Uint32(data[12:])
	declaredSize := binary.LittleEndian.Uint64(data[16:])
	if numSections == 0 || numSections > maxSections {
		return nil, 0, fmt.Errorf("%w: %d sections", ErrImplausible, numSections)
	}
	if fileSize != 0 && declaredSize != fileSize {
		return nil, 0, fmt.Errorf("%w: header declares %d bytes, file has %d", ErrTruncated, declaredSize, fileSize)
	}
	toc := make([]section, 0, numSections)
	seen := make(map[string]bool)
	for i := uint32(0); i < numSections; i++ {
		rec := data[headerSize+int(i)*sectionRecSize:]
		name := string(bytes.TrimRight(rec[0:16], "\x00"))
		sec := section{
			name:   name,
			offset: binary.LittleEndian.Uint64(rec[16:]),
			length: binary.LittleEndian.Uint64(rec[24:]),
			sum:    binary.LittleEndian.Uint64(rec[32:]),
		}
		if name == "" || seen[name] {
			return nil, 0, fmt.Errorf("%w: section %d has an empty or duplicate name", ErrCorrupt, i)
		}
		seen[name] = true
		if sec.offset%pageSize != 0 || sec.offset < pageSize {
			return nil, 0, fmt.Errorf("%w: section %s at unaligned offset %d", ErrCorrupt, name, sec.offset)
		}
		end := sec.offset + sec.length
		if end < sec.offset || (declaredSize != 0 && end > declaredSize) {
			return nil, 0, fmt.Errorf("%w: section %s spans [%d, %d) past the %d-byte file", ErrTruncated, name, sec.offset, end, declaredSize)
		}
		toc = append(toc, sec)
	}
	return toc, declaredSize, nil
}

// openBytes reconstructs a Snapshot over a container's full bytes.
func openBytes(data []byte, mapped bool, opts OpenOptions) (*Snapshot, error) {
	toc, _, err := parseHeader(data, uint64(len(data)))
	if err != nil {
		return nil, err
	}
	secs := make(map[string][]byte, len(toc))
	for _, sec := range toc {
		secs[sec.name] = data[sec.offset : sec.offset+sec.length]
	}
	// Metadata checksums are always verified; bulk sections only under
	// Verify, so the default load stays lazy.
	alwaysVerify := map[string]bool{secManifest: true, secSeqMeta: true, secIdxMeta: true}
	for _, sec := range toc {
		if !opts.Verify && !alwaysVerify[sec.name] {
			continue
		}
		if checksum(secs[sec.name]) != sec.sum {
			return nil, fmt.Errorf("%w: %s", ErrChecksum, sec.name)
		}
	}
	for _, name := range []string{secManifest, secSeqMeta, secResidues, secIdxMeta, secIdxKeys, secIdxRaw, secIdxOffs, secIdxPost} {
		if _, ok := secs[name]; !ok {
			return nil, fmt.Errorf("%w: missing section %s", ErrCorrupt, name)
		}
	}

	var m Manifest
	if err := json.Unmarshal(secs[secManifest], &m); err != nil {
		return nil, fmt.Errorf("%w: manifest is not JSON: %v", ErrCorrupt, err)
	}
	db, err := decodeSeqMeta(secs[secSeqMeta], secs[secResidues])
	if err != nil {
		return nil, err
	}
	if db.NumSeqs() != m.NumSeqs || db.TotalResidues() != m.TotalResidues {
		return nil, fmt.Errorf("%w: manifest declares %d seqs/%d residues, sections hold %d/%d",
			ErrCorrupt, m.NumSeqs, m.TotalResidues, db.NumSeqs(), db.TotalResidues())
	}
	if opts.Verify {
		if got := DBHash(db); got != m.DBHash {
			return nil, fmt.Errorf("%w: database content hash %s, manifest declares %s", ErrCorrupt, got, m.DBHash)
		}
	}
	raw, err := decodeIdxMeta(secs[secIdxMeta], secs)
	if err != nil {
		return nil, err
	}
	ix, err := index.FromRaw(raw)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if err := ix.Validate(db); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return &Snapshot{Manifest: m, DB: db, Index: ix, data: data, mapped: mapped}, nil
}

// encodeSeqMeta serializes the per-sequence metadata: a count, then
// one record per sequence (id length, desc length, residue length,
// id bytes, desc bytes). Residues themselves live in their own
// page-aligned section.
func encodeSeqMeta(db *bio.Database) []byte {
	var buf bytes.Buffer
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(db.NumSeqs()))
	buf.Write(n[:])
	var rec [12]byte
	for _, s := range db.Seqs {
		binary.LittleEndian.PutUint32(rec[0:], uint32(len(s.ID)))
		binary.LittleEndian.PutUint32(rec[4:], uint32(len(s.Desc)))
		binary.LittleEndian.PutUint32(rec[8:], uint32(len(s.Residues)))
		buf.Write(rec[:])
		buf.WriteString(s.ID)
		buf.WriteString(s.Desc)
	}
	return buf.Bytes()
}

// decodeSeqMeta rebuilds the database: ids and descriptions are copied
// into strings, residues are zero-copy subslices of the residue blob.
func decodeSeqMeta(meta, residues []byte) (*bio.Database, error) {
	if len(meta) < 8 {
		return nil, fmt.Errorf("%w: seqmeta shorter than its count", ErrTruncated)
	}
	numSeqs := binary.LittleEndian.Uint64(meta)
	if numSeqs > 1<<31 {
		return nil, fmt.Errorf("%w: %d sequences", ErrImplausible, numSeqs)
	}
	pos := 8
	resOff := 0
	seqs := make([]*bio.Sequence, 0, clampHint(numSeqs))
	for i := uint64(0); i < numSeqs; i++ {
		if len(meta)-pos < 12 {
			return nil, fmt.Errorf("%w: seqmeta ends inside record %d of %d", ErrTruncated, i, numSeqs)
		}
		idLen := int(binary.LittleEndian.Uint32(meta[pos:]))
		descLen := int(binary.LittleEndian.Uint32(meta[pos+4:]))
		resLen := int(binary.LittleEndian.Uint32(meta[pos+8:]))
		pos += 12
		if idLen < 0 || descLen < 0 || resLen < 0 || len(meta)-pos < idLen+descLen {
			return nil, fmt.Errorf("%w: seqmeta record %d overruns the section", ErrTruncated, i)
		}
		if resLen > len(residues)-resOff {
			return nil, fmt.Errorf("%w: sequence %d claims %d residues, %d remain in the blob", ErrCorrupt, i, resLen, len(residues)-resOff)
		}
		id := string(meta[pos : pos+idLen])
		desc := string(meta[pos+idLen : pos+idLen+descLen])
		pos += idLen + descLen
		seqs = append(seqs, &bio.Sequence{ID: id, Desc: desc, Residues: residues[resOff : resOff+resLen : resOff+resLen]})
		resOff += resLen
	}
	if resOff != len(residues) {
		return nil, fmt.Errorf("%w: sequences cover %d residues, blob holds %d", ErrCorrupt, resOff, len(residues))
	}
	return bio.NewDatabase(seqs), nil
}

// idxmeta geometry record: index.Raw's scalar fields and the length of
// each array section (entries, postings, probe table).
const idxMetaSize = 48

func encodeIdxMeta(r index.Raw) []byte {
	b := make([]byte, idxMetaSize)
	binary.LittleEndian.PutUint16(b[0:], uint16(r.K))
	binary.LittleEndian.PutUint32(b[4:], uint32(int32(r.MaxPostings)))
	binary.LittleEndian.PutUint64(b[8:], uint64(r.NumTargets))
	binary.LittleEndian.PutUint64(b[16:], uint64(r.TotalRes))
	binary.LittleEndian.PutUint64(b[24:], uint64(len(r.Keys)))
	binary.LittleEndian.PutUint64(b[32:], uint64(len(r.Postings)))
	binary.LittleEndian.PutUint64(b[40:], uint64(len(r.Table)))
	return b
}

func decodeIdxMeta(meta []byte, secs map[string][]byte) (index.Raw, error) {
	var r index.Raw
	if len(meta) != idxMetaSize {
		return r, fmt.Errorf("%w: idxmeta is %d bytes, want %d", ErrCorrupt, len(meta), idxMetaSize)
	}
	r.K = int(binary.LittleEndian.Uint16(meta[0:]))
	r.MaxPostings = int(int32(binary.LittleEndian.Uint32(meta[4:])))
	numTargets := binary.LittleEndian.Uint64(meta[8:])
	totalRes := binary.LittleEndian.Uint64(meta[16:])
	numEntries := binary.LittleEndian.Uint64(meta[24:])
	numPostings := binary.LittleEndian.Uint64(meta[32:])
	tableLen := binary.LittleEndian.Uint64(meta[40:])
	if numTargets > 1<<31 || totalRes > 1<<40 || numEntries > 1<<31 || numPostings > 1<<38 || tableLen > 1<<33 {
		return r, fmt.Errorf("%w: idxmeta counts %d/%d/%d/%d/%d", ErrImplausible, numTargets, totalRes, numEntries, numPostings, tableLen)
	}
	r.NumTargets = int(numTargets)
	r.TotalRes = int(totalRes)
	var err error
	if r.Keys, err = castSection[uint64](secs, secIdxKeys, numEntries); err != nil {
		return r, err
	}
	if r.RawCount, err = castSection[uint32](secs, secIdxRaw, numEntries); err != nil {
		return r, err
	}
	if r.Offs, err = castSection[int64](secs, secIdxOffs, numEntries+1); err != nil {
		return r, err
	}
	if r.Postings, err = castSection[index.Posting](secs, secIdxPost, numPostings); err != nil {
		return r, err
	}
	if tbl, ok := secs[secIdxTable]; ok && tableLen > 0 && uint64(len(tbl)) == tableLen*4 {
		if r.Table, err = castSection[int32](secs, secIdxTable, tableLen); err != nil {
			return r, err
		}
	}
	return r, nil
}

// castSection reinterprets a section's bytes as a typed slice without
// copying. Sections are page-aligned, so alignment always holds for
// the element sizes in use; the length must match exactly.
func castSection[T any](secs map[string][]byte, name string, n uint64) ([]T, error) {
	b, ok := secs[name]
	if !ok {
		return nil, fmt.Errorf("%w: missing section %s", ErrCorrupt, name)
	}
	var zero T
	size := uint64(unsafe.Sizeof(zero))
	if uint64(len(b)) != n*size {
		return nil, fmt.Errorf("%w: section %s holds %d bytes, geometry wants %d x %d", ErrCorrupt, name, len(b), n, size)
	}
	if n == 0 {
		return nil, nil
	}
	if uintptr(unsafe.Pointer(&b[0]))%unsafe.Alignof(zero) != 0 {
		return nil, fmt.Errorf("%w: section %s is misaligned", ErrCorrupt, name)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n), nil
}

func checksum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

func pageAlign(n uint64) uint64 {
	return (n + pageSize - 1) &^ uint64(pageSize-1)
}

func clampHint(n uint64) int {
	if n > 1<<20 {
		return 1 << 20
	}
	return int(n)
}
