// Command indexbuild packages a protein database AND its k-mer seed
// index (internal/index) into one mmap-able SEQSNAP artifact
// (internal/snapshot) — what `seqserve -snapshot` boots from in
// milliseconds, what POST /admin/reload hot-swaps, and what
// `seqalign -snapshot` searches without rebuilding anything. Building
// the index once and reusing it across queries is the whole point of
// indexing the database rather than the query; a snapshot is the only
// form a prebuilt index travels in, so it can never be paired with the
// wrong database.
//
// Usage:
//
//	indexbuild snapshot -db swissprot.fasta -version v1 -o sp.snap   # build
//	indexbuild snapshot -db synthetic:300 -shard 100:200 -version v1 -o s1.snap  # per-shard
//	indexbuild snapshot -inspect sp.snap                # manifest, no data read
//	indexbuild snapshot -verify sp.snap [-top 5]        # checksums + full reconstruction + index statistics
//
// Synthetic databases are generated with the same defaults as dbgen
// and seqalign (seed 20061001), so `indexbuild snapshot -db
// synthetic:N` and `seqalign -db synthetic:N` agree on the database
// bit for bit; pass the same -seed/-related/-parent to all of them
// when overriding.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/internal/bio"
	"repro/internal/index"
	"repro/internal/snapshot"
)

// main implements `indexbuild snapshot`, the tool's one mode: build a
// SEQSNAP artifact from a database (+ freshly built index), or
// inspect/verify an existing one. Build and the two read modes are
// mutually exclusive.
func main() {
	if len(os.Args) < 2 || os.Args[1] != "snapshot" {
		fatal(fmt.Errorf("usage: indexbuild snapshot [flags] (-h lists them): build a snapshot with -db/-version/-o, or examine one with -inspect/-verify"))
	}
	fs := flag.NewFlagSet("indexbuild snapshot", flag.ExitOnError)
	var (
		dbArg   = fs.String("db", "", "database to snapshot: FASTA file path or synthetic:<n>")
		dbSeed  = fs.Int64("seed", 20061001, "synthetic database generator seed")
		related = fs.Int("related", 0, "plant this many homologs in a synthetic database")
		parent  = fs.String("parent", "P14942", "Table II accession the planted homologs derive from")
		k       = fs.Int("k", index.DefaultK, "k-mer length")
		capFlag = fs.Int("cap", index.DefaultMaxPostings, "max postings per k-mer (-1 = uncapped)")
		workers = fs.Int("workers", 0, "index build workers (0 = all CPUs)")
		shard   = fs.String("shard", "",
			"snapshot only the contiguous slice lo:hi (hi exclusive) — the per-shard artifact a sharded seqserve boots from")
		version = fs.String("version", "", "operator version label stamped into the manifest (required to build; e.g. v2026-08-08)")
		out     = fs.String("o", "", "write the snapshot to this path (required to build)")
		inspect = fs.String("inspect", "", "print an existing snapshot's manifest (reads the header only)")
		verify  = fs.String("verify", "", "fully open an existing snapshot with every section checksummed, re-validate the index against the database, and print the index statistics")
		top     = fs.Int("top", 5, "with -verify, list this many of the most frequent k-mers (0 = none)")
	)
	_ = fs.Parse(os.Args[2:])

	switch {
	case *inspect != "":
		m, err := snapshot.ReadManifest(*inspect)
		if err != nil {
			fatal(err)
		}
		info, err := os.Stat(*inspect)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("snapshot %s: %d bytes\n", *inspect, info.Size())
		printManifest(m)
		return

	case *verify != "":
		start := time.Now()
		snap, err := snapshot.Open(*verify, snapshot.OpenOptions{Verify: true})
		if err != nil {
			fatal(fmt.Errorf("verifying %s: %w", *verify, err))
		}
		defer snap.Close()
		if err := snap.Index.Validate(snap.DB); err != nil {
			fatal(fmt.Errorf("verifying %s: index/database mismatch: %w", *verify, err))
		}
		if got := snapshot.DBHash(snap.DB); got != snap.Manifest.DBHash {
			fatal(fmt.Errorf("verifying %s: database hash %s does not match the manifest's %s", *verify, got, snap.Manifest.DBHash))
		}
		printManifest(snap.Manifest)
		fmt.Printf("verified in %v: all section checksums match, index validates, db hash matches\n",
			time.Since(start).Round(time.Millisecond))
		printIndex(snap.Index, *top)
		return
	}

	if *dbArg == "" {
		fatal(fmt.Errorf("nothing to do: pass -db/-version/-o to build, or -inspect/-verify to examine a snapshot"))
	}
	if *version == "" || *out == "" {
		fatal(fmt.Errorf("building a snapshot requires -version (the operator label reloads report) and -o"))
	}
	if *k < index.MinK || *k > index.MaxK {
		fatal(fmt.Errorf("-k %d outside [%d, %d]", *k, index.MinK, index.MaxK))
	}
	var parentSeq *bio.Sequence
	if *related > 0 {
		parentSeq = bio.PaperQuery(*parent)
	}
	db, err := bio.LoadDatabase(*dbArg, *dbSeed, *related, parentSeq)
	if err != nil {
		fatal(err)
	}
	if *shard != "" {
		if db, err = bio.ShardDatabase(db, *shard); err != nil {
			fatal(err)
		}
		fmt.Printf("snapshotting shard %s (%d of the database's sequences)\n", *shard, db.NumSeqs())
	}
	start := time.Now()
	ix := index.Build(db, index.Options{K: *k, MaxPostings: *capFlag, Workers: *workers})
	buildTime := time.Since(start)
	m, err := snapshot.Write(*out, db, ix, snapshot.Manifest{Version: *version, Tool: "indexbuild"})
	if err != nil {
		fatal(err)
	}
	// Open what was written, checksums and all: a snapshot that cannot
	// round-trip must fail here, not at 3am in a reload.
	snap, err := snapshot.Open(*out, snapshot.OpenOptions{Verify: true})
	if err != nil {
		fatal(fmt.Errorf("verifying %s: %w", *out, err))
	}
	snap.Close()
	info, err := os.Stat(*out)
	if err != nil {
		fatal(err)
	}
	printManifest(m)
	fmt.Printf("wrote %s (%d bytes, verified round-trip) — index built in %v\n",
		*out, info.Size(), buildTime.Round(time.Millisecond))
}

func printManifest(m snapshot.Manifest) {
	fmt.Printf("  version:        %s\n", m.Version)
	fmt.Printf("  created:        %s", time.Unix(m.CreatedUnix, 0).UTC().Format(time.RFC3339))
	if m.Tool != "" {
		fmt.Printf(" by %s", m.Tool)
	}
	fmt.Println()
	fmt.Printf("  database:       %d sequences, %d residues, hash %s\n", m.NumSeqs, m.TotalResidues, m.DBHash)
	capStr := strconv.Itoa(m.MaxPostings)
	if m.MaxPostings < 0 {
		capStr = "uncapped"
	}
	fmt.Printf("  index:          k=%d cap=%s, %d distinct k-mers, %d postings\n", m.K, capStr, m.DistinctKmers, m.Postings)
}

// printIndex prints the opened index's statistics and its topKmers
// most frequent k-mers — the capped ones are the low-complexity seeds
// the build dropped.
func printIndex(ix *index.Index, topKmers int) {
	st := ix.Stats()
	fmt.Printf("seed index:\n")
	fmt.Printf("  distinct k-mers: %d (of %d possible)\n", st.DistinctKmers, index.PossibleKmers(st.K))
	fmt.Printf("  postings:       %d stored / %d raw, %d k-mers capped\n", st.Postings, st.RawPostings, st.CappedKmers)
	fmt.Printf("  footprint:      %.1f MiB\n", float64(st.FootprintBytes)/(1<<20))
	if topKmers <= 0 {
		return
	}
	fmt.Printf("most frequent k-mers:\n")
	for _, e := range mostFrequent(ix, topKmers) {
		note := ""
		if e.stored == 0 && e.raw > 0 {
			note = "  (capped: postings dropped)"
		}
		fmt.Printf("  %-13s x%-6d stored %d%s\n", bio.Decode(index.UnpackKmer(e.key, st.K)), e.raw, e.stored, note)
	}
}

type kmerFreq struct {
	key         uint64
	raw, stored int
}

// mostFrequent ranks the index's k-mers by raw occurrence count,
// keeping a small insertion-sorted top list while streaming entries.
func mostFrequent(ix *index.Index, n int) []kmerFreq {
	top := make([]kmerFreq, 0, n+1)
	ix.ForEachEntry(func(key uint64, raw, stored int) {
		top = append(top, kmerFreq{key: key, raw: raw, stored: stored})
		for i := len(top) - 1; i > 0 && top[i].raw > top[i-1].raw; i-- {
			top[i], top[i-1] = top[i-1], top[i]
		}
		if len(top) > n {
			top = top[:n]
		}
	})
	return top
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "indexbuild:", err)
	os.Exit(1)
}
