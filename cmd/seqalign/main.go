// Command seqalign searches a protein database with a query sequence
// using any of the paper's five methods, the reference Smith-Waterman,
// or the SWAR multi-lane kernel, in the spirit of the ssearch/blastp
// command lines of Table I.
//
// Usage:
//
//	seqalign -query P14942 -db synthetic:100 -method ssearch -best 10
//	seqalign -query query.fasta -db swissprot.fasta -method blast -align
//	seqalign -db synthetic:2000 -index build -k 5             # seed-and-extend, index built on the fly
//	seqalign -snapshot db.snap -best 10                       # seed-and-extend over an indexbuild snapshot
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/align"
	"repro/internal/bio"
	"repro/internal/blast"
	"repro/internal/fasta"
	"repro/internal/index"
	"repro/internal/snapshot"
)

func main() {
	var (
		queryArg = flag.String("query", "P14942", "query: FASTA file path or a Table II accession")
		dbArg    = flag.String("db", "synthetic:100", "database: FASTA file path or synthetic:<n>")
		dbSeed   = flag.Int64("seed", 20061001, "synthetic database generator seed")
		method   = flag.String("method", "ssearch",
			strings.Join(align.KernelNames(), " | ")+" | blast | fasta")
		matrix    = flag.String("s", "BL62", "substitution matrix (BL62, BL50)")
		gapOpen   = flag.Int("gopen", 10, "gap open penalty")
		gapExt    = flag.Int("gext", 1, "gap extension penalty")
		best      = flag.Int("best", 10, "number of hits to report (-b)")
		workers   = flag.Int("workers", 0, "parallel scan workers (0 = all CPUs)")
		related   = flag.Int("related", 0, "plant this many homologs in a synthetic database")
		showAlign = flag.Bool("align", false, "print the top hit's alignment")

		indexArg   = flag.String("index", "", "seed-and-extend: 'build' indexes -db in-process (a prebuilt index travels inside a snapshot: see -snapshot)")
		kFlag      = flag.Int("k", index.DefaultK, "k-mer length when -index build")
		snapArg    = flag.String("snapshot", "", "seed-and-extend over a SEQSNAP snapshot (indexbuild snapshot) instead of -db/-index: database and index both come from the one file")
		maxCand    = flag.Int("max-candidates", 0, "candidates the seed filter passes to exact rescoring (0 = default; >= database size = exact scan)")
		stageTimes = flag.Bool("stage-times", false, "print per-stage wall time (prepare/scan/rank) for the exact kernels")
	)
	flag.Parse()
	if *indexArg != "" && *indexArg != "build" {
		fatal(fmt.Errorf("-index %q: the only value is build; a prebuilt index travels inside a snapshot — write one with 'indexbuild snapshot -db ... -version ... -o x.snap' and search it with -snapshot x.snap", *indexArg))
	}
	if *indexArg != "" && *snapArg != "" {
		fatal(fmt.Errorf("-index and -snapshot are alternatives: a snapshot already carries its index"))
	}

	m, err := bio.MatrixByName(*matrix)
	if err != nil {
		fatal(err)
	}
	params := align.Params{Matrix: m, Gaps: bio.GapPenalty{Open: *gapOpen, Extend: *gapExt}}

	query, err := loadQuery(*queryArg)
	if err != nil {
		fatal(err)
	}
	var (
		db *bio.Database
		ix *index.Index
	)
	if *snapArg != "" {
		snap, err := snapshot.Open(*snapArg, snapshot.OpenOptions{})
		if err != nil {
			fatal(fmt.Errorf("opening snapshot %s: %w", *snapArg, err))
		}
		defer snap.Close() // db and ix alias the mapping until main returns
		db, ix = snap.DB, snap.Index
	} else {
		if db, err = bio.LoadDatabase(*dbArg, *dbSeed, *related, query); err != nil {
			fatal(err)
		}
		if *indexArg == "build" {
			if *kFlag < index.MinK || *kFlag > index.MaxK {
				fatal(fmt.Errorf("-k %d outside [%d, %d]", *kFlag, index.MinK, index.MaxK))
			}
			ix = index.Build(db, index.Options{K: *kFlag})
		}
	}
	fmt.Printf("query %s (%d aa) vs %d sequences (%d residues), method=%s matrix=%s gaps=%d/%d\n",
		query.ID, query.Len(), db.NumSeqs(), db.TotalResidues(), *method, m.Name, *gapOpen, *gapExt)

	type hit struct {
		seq   *bio.Sequence
		score int
		extra string
	}
	var hits []hit
	if kernel, kerr := align.KernelByName(*method); kerr == nil {
		// Rigorous scans run through the parallel sharded search
		// harness; results are identical for every worker count. With
		// an index (-index build, or a snapshot's) the same harness runs
		// seed-and-extend: the filter proposes candidates, the selected
		// kernel rescores them.
		cfg := align.SearchConfig{
			Kernel:  kernel,
			Workers: *workers,
			TopK:    *best,
		}
		if *stageTimes {
			cfg.Observe = func(stage string, d time.Duration) {
				fmt.Printf("stage %-7s %12v\n", stage, d)
			}
		}
		if ix != nil {
			cfg.Filter = index.NewSearcher(ix, db, params, index.SearchOptions{})
			cfg.MaxCandidates = *maxCand
			st := ix.Stats()
			fmt.Printf("seed index: k=%d, %d distinct k-mers, %d postings (%d capped), %.1f MiB\n",
				st.K, st.DistinctKmers, st.Postings, st.CappedKmers, float64(st.FootprintBytes)/(1<<20))
		}
		res := align.SearchDB(params, query.Residues, db, cfg)
		for _, h := range res {
			hits = append(hits, hit{seq: h.Seq, score: h.Score})
		}
	} else {
		if ix != nil {
			// The heuristic methods run their own seeding; silently
			// dropping the index would let the user attribute their
			// results to a pipeline that never ran.
			fatal(fmt.Errorf("-index and -snapshot only apply to the exact kernels (%s), not -method %s",
				strings.Join(align.KernelNames(), ", "), *method))
		}
		switch *method {
		case "blast":
			p := blast.DefaultParams()
			p.Matrix = m
			p.Gaps = params.Gaps
			res, stats := blast.Search(db, query, p)
			for _, h := range res {
				hits = append(hits, hit{seq: h.Seq, score: h.Score,
					extra: fmt.Sprintf("bits=%.1f E=%.2g", h.BitScore, h.EValue)})
			}
			fmt.Printf("blast stats: %d words scanned, %d word hits, %d seeds extended, %d gapped\n",
				stats.WordsScanned, stats.WordHits, stats.SeedsExtended, stats.GappedExtensions)
		case "fasta":
			p := fasta.DefaultParams()
			p.Matrix = m
			p.Gaps = params.Gaps
			res, _ := fasta.Search(db, query, p)
			for _, h := range res {
				hits = append(hits, hit{seq: h.Seq, score: h.Opt,
					extra: fmt.Sprintf("init1=%d initn=%d", h.Init1, h.Initn)})
			}
		default:
			fatal(fmt.Errorf("unknown method %q (valid: %s, blast, fasta)", *method, strings.Join(align.KernelNames(), ", ")))
		}
	}

	// SearchDB hits arrive ranked; re-sorting is a no-op for them and
	// orders the heuristic methods' results by score.
	for i := 1; i < len(hits); i++ {
		for j := i; j > 0 && hits[j].score > hits[j-1].score; j-- {
			hits[j], hits[j-1] = hits[j-1], hits[j]
		}
	}
	n := *best
	if n > len(hits) {
		n = len(hits)
	}
	fmt.Printf("\nThe best scores are:\n")
	for i := 0; i < n; i++ {
		h := hits[i]
		fmt.Printf("%3d. %-12s (%4d aa) score %5d  %s\n", i+1, h.seq.ID, h.seq.Len(), h.score, h.extra)
	}
	if *showAlign && n > 0 {
		al := align.SWAlign(params, query.Residues, hits[0].seq.Residues)
		fmt.Printf("\nbest alignment (query %d-%d, subject %d-%d, %.0f%% identity):\n%s\n",
			al.AStart+1, al.AEnd, al.BStart+1, al.BEnd, 100*al.Identity,
			al.Format(query.Residues, hits[0].seq.Residues))
	}
}

func loadQuery(arg string) (*bio.Sequence, error) {
	for _, q := range bio.PaperQueryTable {
		if q.Accession == arg {
			return bio.PaperQuery(arg), nil
		}
	}
	f, err := os.Open(arg)
	if err != nil {
		return nil, fmt.Errorf("query %q is neither a Table II accession nor a readable file: %w", arg, err)
	}
	defer f.Close()
	seqs, err := bio.ReadFASTA(f)
	if err != nil {
		return nil, err
	}
	if len(seqs) == 0 {
		return nil, fmt.Errorf("no sequences in %s", arg)
	}
	return seqs[0], nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "seqalign:", err)
	os.Exit(1)
}
