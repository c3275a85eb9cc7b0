// Command dbgen generates the synthetic SwissProt-like protein
// database used by the reproduction (see DESIGN.md's substitution
// table) and writes it as FASTA.
//
// Usage:
//
//	dbgen -n 1000 -o db.fasta
//	dbgen -n 500 -related 20 -parent P14942 -o family.fasta
//	dbgen -n 2000 -seed 42 -o db42.fasta
//
// Generation is deterministic in -seed: equal flags produce
// byte-identical FASTA on every machine, which is what makes
// indexed-vs-exact comparisons (seqalign -index vs a plain scan, or
// the benchmark's recall_at_10) reproducible anywhere. The default
// seed is 20061001 — the paper's IISWC 2006 date — and is shared by
// every tool that generates synthetic databases (seqalign, indexbuild,
// the experiment harness), so their synthetic:<n> databases all agree.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bio"
)

func main() {
	var (
		n       = flag.Int("n", 1000, "number of sequences")
		seed    = flag.Int64("seed", 20061001, "generator seed; equal seeds generate identical databases on every machine (default: the paper's IISWC 2006 date)")
		meanLen = flag.Int("mean", 360, "mean sequence length")
		related = flag.Int("related", 0, "number of planted homologs")
		parent  = flag.String("parent", "P14942", "Table II accession the homologs derive from")
		out     = flag.String("o", "-", "output path ('-' for stdout)")
	)
	flag.Parse()

	spec := bio.DefaultDBSpec(*n)
	spec.Seed = *seed
	spec.MeanLen = *meanLen
	if *related > 0 {
		spec.Related = *related
		spec.RelatedTo = bio.PaperQuery(*parent)
	}
	db := bio.SyntheticDB(spec)

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := bio.WriteFASTA(w, db.Seqs); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "dbgen: wrote %d sequences, %d residues (mean %.0f)\n",
		db.NumSeqs(), db.TotalResidues(), db.MeanLen())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dbgen:", err)
	os.Exit(1)
}
