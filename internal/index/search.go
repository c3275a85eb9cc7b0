package index

import (
	"fmt"
	"sort"

	"repro/internal/align"
	"repro/internal/bio"
)

// Defaults of the candidate-generation knobs. Each trades recall for
// speed; DESIGN.md's "Seed index & heuristic search" section works
// through the trade-offs.
const (
	// DefaultMaxCandidates bounds how many database sequences survive
	// to exact rescoring per query.
	DefaultMaxCandidates = 64
	// DefaultMinSeeds is the chained-seed support a target needs to be
	// extended at all. 1 keeps every seeded target alive — the banded
	// extension, not the raw hit count, does the filtering.
	DefaultMinSeeds = 1
	// DefaultBandHalfWidth is both the diagonal window that chains
	// seed hits and the half-width of the banded extension. Indels
	// drift homologous alignments off a single diagonal by a few
	// residues per hundred; 24 covers that for typical protein lengths.
	DefaultBandHalfWidth = 24
	// DefaultMinBandedScore is the banded-extension score a candidate
	// must reach. 1 merely demands positive evidence once gap costs
	// are paid.
	DefaultMinBandedScore = 1
)

// SearchOptions tunes candidate generation. The zero value selects
// the documented defaults.
type SearchOptions struct {
	// MinSeeds is the minimum chained seed count; 0 means
	// DefaultMinSeeds.
	MinSeeds int
	// BandHalfWidth is the diagonal chaining window and extension
	// band half-width; 0 means DefaultBandHalfWidth.
	BandHalfWidth int
	// MinBandedScore is the extension-score floor; 0 means
	// DefaultMinBandedScore, negative disables the floor.
	MinBandedScore int
}

func (o SearchOptions) normalized() SearchOptions {
	if o.MinSeeds == 0 {
		o.MinSeeds = DefaultMinSeeds
	}
	if o.BandHalfWidth == 0 {
		o.BandHalfWidth = DefaultBandHalfWidth
	}
	if o.MinBandedScore == 0 {
		o.MinBandedScore = DefaultMinBandedScore
	}
	return o
}

// Searcher generates exact-rescore candidates for queries against one
// indexed database: query k-mers are looked up in the index, hits are
// chained per target within a diagonal window, and surviving targets
// are scored with a banded Smith-Waterman extension around the chain's
// diagonal. It implements align.CandidateFilter, so plugging it into
// align.SearchConfig.Filter turns SearchDB into the full
// seed-and-extend pipeline with the exact kernel as final rescorer.
//
// A Searcher reuses internal buffers and is not safe for concurrent
// use; give each query-serving goroutine its own (they can share one
// Index and Database, which are read-only after construction).
type Searcher struct {
	ix   *Index
	db   *bio.Database
	p    align.Params
	opts SearchOptions

	scr   *align.Scratch
	prof  align.Profile // per-query banded-extension profile, rebuilt in place
	seeds []seedHit
	cands []candidate
	out   []int
}

type seedHit struct {
	target int32
	diag   int32 // tpos - qpos; the banded extension centers here
}

type candidate struct {
	index  int // database sequence index
	center int // chain window's central diagonal
	banded int // banded extension score; the ranking key
}

// NewSearcher builds a Searcher over ix and the database it indexes.
// It panics if the index fingerprint does not match db — searching
// the wrong database cannot fail softer than that without returning
// silently wrong candidates.
func NewSearcher(ix *Index, db *bio.Database, p align.Params, opts SearchOptions) *Searcher {
	if err := ix.Validate(db); err != nil {
		panic(err.Error())
	}
	return &Searcher{ix: ix, db: db, p: p, opts: opts.normalized(), scr: align.NewScratch()}
}

// Clone returns a new Searcher over the same index, database, params,
// and options, with its own scratch buffers. A query-serving worker
// pool clones one validated Searcher per worker: the clones share the
// read-only Index and Database but never each other's DP state, so
// they can run concurrently (internal/server does exactly that).
func (s *Searcher) Clone() *Searcher {
	return &Searcher{ix: s.ix, db: s.db, p: s.p, opts: s.opts, scr: align.NewScratch()}
}

// Candidates implements align.CandidateFilter: it returns the indexes
// (ascending, unique) of the database sequences worth exact scoring
// for query, at most max of them (max <= 0 means
// DefaultMaxCandidates).
//
// Two degenerate inputs deliberately fall back to the exhaustive
// candidate set — max >= NumSeqs (the caller asked for everything, so
// heuristics can only lose recall) and queries shorter than k (no
// seedable k-mer exists). Both make "indexed search with
// MaxCandidates = NumSeqs equals the exact scan" a contract rather
// than a hope.
func (s *Searcher) Candidates(query []uint8, max int) []int {
	n := s.db.NumSeqs()
	if max <= 0 {
		max = DefaultMaxCandidates
	}
	if max >= n || len(query) < s.ix.K() {
		out := s.out[:0]
		for i := 0; i < n; i++ {
			out = append(out, i)
		}
		s.out = out
		return out
	}

	// Stage 1: seed. Every clean query k-mer is looked up; each
	// posting is a (target, diagonal) vote.
	k := s.ix.K()
	seeds := s.seeds[:0]
	for qp := 0; qp+k <= len(query); qp++ {
		key, ok := PackKmer(query, qp, k)
		if !ok {
			continue
		}
		for _, p := range s.ix.Lookup(key) {
			seeds = append(seeds, seedHit{target: p.Target, diag: p.Pos - int32(qp)})
		}
	}
	s.seeds = seeds
	if len(seeds) == 0 {
		s.out = s.out[:0]
		return s.out
	}

	// Stage 2: chain. Sort by (target, diagonal) and slide a
	// diagonal window of half the band width over each target's
	// hits: the best window's population is the chain score, its
	// central diagonal the extension center. Window ties resolve to
	// the lowest diagonal, keeping the result deterministic.
	sort.Slice(seeds, func(i, j int) bool {
		if seeds[i].target != seeds[j].target {
			return seeds[i].target < seeds[j].target
		}
		return seeds[i].diag < seeds[j].diag
	})
	cands := s.cands[:0]
	window := int32(s.opts.BandHalfWidth)
	for i := 0; i < len(seeds); {
		j := i
		for j < len(seeds) && seeds[j].target == seeds[i].target {
			j++
		}
		group := seeds[i:j]
		bestCount, bestCenter := 0, 0
		lo := 0
		for hi := range group {
			for group[hi].diag-group[lo].diag > window {
				lo++
			}
			if count := hi - lo + 1; count > bestCount {
				bestCount = count
				bestCenter = int(group[lo].diag+group[hi].diag) / 2
			}
		}
		if bestCount >= s.opts.MinSeeds {
			cands = append(cands, candidate{
				index:  int(group[0].target),
				center: bestCenter,
			})
		}
		i = j
	}

	// Stage 3: extend. A banded Smith-Waterman around the chain
	// diagonal scores each candidate cheaply (band cells, not m*n);
	// candidates below the floor drop, the rest rank by extension
	// score. The query profile is built once here and shared by every
	// candidate's extension, so per-target work is just the band
	// itself — no per-cell matrix gathers, no whole-row DP state
	// rebuilt per target (the profile-driven kernel initializes only
	// the band's query window). The final exact rescoring happens in
	// align.SearchDB with whatever kernel the caller selected.
	s.prof.Fill(query, s.p)
	kept := cands[:0]
	for _, c := range cands {
		c.banded = s.scr.BandedSWScoreProfile(&s.prof, s.db.Seqs[c.index].Residues, c.center, s.opts.BandHalfWidth)
		if s.opts.MinBandedScore > 0 && c.banded < s.opts.MinBandedScore {
			continue
		}
		kept = append(kept, c)
	}
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].banded != kept[j].banded {
			return kept[i].banded > kept[j].banded
		}
		return kept[i].index < kept[j].index
	})
	if len(kept) > max {
		kept = kept[:max]
	}
	s.cands = cands

	out := s.out[:0]
	for _, c := range kept {
		out = append(out, c.index)
	}
	sort.Ints(out)
	s.out = out
	return out
}

// CandidatesChecked is Candidates with the failure modes surfaced
// instead of thrown: a panic during candidate generation (a corrupt
// posting list, an out-of-range target — the shapes index corruption
// takes at lookup time) comes back as an error, and every returned
// index is bounds-checked against the database. Long-lived servers
// call this form so one bad lookup degrades that query, not the
// process; internal/server additionally flips itself to exhaustive
// scanning when it sees such an error (its degraded mode).
func (s *Searcher) CandidatesChecked(query []uint8, max int) (out []int, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, fmt.Errorf("index: candidate generation panicked: %v", r)
		}
	}()
	out = s.Candidates(query, max)
	for _, i := range out {
		if i < 0 || i >= s.db.NumSeqs() {
			return nil, fmt.Errorf("index: candidate %d outside database of %d sequences", i, s.db.NumSeqs())
		}
	}
	return out, nil
}

// Search runs the full seed-and-extend pipeline and exact top-K
// rescoring in one call: a convenience wrapper that plugs the
// Searcher into align.SearchDB as its candidate filter.
func (s *Searcher) Search(query []uint8, cfg align.SearchConfig) []align.Hit {
	cfg.Filter = s
	return align.SearchDB(s.p, query, s.db, cfg)
}
