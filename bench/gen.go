package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"repro/internal/bio"
)

// scale fixes every size, rate and duration of a run. Only two exist:
// "full" is the benchmark, "tiny" is what `go test` drives so the whole
// harness is exercised in seconds. Nothing else is configurable — a
// number that two runs could set differently is a number two runs
// cannot be compared on.
type scale struct {
	name    string
	roots   int // families in the database
	members int // database sequences per family
	meanLen int // mean root length (log-normal, spread rootSpread)
	qMin    int // family-query length range
	qMax    int
	hot     int // hot-corpus size

	window     time.Duration // default measured window
	openRate   float64       // hotmix-open arrival rate, req/s
	sloRates   []float64     // client.slo_rate_qps candidates
	sloWindow  time.Duration // time offered at each
	streamLen  int           // all_vs_all line length, residues
	ladderWide int           // queries per cheap ladder rung
	ladderDeep int           // queries per rung that scans the whole db
	setups     int           // set-ups per run; setup_s is their median
	verifyMax  int           // cap on exhaustive re-derivations per run
}

var (
	fullScale = scale{
		name: "full", roots: 50, members: 20, meanLen: 360, qMin: 120, qMax: 300, hot: 64,
		window: 13 * time.Second, openRate: 250,
		sloRates: []float64{200, 400, 800}, sloWindow: time.Second, streamLen: 50,
		ladderWide: 32, ladderDeep: 3, setups: 5, verifyMax: 12,
	}
	tinyScale = scale{
		name: "tiny", roots: 6, members: 10, meanLen: 120, qMin: 40, qMax: 100, hot: 8,
		window: 300 * time.Millisecond, openRate: 250,
		sloRates: []float64{100, 200}, sloWindow: 200 * time.Millisecond, streamLen: 30,
		ladderWide: 4, ladderDeep: 2, setups: 1, verifyMax: 4,
	}
)

const (
	rootSpread = 0.55 // log-normal sigma of root lengths, as bio.DefaultDBSpec
	mutLo      = 0.10 // family members and queries are mutated at 10-40 %
	mutHi      = 0.40
	zipfS      = 1.1
	missEvery  = 10 // hotmix: one new family query per this many requests
	topK       = 10
)

// Independent random streams, so that drawing one more query never
// shifts the database or the schedule.
const (
	streamRoots = iota + 1
	streamMembers
	streamShuffle
	streamSchedule // n = first miss-query number of the schedule
	streamQuery    // n = query number
)

// rngFor derives the generator of stream (stream, n) from the run seed
// (splitmix64 finaliser, so neighbouring seeds and streams decorrelate).
func rngFor(seed int64, stream, n uint64) *rand.Rand {
	z := uint64(seed) + stream*0x9E3779B97F4A7C15 + n*0xD1B54A32D192ED03
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return rand.New(rand.NewSource(int64(z)))
}

// sampler draws residues from bio.SwissProtComposition.
type sampler struct{ cum [bio.NumStandard]float64 }

func newSampler() *sampler {
	s := &sampler{}
	total := 0.0
	for i, f := range bio.SwissProtComposition() {
		total += f
		s.cum[i] = total
	}
	s.cum[bio.NumStandard-1] = 1
	return s
}

func (s *sampler) draw(r *rand.Rand) uint8 {
	x := r.Float64()
	for i, c := range s.cum {
		if x <= c {
			return uint8(i)
		}
	}
	return bio.NumStandard - 1
}

// mutate copies src under per-residue substitution at rate, with a
// sixth of the events being one-residue insertions or deletions — the
// shape of bio's unexported mutate, owned here because the benchmark
// needs whole families, not one planted parent.
func (s *sampler) mutate(src []uint8, rate float64, r *rand.Rand) []uint8 {
	out := make([]uint8, 0, len(src)+8)
	for _, c := range src {
		x := r.Float64()
		switch {
		case x < rate/12: // deletion
		case x < rate/6: // insertion
			out = append(out, s.draw(r), c)
		case x < rate:
			out = append(out, s.draw(r))
		default:
			out = append(out, c)
		}
	}
	return out
}

// inputs is everything a run feeds the program under test. The program
// never sees the seed, only these.
type inputs struct {
	sc    scale
	seed  int64
	samp  *sampler
	roots [][]uint8
	db    *bio.Database
	hot   []string // hot corpus, hot[0] most popular
}

// rootLengths returns the family root lengths: the sc.roots mid-point
// quantiles of the log-normal length model. They are the same for every
// seed — a seed changes what the sequences say, not how much work a
// scan of them is — so cells per query, and with it every timing, is
// comparable across seeds.
func rootLengths(sc scale) []int {
	mu := math.Log(float64(sc.meanLen)) - rootSpread*rootSpread/2
	out := make([]int, sc.roots)
	for i := range out {
		q := (float64(i) + 0.5) / float64(sc.roots)
		out[i] = int(math.Exp(mu + rootSpread*math.Sqrt2*math.Erfinv(2*q-1)))
	}
	return out
}

// generate builds the family-structured database and the hot corpus.
func generate(sc scale, seed int64) *inputs {
	in := &inputs{sc: sc, seed: seed, samp: newSampler()}
	rr := rngFor(seed, streamRoots, 0)
	for _, n := range rootLengths(sc) {
		root := make([]uint8, n)
		for j := range root {
			root[j] = in.samp.draw(rr)
		}
		in.roots = append(in.roots, root)
	}
	mr := rngFor(seed, streamMembers, 0)
	seqs := make([]*bio.Sequence, 0, sc.roots*sc.members)
	for f, root := range in.roots {
		for m := 0; m < sc.members; m++ {
			// Mutation rates step evenly through 10-40 % within a family.
			rate := mutLo + (mutHi-mutLo)*(float64(m)+0.5)/float64(sc.members)
			seqs = append(seqs, &bio.Sequence{
				ID:       fmt.Sprintf("F%02dM%02d", f, m),
				Desc:     fmt.Sprintf("family %d member %d", f, m),
				Residues: in.samp.mutate(root, rate, mr),
			})
		}
	}
	rngFor(seed, streamShuffle, 0).Shuffle(len(seqs), func(i, j int) { seqs[i], seqs[j] = seqs[j], seqs[i] })
	in.db = bio.NewDatabase(seqs)
	for i := 0; i < sc.hot; i++ {
		in.hot = append(in.hot, in.familyQuery(i))
	}
	return in
}

// Query numbers are partitioned so no two uses ever draw the same one:
// the hot corpus takes [0, hot), the ladder [ladderBase, ...), and each
// workload phase a disjoint range above missBase.
const (
	ladderBase = 1 << 10
	missBase   = 1 << 12
)

// familyQuery returns family query number i: a fresh mutant of a root —
// so it is in no database and has about sc.members true homologs —
// cut to a window of qMin..qMax residues. Roots are taken in turn and
// the window length follows the golden-ratio sequence, both independent
// of the seed, so any run of consecutive query numbers carries the same
// length mix and the timings it produces do not move with the seed.
func (in *inputs) familyQuery(i int) string {
	r := rngFor(in.seed, streamQuery, uint64(i))
	root := in.roots[i%len(in.roots)]
	rate := mutLo + (mutHi-mutLo)*r.Float64()
	q := in.samp.mutate(root, rate, r)
	_, frac := math.Modf(float64(i) * 0.6180339887498949)
	want := in.sc.qMin + int(frac*float64(in.sc.qMax-in.sc.qMin+1))
	if len(q) > want {
		off := r.Intn(len(q) - want + 1)
		q = q[off : off+want]
	}
	return bio.Decode(q)
}

// request is one scheduled hotmix request.
type request struct {
	query string
	hot   int // hot-corpus index, or -1 for a new family query
}

// hotmix returns n scheduled requests starting at miss-query number
// base: in every block of missEvery one request, at a seeded position,
// is a new family query (a certain cache miss) and the rest are
// Zipf(zipfS) draws from the hot corpus. Placing misses per block
// instead of by coin flip keeps the miss share exactly 1/missEvery in
// any window, which is what keeps p95 at the median of the misses.
func (in *inputs) hotmix(base, n int) []request {
	r := rngFor(in.seed, streamSchedule, uint64(base))
	z := rand.NewZipf(r, zipfS, 1, uint64(len(in.hot)-1))
	out := make([]request, n)
	miss := 0
	for i := range out {
		if i%missEvery == 0 {
			miss = i + r.Intn(missEvery)
		}
		if i == miss {
			out[i] = request{query: in.familyQuery(base + i/missEvery), hot: -1}
			continue
		}
		h := int(z.Uint64())
		out[i] = request{query: in.hot[h], hot: h}
	}
	return out
}

// streamLine returns line i of the all-vs-all stream: database member
// i (cycling past the end), cut to a streamLen window that moves one
// residue per cycle, so a line repeats — and would be a cache hit —
// only after as many cycles as the member has windows.
func (in *inputs) streamLine(i int) string {
	n := in.db.NumSeqs()
	res := in.db.Seqs[i%n].Residues
	if extra := len(res) - in.sc.streamLen; extra > 0 {
		start := (i / n) % (extra + 1)
		res = res[start : start+in.sc.streamLen]
	}
	return bio.Decode(res)
}

// fingerprint hashes the database and the first n scheduled hotmix
// requests — the generator's whole output surface — for the
// same-seed-same-bytes test.
func (in *inputs) fingerprint(n int) uint64 {
	h := fnv.New64a()
	var lenbuf [8]byte
	put := func(b []byte) {
		binary.LittleEndian.PutUint64(lenbuf[:], uint64(len(b)))
		h.Write(lenbuf[:])
		h.Write(b)
	}
	for _, s := range in.db.Seqs {
		put([]byte(s.ID))
		put([]byte(s.Desc))
		put(s.Residues)
	}
	for _, rq := range in.hotmix(missBase, n) {
		put([]byte(rq.query))
	}
	return h.Sum64()
}
