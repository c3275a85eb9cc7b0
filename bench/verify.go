package main

import (
	"encoding/json"
	"fmt"

	"repro/internal/align"
	"repro/internal/bio"
	"repro/internal/index"
	"repro/internal/server"
)

// The correctness oracle. It runs after a timed window, never inside
// it, and answers every question from the generated inputs alone: the
// database, a heap-built index over it, and the align library called
// in-process.

// rederiveEvery is the share of unique (non-hot) indexed responses
// recomputed in-process; hot-corpus responses are all compared.
const rederiveEvery = 16

// answer is the decode target for all three response shapes: a POST
// /search body, a routed body (which adds the shard accounting) and a
// stream result line (which adds id and error).
type answer struct {
	server.SearchResponse
	Complete *bool  `json:"complete"`
	ShardsOK int    `json:"shards_ok"`
	Error    string `json:"error"`
}

type oracle struct {
	in     *inputs
	params align.Params
	epoch  *align.Epoch // full database + seed filter: the single-node answer
	hot    [][]server.Hit
	shards int // > 0: answers must be complete over this many shards
}

func newOracle(in *inputs, ix *index.Index, shards int) *oracle {
	p := align.PaperParams()
	return &oracle{
		in: in, params: p, shards: shards,
		epoch: &align.Epoch{DB: in.db, Filter: index.NewSearcher(ix, in.db, p, index.SearchOptions{})},
		hot:   make([][]server.Hit, len(in.hot)),
	}
}

func wire(hits []align.Hit) []server.Hit {
	out := make([]server.Hit, len(hits))
	for i, h := range hits {
		out[i] = server.Hit{Index: h.Index, ID: h.Seq.ID, Desc: h.Seq.Desc, Len: h.Seq.Len(), Score: h.Score}
	}
	return out
}

// indexed is the in-process answer of the default (seed-and-extend)
// path: align.Epoch.Search with the server's default kernel.
func (o *oracle) indexed(query string) []server.Hit {
	return wire(o.epoch.Search(o.params, bio.Encode(query), align.SearchConfig{Kernel: align.KernelSWAR, TopK: topK}))
}

// exact is the reference answer: every sequence scored with the plain
// scalar kernel.
func (o *oracle) exact(query string) []server.Hit {
	return wire(align.SearchDB(o.params, bio.Encode(query), o.in.db, align.SearchConfig{Kernel: align.KernelSW, TopK: topK}))
}

func (o *oracle) hotAnswer(h int) []server.Hit {
	if o.hot[h] == nil {
		o.hot[h] = o.indexed(o.in.hot[h])
	}
	return o.hot[h]
}

// structural checks what must hold of any answer whatever the path: k,
// rank order, index range, and that each hit describes the database
// sequence it names.
func (o *oracle) structural(e *exchange, a *answer) error {
	switch {
	case a.K != topK:
		return fmt.Errorf("k = %d, want %d", a.K, topK)
	case a.QueryLen != len(e.req.Query):
		return fmt.Errorf("query_len = %d, sent %d", a.QueryLen, len(e.req.Query))
	case a.Exhaustive != e.req.Exhaustive:
		return fmt.Errorf("exhaustive = %v, asked %v", a.Exhaustive, e.req.Exhaustive)
	case len(a.Hits) > topK:
		return fmt.Errorf("%d hits for k = %d", len(a.Hits), topK)
	case o.shards > 0 && (a.Complete == nil || !*a.Complete || a.ShardsOK != o.shards):
		return fmt.Errorf("routed answer not complete over %d shards", o.shards)
	}
	for i, h := range a.Hits {
		if h.Index < 0 || h.Index >= o.in.db.NumSeqs() {
			return fmt.Errorf("hit %d: index %d outside the database", i, h.Index)
		}
		if s := o.in.db.Seqs[h.Index]; h.ID != s.ID || h.Len != s.Len() {
			return fmt.Errorf("hit %d: (%s, len %d) is not sequence %d", i, h.ID, h.Len, h.Index)
		}
		if h.Score < 1 {
			return fmt.Errorf("hit %d: score %d", i, h.Score)
		}
		if i > 0 {
			p := a.Hits[i-1]
			if p.Score < h.Score || (p.Score == h.Score && p.Index >= h.Index) {
				return fmt.Errorf("hits %d,%d out of rank order", i-1, i)
			}
		}
	}
	return nil
}

func sameHits(got, want []server.Hit) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// overlap is the share of want's entries whose database index appears
// in got.
func overlap(got, want []server.Hit) (found, of int) {
	have := make(map[int]bool, len(got))
	for _, h := range got {
		have[h.Index] = true
	}
	for _, h := range want {
		if have[h.Index] {
			found++
		}
	}
	return found, len(want)
}

// verdict is the oracle's account of one phase.
type verdict struct {
	attempted int
	failed    int // non-200, transport errors, timeouts and wrong answers
	wrong     int // of failed: answered 200 but not what the oracle derives
	rederived int // unique responses recomputed in-process
	recallN   int // queries behind recall
	recall    float64
	first     string // the first failure, for the report
}

func (v *verdict) fail(wrong bool, format string, args ...any) {
	v.failed++
	if wrong {
		v.wrong++
	}
	if v.first == "" {
		v.first = fmt.Sprintf(format, args...)
	}
}

// check verifies every exchange of ph. All answers get the structural
// checks; every hot-corpus answer must equal the in-process one bit for
// bit; every rederiveEvery-th unique indexed answer must equal the
// in-process indexed search; and in.sc.verifyMax unique answers are
// compared with the scalar-exact top-k, which gives recall and, for
// exhaustive answers, must be an exact match.
func (o *oracle) check(ph *phase) verdict {
	v := verdict{attempted: len(ph.ex)}
	var unique []int // exchanges with a decodable non-hot 200 answer
	answers := make([]answer, len(ph.ex))
	for i := range ph.ex {
		e, a := &ph.ex[i], &answers[i]
		if !e.ok() {
			v.fail(false, "request %d: status %d %s", i, e.status, e.err)
			continue
		}
		if err := json.Unmarshal(e.body, a); err != nil {
			v.fail(true, "request %d: undecodable answer: %v", i, err)
			continue
		}
		if a.Error != "" {
			v.fail(false, "request %d: error line %s", i, a.Error)
			continue
		}
		if err := o.structural(e, a); err != nil {
			v.fail(true, "request %d: %v", i, err)
			continue
		}
		if e.hot >= 0 {
			if !sameHits(a.Hits, o.hotAnswer(e.hot)) {
				v.fail(true, "request %d: hot query %d differs from the in-process answer", i, e.hot)
			}
			continue
		}
		unique = append(unique, i)
	}

	// The exact sample: verifyMax unique answers, evenly spaced over the
	// window. Each costs one scalar scan of the database, which is what
	// bounds it. It gives recall, and on exhaustive answers identity.
	sampled := make(map[int]bool)
	if n := min(o.in.sc.verifyMax, len(unique)); n > 0 {
		for j := 0; j < n; j++ {
			sampled[unique[j*len(unique)/n]] = true
		}
	}
	var found, of int
	for j, i := range unique {
		e, a := &ph.ex[i], &answers[i]
		if sampled[i] {
			exact := o.exact(e.req.Query)
			f, n := overlap(a.Hits, exact)
			found, of = found+f, of+n
			v.recallN++
			if e.req.Exhaustive {
				v.rederived++
				if !sameHits(a.Hits, exact) {
					v.fail(true, "request %d: exhaustive answer differs from the scalar reference", i)
				}
			}
		}
		if !e.req.Exhaustive && j%rederiveEvery == 0 {
			v.rederived++
			if !sameHits(a.Hits, o.indexed(e.req.Query)) {
				v.fail(true, "request %d: indexed answer differs from the in-process search", i)
			}
		}
	}
	if of > 0 {
		v.recall = float64(found) / float64(of)
	}
	return v
}
