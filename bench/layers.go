package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/align"
	"repro/internal/bio"
	"repro/internal/index"
	"repro/internal/server"
	"repro/internal/snapshot"
)

// The layer ladder: every layer's public entry point called from here,
// one caller, on one fixed query set (family queries from ladderBase
// on), so that adjacent rungs differ by exactly one layer. Rungs are
// measured one after another, not nested in wall-clock time; a rung's
// self time is its median duration minus the rung below's for the same
// queries.

// hitReps is how often each query is repeated on the rungs that serve
// from the cache, whose one call is tens of microseconds.
const hitReps = 8

// rung is one row of the self-time table.
type rung struct {
	name  string
	below string // the rung it wraps, "" for a bottom rung
	dur   float64
	self  float64 // dur minus below's dur, microseconds
}

// timings holds one rung's measurements, by ladder query.
type timings struct {
	name  string
	below string
	at    [][2]time.Time // [query] start, end of the (last) call
	us    []float64      // every call
}

func (t *timings) time(q int, f func()) {
	start := time.Now()
	f()
	end := time.Now()
	for len(t.at) <= q {
		t.at = append(t.at, [2]time.Time{})
	}
	t.at[q] = [2]time.Time{start, end}
	t.us = append(t.us, us(end.Sub(start)))
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// runLadder measures every rung, adds the align, index, snapshot,
// server.pipeline/http/stream and cluster.routed metrics to m, records
// the rungs as spans, and returns the self-time table.
func runLadder(h *host, tr *tracer, dir string, m *metrics) ([]rung, error) {
	in, p := h.in, align.PaperParams()
	nproc := runtime.GOMAXPROCS(0)
	wide := make([]string, in.sc.ladderWide)
	enc := make([][]uint8, len(wide))
	for i := range wide {
		wide[i] = in.familyQuery(ladderBase + i)
		enc[i] = bio.Encode(wide[i])
	}
	deep := in.sc.ladderDeep
	dbRes := float64(in.db.TotalResidues())
	var deepCells float64
	for _, q := range enc[:deep] {
		deepCells += float64(len(q)) * dbRes
	}
	mcells := func(cells float64, t *timings) float64 {
		var total float64
		for _, u := range t.us {
			total += u
		}
		return cells / total // cells per microsecond = Mcells/s
	}

	// align: the kernel alone, then the scan that drives it.
	kernel := func(k align.Kernel) (*timings, float64) {
		t := &timings{name: "align.kernel"}
		sc := align.NewScratch()
		var allocs uint64
		for q := 0; q < deep; q++ {
			pq := align.PrepareQuery(p, enc[q], k)
			sc.ScorePrepared(pq, in.db.Seqs[0].Residues) // grow the scratch outside the count
			a0 := mallocs()
			t.time(q, func() {
				for _, s := range in.db.Seqs {
					sc.ScorePrepared(pq, s.Residues)
				}
			})
			allocs += mallocs() - a0
		}
		return t, float64(allocs) / float64(deep*in.db.NumSeqs())
	}
	kSW, _ := kernel(align.KernelSW)
	kSWAR, kAllocs := kernel(align.KernelSWAR)
	m.add("align.kernel_sw_mcells_per_s", mcells(deepCells, kSW), "Mcells/s")
	m.add("align.kernel_swar_mcells_per_s", mcells(deepCells, kSWAR), "Mcells/s")
	m.add("align.kernel_allocs_per_op", kAllocs, "count")

	exact := make([][]align.Hit, deep) // the scan's answers double as the exact top-k below
	scan := func(name, below string, workers int) (*timings, float64) {
		t := &timings{name: name, below: below}
		var allocs uint64
		for q := 0; q < deep; q++ {
			a0 := mallocs()
			t.time(q, func() {
				exact[q] = align.SearchDB(p, enc[q], in.db, align.SearchConfig{Kernel: align.KernelSWAR, Workers: workers, TopK: topK})
			})
			allocs += mallocs() - a0
		}
		return t, float64(allocs) / float64(deep)
	}
	scan1, scanAllocs := scan("align.scan_w1", "align.kernel", 1)
	scanN, _ := scan("align.scan_wN", "", nproc)
	w1, wN := mcells(deepCells, scan1), mcells(deepCells, scanN)
	m.add("align.scan_w1_mcells_per_s", w1, "Mcells/s")
	m.add("align.scan_wN_mcells_per_s", wN, "Mcells/s")
	m.add("align.scan_over_kernel", w1/m.get("align.kernel_swar_mcells_per_s"), "ratio")
	m.add("align.scan_scaling_eff", wN/(float64(nproc)*w1), "ratio")
	m.add("align.scan_allocs_per_op", scanAllocs, "count")
	m.add("align.cells_per_query", deepCells/float64(deep), "count")

	all := &timings{name: "align.scanall"}
	q8 := enc[:min(8, len(enc))]
	var q8Cells float64
	for _, q := range q8 {
		q8Cells += float64(len(q)) * dbRes
	}
	var allErr error
	all.time(0, func() {
		_, allErr = align.SearchDBAll(context.Background(), p, q8, in.db, align.SearchConfig{Kernel: align.KernelSWAR, TopK: topK})
	})
	if allErr != nil {
		return nil, fmt.Errorf("SearchDBAll: %w", allErr)
	}
	m.add("align.scanall_q8_mcells_per_s", mcells(q8Cells, all), "Mcells/s")

	// index: build, candidate generation, and the search that rescoring
	// completes.
	build := &timings{}
	var ix *index.Index
	build.time(0, func() { ix = index.Build(in.db, index.Options{}) })
	m.add("index.build_ms", build.us[0]/1e3, "ms")
	m.add("index.bytes", float64(ix.Stats().FootprintBytes), "count")
	searcher := index.NewSearcher(ix, in.db, p, index.SearchOptions{})
	epoch := &align.Epoch{DB: in.db, Filter: searcher}
	cand := &timings{name: "index.candidates"}
	search := &timings{name: "index.search", below: "index.candidates"}
	var ncand, inCand, ofCand int
	for q := range enc {
		var got []int
		cand.time(q, func() { got = searcher.Candidates(enc[q], 0) })
		ncand += len(got)
		if q < deep {
			have := make(map[int]bool, len(got))
			for _, t := range got {
				have[t] = true
			}
			for _, hit := range exact[q] {
				ofCand++
				if have[hit.Index] {
					inCand++
				}
			}
		}
		search.time(q, func() {
			epoch.Search(p, enc[q], align.SearchConfig{Kernel: align.KernelSWAR, TopK: topK})
		})
	}
	m.add("index.candidates_us", median(cand.us), "us")
	m.add("index.candidates_per_query", float64(ncand)/float64(len(enc)), "count")
	m.add("index.search_us", median(search.us), "us")
	m.add("index.rescore_share", 1-median(cand.us)/median(search.us), "ratio")
	m.add("index.true_in_candidates", ratio(float64(inCand), float64(ofCand)), "ratio")

	// snapshot: the container round trip and an idle swap.
	path := filepath.Join(dir, "ladder.snap")
	defer os.Remove(path)
	st := &timings{}
	var serr error
	st.time(0, func() { _, serr = snapshot.Write(path, in.db, ix, snapshot.Manifest{Version: "ladder", Tool: "bench"}) })
	if serr != nil {
		return nil, fmt.Errorf("snapshot.Write: %w", serr)
	}
	for _, verify := range []bool{false, true} {
		var snap *snapshot.Snapshot
		st.time(0, func() { snap, serr = snapshot.Open(path, snapshot.OpenOptions{Verify: verify}) })
		if serr != nil {
			return nil, fmt.Errorf("snapshot.Open: %w", serr)
		}
		if verify {
			m.add("snapshot.file_bytes", float64(snap.SizeBytes()), "count")
		}
		snap.Close()
	}
	idle, err := server.New(in.db, ix, server.Config{Logf: quiet})
	if err != nil {
		return nil, fmt.Errorf("idle server: %w", err)
	}
	st.time(0, func() { serr = idle.Swap(in.db, ix, "ladder", nil) })
	idle.Close()
	if serr != nil {
		return nil, fmt.Errorf("Server.Swap: %w", serr)
	}
	m.add("snapshot.write_ms", st.us[0]/1e3, "ms")
	m.add("snapshot.open_ms", st.us[1]/1e3, "ms")
	m.add("snapshot.open_verify_ms", st.us[2]/1e3, "ms")
	m.add("snapshot.swap_ms", st.us[3]/1e3, "ms")

	// server: the handler through a recorder (no socket), then the same
	// requests over loopback TCP. The wide queries are new to the server,
	// so their first pass misses the cache and every later pass hits.
	handler := h.full.srv.Handler()
	var callErr error // the first failed call of the rungs below
	fail := func(format string, args ...any) {
		if callErr == nil {
			callErr = fmt.Errorf(format, args...)
		}
	}
	viaRecorder := func(req server.SearchRequest) func() {
		body, _ := json.Marshal(&req) // a struct of strings and ints cannot fail
		return func() {
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				fail("handler answered %d: %s", rec.Code, rec.Body.Bytes())
			}
		}
	}
	pipeExact := &timings{name: "server.pipeline_exact", below: "align.scan_wN"}
	for q := 0; q < deep; q++ {
		pipeExact.time(q, viaRecorder(server.SearchRequest{Query: wide[q], Exhaustive: true}))
	}
	pipeIdx := &timings{name: "server.pipeline", below: "index.search"}
	pipeHit := &timings{name: "server.pipeline_hit"}
	for q := range wide {
		pipeIdx.time(q, viaRecorder(server.SearchRequest{Query: wide[q]}))
	}
	for rep := 0; rep < hitReps; rep++ {
		for q := range wide {
			pipeHit.time(q, viaRecorder(server.SearchRequest{Query: wide[q]}))
		}
	}
	m.add("server.pipeline_exact_us", median(pipeExact.us), "us")
	m.add("server.pipeline_indexed_us", median(pipeIdx.us), "us")
	m.add("server.pipeline_hit_us", median(pipeHit.us), "us")
	m.add("server.pipeline_over_scan", median(pipeExact.us)-median(scanN.us), "us")
	m.add("server.pipeline_over_index", median(pipeIdx.us)-median(search.us), "us")

	one := newClient(h.full.url, 1, nil)
	defer one.close()
	viaHTTP := func(c *client, q int) func() {
		return func() {
			e := exchange{req: server.SearchRequest{Query: wide[q]}}
			c.post(time.Now(), &e)
			if !e.ok() {
				fail("%s answered %d %s", c.url, e.status, e.err)
			}
		}
	}
	httpHit := &timings{name: "server.http", below: "server.pipeline_hit"}
	for rep := 0; rep < hitReps; rep++ {
		for q := range wide {
			httpHit.time(q, viaHTTP(one, q))
		}
	}
	m.add("server.http_hit_us", median(httpHit.us), "us")
	m.add("server.http_overhead_us", median(httpHit.us)-median(pipeHit.us), "us")

	lines := len(wide) * 64
	ph, serr := one.stream("", server.DefaultStreamWindow, func(i int, _ time.Duration) (string, bool) {
		return wide[i%len(wide)], i < lines
	})
	if serr != nil {
		return nil, fmt.Errorf("all-hit stream: %w", serr)
	}
	m.add("server.stream_line_us", us(ph.elapsed)/float64(lines), "us")

	// cluster: the same queries through the router. The shards have
	// never seen them, so the first pass misses on both and the rest hit.
	routed := newClient(h.router.url, 1, nil)
	defer routed.close()
	routedMiss := &timings{name: "cluster.routed_miss", below: "server.pipeline"}
	routedHit := &timings{name: "cluster.routed", below: "server.http"}
	for q := range wide {
		routedMiss.time(q, viaHTTP(routed, q))
	}
	for rep := 0; rep < hitReps; rep++ {
		for q := range wide {
			routedHit.time(q, viaHTTP(routed, q))
		}
	}
	if callErr != nil {
		return nil, callErr
	}
	m.add("cluster.routed_hit_us", median(routedHit.us), "us")
	m.add("cluster.routed_miss_us", median(routedMiss.us), "us")
	m.add("cluster.route_overhead_us", median(routedHit.us)-median(httpHit.us), "us")

	// Spans and the self-time table, top rung first so that each span can
	// name the rung above it as its parent.
	order := []*timings{routedHit, httpHit, pipeHit, routedMiss, pipeIdx, search, cand, pipeExact, scanN, scan1, kSWAR}
	ids := make(map[string][]int)
	dur := make(map[string]float64)
	for _, t := range order {
		dur[t.name] = median(t.us)
	}
	var table []rung
	for _, t := range order {
		parentOf := ""
		for _, up := range order {
			if up.below == t.name {
				parentOf = up.name
			}
		}
		ids[t.name] = make([]int, len(t.at))
		for q, iv := range t.at {
			parent := 0
			if up := ids[parentOf]; q < len(up) {
				parent = up[q]
			}
			ids[t.name][q] = tr.add(parent, "ladder/"+strconv.Itoa(q), t.name, iv[0], iv[1])
		}
		r := rung{name: t.name, below: t.below, dur: dur[t.name], self: dur[t.name]}
		if t.below != "" {
			r.self -= dur[t.below]
		}
		table = append(table, r)
	}
	return table, nil
}
