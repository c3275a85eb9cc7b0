package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/align"
	"repro/internal/bio"
	"repro/internal/faults"
	"repro/internal/index"
	"repro/internal/server"
)

// testDB builds the deterministic homolog-rich synthetic database the
// cluster tests shard, the same one the server tests use.
func testDB(t testing.TB, n int) *bio.Database {
	t.Helper()
	spec := bio.DefaultDBSpec(n)
	spec.Related = 10
	spec.RelatedTo = bio.GlutathioneQuery()
	return bio.SyntheticDB(spec)
}

// startShard runs one real seqserve backend over db's [lo:hi) slice
// and returns its host:port. This is exactly what `seqserve -shard
// lo:hi` does in production: the slice comes from the same global
// ordering, hit indexes are shard-local.
func startShard(t testing.TB, db *bio.Database, lo, hi int) string {
	t.Helper()
	sliced := bio.NewDatabase(db.Seqs[lo:hi])
	ix := index.Build(sliced, index.Options{})
	s, err := server.New(sliced, ix, server.Config{Workers: 2})
	if err != nil {
		t.Fatalf("shard %d:%d: %v", lo, hi, err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return strings.TrimPrefix(ts.URL, "http://")
}

// fastConfig is the test coordinator baseline: probing off (every
// backend selectable), hedging off, small backoffs so chaos rounds
// finish quickly. Tests override what they exercise.
func fastConfig() Config {
	return Config{
		ProbeInterval: -1,
		HedgeQuantile: -1,
		TryTimeout:    5 * time.Second,
		RetryBaseWait: time.Millisecond,
		RetryMaxWait:  5 * time.Millisecond,
	}
}

func newCoord(t testing.TB, m *ShardMap, cfg Config) *Coordinator {
	t.Helper()
	cfg.Logf = t.Logf
	c, err := New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// shardFleet builds a ShardMap over real backends tiling db with the
// given cut points (e.g. cuts 0,60,120 = shards [0,60) and [60,120)).
func shardFleet(t testing.TB, db *bio.Database, cuts []int) *ShardMap {
	t.Helper()
	m := &ShardMap{Version: 1, NumSeqs: db.NumSeqs()}
	for i := 1; i < len(cuts); i++ {
		lo, hi := cuts[i-1], cuts[i]
		m.Shards = append(m.Shards, Shard{Lo: lo, Hi: hi, Backends: []string{startShard(t, db, lo, hi)}})
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return m
}

// singleNode asks one full-database backend directly — the reference
// answer sharded serving must reproduce bit for bit.
func singleNode(t testing.TB, addr string, req server.SearchRequest) server.SearchResponse {
	t.Helper()
	body, _ := json.Marshal(&req)
	resp, err := http.Post("http://"+addr+"/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr server.SearchResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single-node status %d", resp.StatusCode)
	}
	return sr
}

// TestShardedBitIdentity is the tentpole property: for every kernel,
// the scatter-gathered top-K over 1, 2 and 4 shards is bit-identical
// to the single-node answer — including with one shard's tries
// delayed through the shard.slow fault site (latency must never
// change WHAT is returned).
func TestShardedBitIdentity(t *testing.T) {
	db := testDB(t, 120)
	full := startShard(t, db, 0, 120)
	queries := []string{
		bio.GlutathioneQuery().String(),
		bio.Decode(db.Seqs[3].Residues),
		bio.Decode(db.Seqs[117].Residues),
	}

	for _, cuts := range [][]int{
		{0, 120},
		{0, 60, 120},
		{0, 30, 60, 90, 120},
	} {
		m := shardFleet(t, db, cuts)
		for _, delayed := range []bool{false, true} {
			cfg := fastConfig()
			if delayed {
				reg := faults.NewRegistry(99)
				reg.Arm(faults.ShardSlow, faults.Fault{Every: 3, Delay: 5 * time.Millisecond})
				cfg.Faults = reg
			}
			c := newCoord(t, m, cfg)
			for qi, q := range queries {
				for _, kernel := range align.KernelNames() {
					req := server.SearchRequest{Query: q, Kernel: kernel, K: 7, Exhaustive: true}
					want := singleNode(t, full, req)
					got, _, aerr := c.Search(context.Background(), &Request{SearchRequest: req})
					if aerr != nil {
						t.Fatalf("shards=%d delayed=%v q%d %s: %s (%s)", len(cuts)-1, delayed, qi, kernel, aerr.Code, aerr.Detail)
					}
					if !got.Complete || got.ShardsOK != len(cuts)-1 || len(got.ShardsFailed) != 0 {
						t.Fatalf("shards=%d q%d %s: accounting %+v", len(cuts)-1, qi, kernel, got)
					}
					if !reflect.DeepEqual(got.Hits, want.Hits) {
						t.Fatalf("shards=%d delayed=%v q%d %s: hits diverge\n got: %+v\nwant: %+v",
							len(cuts)-1, delayed, qi, kernel, got.Hits, want.Hits)
					}
					if got.Kernel != want.Kernel || got.K != want.K || got.QueryLen != want.QueryLen || got.Exhaustive != want.Exhaustive {
						t.Fatalf("shards=%d q%d %s: metadata diverges: %+v vs %+v", len(cuts)-1, qi, kernel, got, want)
					}
				}
			}
		}
	}
}

// TestPartialResults: a shard dead past its retry budget degrades the
// answer to 200 complete:false with honest accounting — and
// require_complete flips the same situation to 503 shards_failed.
func TestPartialResults(t *testing.T) {
	db := testDB(t, 80)
	m := shardFleet(t, db, []int{0, 40, 80})
	// Kill shard 1's only backend: its address now refuses connections.
	m.Shards[1].Backends[0] = "127.0.0.1:1" // reserved port, guaranteed refused

	cfg := fastConfig()
	cfg.Retries = 1
	cfg.TryTimeout = 500 * time.Millisecond
	c := newCoord(t, m, cfg)

	req := server.SearchRequest{Query: bio.GlutathioneQuery().String(), K: 5, Exhaustive: true}
	got, _, aerr := c.Search(context.Background(), &Request{SearchRequest: req})
	if aerr != nil {
		t.Fatalf("degraded search errored: %s (%s)", aerr.Code, aerr.Detail)
	}
	if got.Complete || got.ShardsOK != 1 || !reflect.DeepEqual(got.ShardsFailed, []int{1}) {
		t.Fatalf("accounting = complete=%v ok=%d failed=%v", got.Complete, got.ShardsOK, got.ShardsFailed)
	}
	// The partial answer is exactly the live shard's: every hit within
	// [0, 40), still ranked.
	if len(got.Hits) == 0 {
		t.Fatal("partial answer lost the live shard's hits")
	}
	for _, h := range got.Hits {
		if h.Index < 0 || h.Index >= 40 {
			t.Fatalf("partial hit index %d outside the live shard", h.Index)
		}
	}
	if c.m.partials.Value() != 1 {
		t.Fatalf("partials counter = %d, want 1", c.m.partials.Value())
	}

	// require_complete refuses the degraded answer.
	_, _, aerr = c.Search(context.Background(), &Request{SearchRequest: req, RequireComplete: true})
	if aerr == nil || aerr.Code != ErrShardsFailed || aerr.Status != http.StatusServiceUnavailable {
		t.Fatalf("require_complete: got %+v, want 503 %s", aerr, ErrShardsFailed)
	}
	if aerr.RetryAfter <= 0 {
		t.Fatal("shards_failed should carry Retry-After")
	}
}

// TestAllShardsFailed: the extreme of graceful degradation is a 200
// with zero hits and shards_ok 0 — not an invented 5xx.
func TestAllShardsFailed(t *testing.T) {
	m := &ShardMap{Version: 1, NumSeqs: 10, Shards: []Shard{{Lo: 0, Hi: 10, Backends: []string{"127.0.0.1:1"}}}}
	cfg := fastConfig()
	cfg.Retries = 0
	cfg.TryTimeout = 200 * time.Millisecond
	c := newCoord(t, m, cfg)
	got, _, aerr := c.Search(context.Background(), &Request{SearchRequest: server.SearchRequest{Query: "MTDKL", K: 3}})
	if aerr != nil {
		t.Fatalf("errored: %s", aerr.Code)
	}
	if got.Complete || got.ShardsOK != 0 || len(got.Hits) != 0 {
		t.Fatalf("got %+v", got)
	}
	if got.K != 3 || got.QueryLen != 5 {
		t.Fatalf("best-effort metadata wrong: %+v", got)
	}
}

// TestFatal4xxPropagates: a request the backends reject (empty query,
// unknown kernel) comes back with the backend's own sentinel, not a
// retry storm — the coordinator must not burn its budget on a request
// that can never succeed.
func TestFatal4xxPropagates(t *testing.T) {
	db := testDB(t, 40)
	m := shardFleet(t, db, []int{0, 40})
	cfg := fastConfig()
	cfg.Retries = 5
	c := newCoord(t, m, cfg)

	for _, tc := range []struct {
		req  server.SearchRequest
		code string
	}{
		{server.SearchRequest{Query: ""}, server.ErrEmptyQuery},
		{server.SearchRequest{Query: "MTDKL", Kernel: "nope"}, server.ErrUnknownKernel},
		{server.SearchRequest{Query: "MTDKL", K: -4}, server.ErrBadK},
	} {
		before := c.m.tries.Value(m.Shards[0].Backends[0])
		_, _, aerr := c.Search(context.Background(), &Request{SearchRequest: tc.req})
		if aerr == nil || aerr.Code != tc.code {
			t.Fatalf("req %+v: got %+v, want code %s", tc.req, aerr, tc.code)
		}
		if tries := c.m.tries.Value(m.Shards[0].Backends[0]) - before; tries != 1 {
			t.Fatalf("req %+v: %d tries for a fatal 4xx, want 1", tc.req, tries)
		}
	}
}

// TestChaosFlakyShardsAbsorbed is the deterministic chaos suite: with
// shard.conn and shard.err5xx firing at double-digit rates, retries
// absorb the noise — requests without require_complete NEVER see a
// 5xx, and every complete answer stays bit-identical.
func TestChaosFlakyShardsAbsorbed(t *testing.T) {
	db := testDB(t, 80)
	full := startShard(t, db, 0, 80)
	m := shardFleet(t, db, []int{0, 40, 80})

	reg := faults.NewRegistry(42)
	reg.Arm(faults.ShardConn, faults.Fault{Rate: 0.25})
	reg.Arm(faults.ShardErr5xx, faults.Fault{Rate: 0.15})
	cfg := fastConfig()
	cfg.Faults = reg
	cfg.Retries = 4
	c := newCoord(t, m, cfg)

	req := server.SearchRequest{Query: bio.GlutathioneQuery().String(), K: 5, Exhaustive: true}
	want := singleNode(t, full, req)
	complete := 0
	const rounds = 40
	for i := 0; i < rounds; i++ {
		got, _, aerr := c.Search(context.Background(), &Request{SearchRequest: req})
		if aerr != nil {
			t.Fatalf("round %d: chaos surfaced as an error: %s (%s)", i, aerr.Code, aerr.Detail)
		}
		if got.Complete {
			complete++
			if !reflect.DeepEqual(got.Hits, want.Hits) {
				t.Fatalf("round %d: complete answer diverges under chaos", i)
			}
		}
	}
	if complete < rounds*8/10 {
		t.Fatalf("only %d/%d rounds complete; retries are not absorbing the configured fault rates", complete, rounds)
	}
	if reg.Fired(faults.ShardConn) == 0 || reg.Fired(faults.ShardErr5xx) == 0 {
		t.Fatalf("chaos sites never fired (conn=%d, err5xx=%d) — the test exercised nothing",
			reg.Fired(faults.ShardConn), reg.Fired(faults.ShardErr5xx))
	}
	t.Logf("chaos: %d/%d complete, conn faults=%d, 5xx faults=%d, retries=%d",
		complete, rounds, reg.Fired(faults.ShardConn), reg.Fired(faults.ShardErr5xx),
		c.m.retries.Value(m.Shards[0].Backends[0])+c.m.retries.Value(m.Shards[1].Backends[0]))
}

// cannedBackend is a fake shard replica: /search answers a fixed
// SearchResponse after an optional delay, /readyz answers a settable
// status. For replica-selection tests where real alignment is noise.
type cannedBackend struct {
	delay   time.Duration
	fail    atomic.Bool
	ready   atomic.Int32
	hits    []server.Hit
	calls   atomic.Int64
	version atomic.Pointer[string] // snapshot_version stamp; nil = unversioned
}

func (cb *cannedBackend) setVersion(v string) { cb.version.Store(&v) }

func startCanned(t testing.TB, cb *cannedBackend) string {
	t.Helper()
	cb.ready.Store(http.StatusOK)
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(int(cb.ready.Load()))
	})
	mux.HandleFunc("/search", func(w http.ResponseWriter, r *http.Request) {
		cb.calls.Add(1)
		if cb.delay > 0 {
			select {
			case <-time.After(cb.delay):
			case <-r.Context().Done():
				return
			}
		}
		if cb.fail.Load() {
			http.Error(w, "canned failure", http.StatusInternalServerError)
			return
		}
		// Echo the requested K the way a real seqserve does — the
		// coordinator trusts the first shard's meta for the merged topK.
		var req server.SearchRequest
		_ = json.NewDecoder(r.Body).Decode(&req)
		k := req.K
		if k <= 0 {
			k = server.DefaultTopK
		}
		sr := server.SearchResponse{
			QueryLen: 5, Kernel: "swar", K: k, Hits: cb.hits,
		}
		if v := cb.version.Load(); v != nil {
			sr.SnapshotVersion = *v
		}
		_ = json.NewEncoder(w).Encode(sr)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return strings.TrimPrefix(ts.URL, "http://")
}

var cannedHits = []server.Hit{{Index: 0, ID: "t0", Len: 5, Score: 9}}

// TestHedgedTryRescuesSlowReplica: a try that outlives the hedge delay
// gets a second try on the other replica; the fast answer wins well
// before the slow one would have finished.
func TestHedgedTryRescuesSlowReplica(t *testing.T) {
	fast := &cannedBackend{hits: cannedHits}
	slow := &cannedBackend{hits: cannedHits, delay: 2 * time.Second}
	fastAddr, slowAddr := startCanned(t, fast), startCanned(t, slow)
	m := &ShardMap{Version: 1, NumSeqs: 10, Shards: []Shard{
		// Rotation starts at next.Add(1)=1: backends[1] (slow) gets the
		// first try, so the hedge is what must save the query.
		{Lo: 0, Hi: 10, Backends: []string{fastAddr, slowAddr}},
	}}
	cfg := fastConfig()
	cfg.HedgeQuantile = DefaultHedgeQuantile // enable hedging
	cfg.HedgeMinWait = 10 * time.Millisecond
	cfg.Retries = 2
	c := newCoord(t, m, cfg)

	start := time.Now()
	got, _, aerr := c.Search(context.Background(), &Request{SearchRequest: server.SearchRequest{Query: "MTDKL", K: 1}})
	if aerr != nil {
		t.Fatalf("hedged search failed: %s", aerr.Code)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("hedge did not rescue: took %v (slow replica is 2s)", elapsed)
	}
	if !got.Complete || len(got.Hits) != 1 {
		t.Fatalf("got %+v", got)
	}
	if hedges := c.m.hedges.Value(fastAddr) + c.m.hedges.Value(slowAddr); hedges == 0 {
		t.Fatal("no hedge was recorded")
	}
	if fast.calls.Load() == 0 {
		t.Fatal("the fast replica was never tried")
	}
}

// TestBreakerEjectsFailingReplica: a replica that fails every try
// trips its breaker after the threshold; traffic then flows to the
// healthy replica without burning retries on the broken one.
func TestBreakerEjectsFailingReplica(t *testing.T) {
	good := &cannedBackend{hits: cannedHits}
	bad := &cannedBackend{hits: cannedHits}
	bad.fail.Store(true)
	goodAddr, badAddr := startCanned(t, good), startCanned(t, bad)
	m := &ShardMap{Version: 1, NumSeqs: 10, Shards: []Shard{
		{Lo: 0, Hi: 10, Backends: []string{goodAddr, badAddr}},
	}}
	cfg := fastConfig()
	cfg.Retries = 2
	cfg.BreakerThreshold = 3
	cfg.BreakerCooldown = time.Minute // stays open for the whole test
	c := newCoord(t, m, cfg)

	req := &Request{SearchRequest: server.SearchRequest{Query: "MTDKL", K: 1}}
	for i := 0; i < 20; i++ {
		got, _, aerr := c.Search(context.Background(), req)
		if aerr != nil || !got.Complete {
			t.Fatalf("round %d: %+v / %+v", i, got, aerr)
		}
	}
	st := c.StatsSnapshot()
	var badRow BackendStatus
	for _, row := range st.Backends {
		if row.Addr == badAddr {
			badRow = row
		}
	}
	if badRow.Breaker != "open" {
		t.Fatalf("bad replica's breaker = %q, want open (%+v)", badRow.Breaker, badRow)
	}
	// Once open, the rotation must stop offering the bad replica first:
	// its try count stays pinned near the threshold while the good one
	// absorbs the rest.
	if badTries := bad.calls.Load(); badTries > int64(cfg.BreakerThreshold)+2 {
		t.Fatalf("bad replica kept receiving tries after its breaker opened: %d", badTries)
	}
	if c.m.failures.Value(badAddr) == 0 {
		t.Fatal("failure counter never moved for the failing replica")
	}
}

// TestHealthProbingGatesReadiness: the prober ejects a backend whose
// /readyz goes dark and recovers it when it comes back; Ready() (the
// router's /readyz) tracks every-shard-has-an-up-backend.
func TestHealthProbingGatesReadiness(t *testing.T) {
	cb := &cannedBackend{hits: cannedHits}
	addr := startCanned(t, cb)
	m := &ShardMap{Version: 1, NumSeqs: 10, Shards: []Shard{{Lo: 0, Hi: 10, Backends: []string{addr}}}}
	cfg := fastConfig()
	cfg.ProbeInterval = 5 * time.Millisecond
	cfg.ProbeTimeout = 200 * time.Millisecond
	cfg.EjectAfter = 2
	cfg.RecoverAfter = 1
	c := newCoord(t, m, cfg)

	waitFor := func(want bool, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if c.Ready() == want {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for Ready()==%v (%s)", want, what)
	}
	waitFor(true, "initial probes")
	cb.ready.Store(http.StatusServiceUnavailable)
	waitFor(false, "ejection after consecutive probe failures")
	cb.ready.Store(http.StatusOK)
	waitFor(true, "recovery after probes return")
}

// TestRouterEndpoints drives the full HTTP surface: /search with and
// without require_complete, /readyz, /shardmap, /metrics, and the
// partial-result envelope over the wire.
func TestRouterEndpoints(t *testing.T) {
	db := testDB(t, 80)
	m := shardFleet(t, db, []int{0, 40, 80})
	c := newCoord(t, m, fastConfig())
	rt := httptest.NewServer(NewRouter(c))
	t.Cleanup(rt.Close)

	// A routed search carries the cluster envelope.
	body, _ := json.Marshal(&Request{SearchRequest: server.SearchRequest{Query: bio.GlutathioneQuery().String(), K: 5, Exhaustive: true}})
	resp, err := http.Post(rt.URL+"/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var got Response
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || !got.Complete || got.ShardsOK != 2 || got.ShardMapVersion != 1 {
		t.Fatalf("routed search: status %d, %+v", resp.StatusCode, got)
	}
	if resp.Header.Get("X-Request-Id") == "" {
		t.Fatal("no X-Request-Id on the routed response")
	}

	// Unknown fields are rejected, by the same decode rule as a backend's.
	resp, err = http.Post(rt.URL+"/search", "application/json", strings.NewReader(`{"query":"MTDKL","nope":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d, want 400", resp.StatusCode)
	}

	// /shardmap serves the versioned map.
	resp, err = http.Get(rt.URL + "/shardmap")
	if err != nil {
		t.Fatal(err)
	}
	var sm ShardMap
	if err := json.NewDecoder(resp.Body).Decode(&sm); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sm.Version != 1 || len(sm.Shards) != 2 || sm.NumSeqs != 80 {
		t.Fatalf("/shardmap = %+v", sm)
	}

	// /metrics exposes the per-backend families.
	resp, err = http.Get(rt.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"router_backend_tries_total{backend=",
		"router_backend_breaker_state{backend=",
		"router_requests_total",
		"router_shard_try_latency_us_count{shard=\"0\"}",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// /readyz: probing is disabled in this config, so vacuously ready;
	// draining flips it (and /healthz) to 503.
	for path, wantCode := range map[string]int{"/readyz": 200, "/healthz": 200} {
		resp, err := http.Get(rt.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Fatalf("%s = %d, want %d", path, resp.StatusCode, wantCode)
		}
	}
}

// TestRouterStream drives the NDJSON path through the router. The
// protocol is the shared front-end's (tested in internal/server); what
// is the router's own is the envelope — every result line is its
// single-POST twin's routed Response behind the id — a backend's 4xx
// coming back as that line's error, and the one thing the router's old
// private pump could not do: an oversized line is a per-line
// bad_request and the lines after it still answer.
func TestRouterStream(t *testing.T) {
	db := testDB(t, 80)
	m := shardFleet(t, db, []int{0, 40, 80})
	c := newCoord(t, m, fastConfig())
	rt := httptest.NewServer(NewRouter(c))
	t.Cleanup(rt.Close)

	q := bio.GlutathioneQuery().String()
	var in bytes.Buffer
	for i := 0; i < 4; i++ {
		fmt.Fprintf(&in, `{"id":"q%d","query":%q,"k":5,"exhaustive":true}`+"\n", i, q)
	}
	fmt.Fprintf(&in, `{"id":"big","query":"%s"}`+"\n", strings.Repeat("A", 1<<20))
	in.WriteString(`{"id":"badk","query":"MTDKL","kernel":"nope"}` + "\n")
	fmt.Fprintf(&in, `{"id":"q4","query":%q,"k":5,"mode":"all_vs_all","require_complete":true}`+"\n", q)

	resp, err := http.Post(rt.URL+"/search/stream", "application/x-ndjson", bytes.NewReader(in.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("stream status %d", resp.StatusCode)
	}

	// The single-POST twin every result line must match bit for bit.
	body, _ := json.Marshal(&Request{SearchRequest: server.SearchRequest{Query: q, K: 5, Exhaustive: true}})
	postResp, err := http.Post(rt.URL+"/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var want Response
	_ = json.NewDecoder(postResp.Body).Decode(&want)
	postResp.Body.Close()

	type anyLine struct {
		ID       string `json:"id"`
		Error    string `json:"error"`
		Terminal bool   `json:"terminal"`
		Lines    int64  `json:"lines"`
		Results  int64  `json:"results"`
		Errors   int64  `json:"errors"`
		Response
	}
	results := 0
	errCodes := map[string]string{}
	var terminal *anyLine
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var line anyLine
		if err := dec.Decode(&line); err != nil {
			t.Fatal(err)
		}
		switch {
		case line.Terminal:
			terminal = &line
		case line.Error != "":
			errCodes[line.ID] = line.Error
		default:
			results++
			if !line.Complete || line.ShardsOK != 2 || line.ShardMapVersion != 1 {
				t.Fatalf("result line %s lacks the cluster envelope: %+v", line.ID, line)
			}
			if !reflect.DeepEqual(line.Hits, want.Hits) || !line.Exhaustive {
				t.Fatalf("stream line %s diverges from its single-POST twin", line.ID)
			}
		}
	}
	if results != 5 {
		t.Fatalf("stream saw %d results, want 5 — q4 sits after the oversized line and must still answer", results)
	}
	// The oversized line never decoded, so its error carries no id.
	if len(errCodes) != 2 || errCodes[""] != server.ErrBadRequest || errCodes["badk"] != server.ErrUnknownKernel {
		t.Fatalf("error lines %v, want the oversized line's %s and badk's %s", errCodes, server.ErrBadRequest, server.ErrUnknownKernel)
	}
	if terminal == nil || terminal.Lines != 7 || terminal.Results != 5 || terminal.Errors != 2 || terminal.Error != "" {
		t.Fatalf("terminal line = %+v", terminal)
	}
}

// TestWireShapes is the routed envelope's golden (internal/server's
// TestWireShapes holds the shared line kinds): one fixed Response, as a
// POST body and as the stream line the router's backend builds from it,
// compared byte for byte so field order and omitempty cannot drift.
func TestWireShapes(t *testing.T) {
	resp := Response{
		SearchResponse: server.SearchResponse{QueryLen: 4, Kernel: "swar", K: 2, Cached: true, TookUs: 7,
			Hits: []server.Hit{{Index: 41, ID: "SYN41", Len: 9, Score: 33}}, SnapshotVersion: "v2"},
		ShardsOK: 1, ShardsFailed: []int{1}, ShardMapVersion: 3, SnapshotVersions: []string{"v2"},
	}
	const body = `"query_len":4,"kernel":"swar","k":2,"exhaustive":false,"cached":true,"hits":[{"index":41,"id":"SYN41","len":9,"score":33}],"took_us":7,"snapshot_version":"v2","complete":false,"shards_ok":1,"shards_failed":[1],"shard_map_version":3,"snapshot_versions":["v2"]}`
	if got, _ := json.Marshal(&resp); string(got) != "{"+body {
		t.Errorf("routed POST body drifted:\n got %s\nwant {%s", got, body)
	}
	q := routedQuery{stream: true}
	q.line.ID = "q1"
	line, _ := json.Marshal(q.wire(&resp))
	if want := `{"id":"q1",` + body; string(line) != want {
		t.Errorf("routed result line drifted:\n got %s\nwant %s", line, want)
	}
}

// TestRouterDrain: BeginDrain refuses new work with 503/draining on
// every entry point and flips both health endpoints.
func TestRouterDrain(t *testing.T) {
	db := testDB(t, 40)
	m := shardFleet(t, db, []int{0, 40})
	c := newCoord(t, m, fastConfig())
	router := NewRouter(c)
	rt := httptest.NewServer(router)
	t.Cleanup(rt.Close)

	router.BeginDrain()
	for _, path := range []string{"/search", "/search/stream"} {
		resp, err := http.Post(rt.URL+path, "application/json", strings.NewReader(`{"query":"MTDKL"}`))
		if err != nil {
			t.Fatal(err)
		}
		var e server.ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || e.Error != server.ErrDraining {
			t.Fatalf("%s during drain: %d %s", path, resp.StatusCode, e.Error)
		}
	}
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(rt.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s during drain = %d, want 503", path, resp.StatusCode)
		}
	}
}

// TestDeadlinePropagates: a routed request that cannot finish inside
// its deadline fails with the backend-identical 408 sentinel.
func TestDeadlinePropagates(t *testing.T) {
	slow := &cannedBackend{hits: cannedHits, delay: 2 * time.Second}
	addr := startCanned(t, slow)
	m := &ShardMap{Version: 1, NumSeqs: 10, Shards: []Shard{{Lo: 0, Hi: 10, Backends: []string{addr}}}}
	cfg := fastConfig()
	cfg.Retries = 0
	c := newCoord(t, m, cfg)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, _, aerr := c.Search(ctx, &Request{SearchRequest: server.SearchRequest{Query: "MTDKL", K: 1}})
	if aerr == nil || aerr.Code != server.ErrDeadline || aerr.Status != http.StatusRequestTimeout {
		t.Fatalf("got %+v, want 408 %s", aerr, server.ErrDeadline)
	}
}
