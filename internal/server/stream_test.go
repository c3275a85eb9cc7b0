package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/align"
	"repro/internal/bio"
)

// The /search/stream suite over the real pipeline. The streaming
// protocol's whole contract is "the batch pipeline's throughput without
// giving anything up", so the tests here pin the giving-nothing-up
// half: per-line results bit-identical to single POSTs across kernels,
// paths, and window sizes. The protocol itself — malformed lines, drain
// and stall cutoffs, terminal-line accounting, flow control — is the
// Frontend's and is tested once, against a stub Backend, in
// frontend_test.go.

// streamBody builds an NDJSON body from marshaled request lines.
func streamBody(t testing.TB, reqs []StreamRequest) string {
	t.Helper()
	var b strings.Builder
	for _, r := range reqs {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// collectStream reads a whole NDJSON response: every non-terminal line
// in arrival order, plus the terminal line, which must be present
// exactly once and last. Lines are decoded strictly so the suite also
// pins the wire field names.
func collectStream(t testing.TB, body io.Reader) ([]StreamResult, StreamResult) {
	t.Helper()
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var lines []StreamResult
	sawTerminal := false
	for sc.Scan() {
		if sawTerminal {
			t.Fatalf("line after the terminal line: %s", sc.Text())
		}
		dec := json.NewDecoder(bytes.NewReader(sc.Bytes()))
		dec.DisallowUnknownFields()
		var res StreamResult
		if err := dec.Decode(&res); err != nil {
			t.Fatalf("decoding response line %q: %v", sc.Text(), err)
		}
		lines = append(lines, res)
		sawTerminal = res.Terminal
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream response: %v", err)
	}
	if !sawTerminal {
		t.Fatalf("stream ended without a terminal line (%d lines)", len(lines))
	}
	return lines[:len(lines)-1], lines[len(lines)-1]
}

// postStream ships one complete NDJSON body over a real connection and
// returns the decoded response lines.
func postStream(t testing.TB, url, body string) ([]StreamResult, StreamResult) {
	t.Helper()
	resp, err := http.Post(url+"/search/stream", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /search/stream: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type %q, want application/x-ndjson", ct)
	}
	return collectStream(t, resp.Body)
}

// TestStreamMatchesSinglePosts is the protocol's reason to exist: for
// every kernel, on both the indexed and the exhaustive path, under
// different worker counts and window sizes, one streamed line returns
// hits bit-identical to the equivalent single POST /search. Caching is
// disabled so both sides genuinely compute.
func TestStreamMatchesSinglePosts(t *testing.T) {
	db := testDB(t, 120)
	for _, cfg := range []Config{
		{Workers: 1, StreamWindow: 1, CacheEntries: -1},
		{Workers: 3, StreamWindow: 8, CacheEntries: -1},
	} {
		s := newTestServer(t, db, cfg)
		httpSrv := httptest.NewServer(s.Handler())
		q := queryString()

		var reqs []StreamRequest
		want := map[string]SearchResponse{}
		for _, kernel := range align.KernelNames() {
			for _, exhaustive := range []bool{true, false} {
				sr := SearchRequest{Query: q, Kernel: kernel, K: 7, Exhaustive: exhaustive}
				id := fmt.Sprintf("%s/exh=%v", kernel, exhaustive)
				resp, code := doSearch(t, s, sr)
				if code != http.StatusOK {
					t.Fatalf("%s: single POST status %d", id, code)
				}
				want[id] = resp
				reqs = append(reqs, StreamRequest{ID: id, SearchRequest: sr})
			}
		}

		lines, terminal := postStream(t, httpSrv.URL, streamBody(t, reqs))
		if len(lines) != len(reqs) {
			t.Fatalf("cfg %+v: %d result lines, want %d (terminal %+v)", cfg, len(lines), len(reqs), terminal)
		}
		for _, line := range lines {
			ref, ok := want[line.ID]
			if !ok {
				t.Fatalf("cfg %+v: unknown id %q in stream", cfg, line.ID)
			}
			delete(want, line.ID)
			if line.Error != "" {
				t.Errorf("cfg %+v id %s: error %s (%s)", cfg, line.ID, line.Error, line.Detail)
				continue
			}
			if fmt.Sprint(line.Hits) != fmt.Sprint(ref.Hits) {
				t.Errorf("cfg %+v id %s: hits diverged from single POST:\n got %v\nwant %v",
					cfg, line.ID, line.Hits, ref.Hits)
			}
			if line.Kernel != ref.Kernel || line.K != ref.K ||
				line.Exhaustive != ref.Exhaustive || line.QueryLen != ref.QueryLen {
				t.Errorf("cfg %+v id %s: metadata diverged: got %+v want %+v", cfg, line.ID, line, ref)
			}
		}
		if len(want) != 0 {
			t.Errorf("cfg %+v: ids never answered: %v", cfg, want)
		}
		if !terminal.Terminal || terminal.Error != "" ||
			terminal.Lines != int64(len(reqs)) || terminal.Results != int64(len(reqs)) || terminal.Errors != 0 {
			t.Errorf("cfg %+v: terminal line %+v, want clean EOF with %d/%d/0", cfg, terminal, len(reqs), len(reqs))
		}
		httpSrv.Close()
		s.Close()
	}
}

// TestStreamOutOfOrderReassembly streams many distinct queries through
// a concurrent window and checks every id gets its own query's answer
// back, whatever order the lines arrived in.
func TestStreamOutOfOrderReassembly(t *testing.T) {
	db := testDB(t, 100)
	s := newTestServer(t, db, Config{Workers: 3, StreamWindow: 8, CacheEntries: -1})
	httpSrv := httptest.NewServer(s.Handler())
	defer httpSrv.Close()

	const n = 24
	var reqs []StreamRequest
	want := map[string]SearchResponse{}
	for i := 0; i < n; i++ {
		q := bio.Decode(db.Seqs[i%db.NumSeqs()].Residues)
		sr := SearchRequest{Query: q, K: 3, Exhaustive: i%2 == 0}
		id := fmt.Sprintf("q%02d", i)
		resp, code := doSearch(t, s, sr)
		if code != http.StatusOK {
			t.Fatalf("%s: single POST status %d", id, code)
		}
		want[id] = resp
		reqs = append(reqs, StreamRequest{ID: id, SearchRequest: sr})
	}

	lines, terminal := postStream(t, httpSrv.URL, streamBody(t, reqs))
	if len(lines) != n || terminal.Results != n {
		t.Fatalf("%d lines, terminal %+v, want %d results", len(lines), terminal, n)
	}
	for _, line := range lines {
		ref, ok := want[line.ID]
		if !ok {
			t.Fatalf("unknown or duplicate id %q", line.ID)
		}
		delete(want, line.ID)
		if line.Error != "" || fmt.Sprint(line.Hits) != fmt.Sprint(ref.Hits) {
			t.Errorf("id %s: got error=%q hits %v, want hits %v", line.ID, line.Error, line.Hits, ref.Hits)
		}
	}
}

// TestStreamAllVsAll pins the coalesced bulk mode: all_vs_all lines
// return hits bit-identical to explicit exhaustive POSTs of the same
// queries, including when the coalesced batch is allowed to grow past
// MaxBatch.
func TestStreamAllVsAll(t *testing.T) {
	db := testDB(t, 100)
	// MaxBatch 2 with 12 queries: the coalescing exemption must engage
	// for the stream to batch wider than single POSTs ever could.
	s := newTestServer(t, db, Config{Workers: 3, MaxBatch: 2, StreamWindow: 16,
		BatchWindow: 2 * time.Millisecond, CacheEntries: -1})
	httpSrv := httptest.NewServer(s.Handler())
	defer httpSrv.Close()

	const n = 12
	var reqs []StreamRequest
	want := map[string]SearchResponse{}
	for i := 0; i < n; i++ {
		q := bio.Decode(db.Seqs[(i*7)%db.NumSeqs()].Residues)
		id := fmt.Sprintf("ava%02d", i)
		resp, code := doSearch(t, s, SearchRequest{Query: q, K: 5, Exhaustive: true})
		if code != http.StatusOK {
			t.Fatalf("%s: reference POST status %d", id, code)
		}
		want[id] = resp
		reqs = append(reqs, StreamRequest{ID: id, Mode: StreamModeAllVsAll,
			SearchRequest: SearchRequest{Query: q, K: 5}})
	}

	lines, terminal := postStream(t, httpSrv.URL, streamBody(t, reqs))
	if len(lines) != n || terminal.Errors != 0 {
		t.Fatalf("%d lines, terminal %+v", len(lines), terminal)
	}
	for _, line := range lines {
		ref := want[line.ID]
		if line.Error != "" {
			t.Errorf("id %s: error %s (%s)", line.ID, line.Error, line.Detail)
			continue
		}
		if !line.Exhaustive {
			t.Errorf("id %s: all_vs_all not normalized to exhaustive", line.ID)
		}
		if fmt.Sprint(line.Hits) != fmt.Sprint(ref.Hits) {
			t.Errorf("id %s: all_vs_all diverged from exhaustive POST:\n got %v\nwant %v",
				line.ID, line.Hits, ref.Hits)
		}
	}
	if got := s.Stats().MeanBatch; got <= float64(s.cfg.MaxBatch) {
		t.Logf("mean batch %.1f (coalescing wider than MaxBatch=%d not observed this run)", got, s.cfg.MaxBatch)
	}
}

// TestStreamStatsz pins the /statsz streaming section CI's jq
// assertions read: the counters move, the wire names hold.
func TestStreamStatsz(t *testing.T) {
	db := testDB(t, 60)
	s := newTestServer(t, db, Config{Workers: 2, StreamWindow: 5})
	httpSrv := httptest.NewServer(s.Handler())
	defer httpSrv.Close()

	reqs := []StreamRequest{
		{ID: "a", SearchRequest: SearchRequest{Query: queryString(), K: 3}},
		{ID: "b", SearchRequest: SearchRequest{Query: "", K: 3}}, // one error line
	}
	if _, terminal := postStream(t, httpSrv.URL, streamBody(t, reqs)); terminal.Results != 1 || terminal.Errors != 1 {
		t.Fatalf("terminal %+v, want 1 result + 1 error", terminal)
	}

	stats := s.Stats()
	if stats.Streams.Total != 1 || stats.Streams.Open != 0 || stats.Streams.InFlight != 0 {
		t.Errorf("streams gauge %+v, want total=1 open=0 in_flight=0 after close", stats.Streams)
	}
	if stats.Streams.Lines != 2 || stats.Streams.Results != 1 || stats.Streams.Errors != 1 {
		t.Errorf("streams counters %+v, want lines=2 results=1 errors=1", stats.Streams)
	}
	if stats.Streams.Window != 5 {
		t.Errorf("streams window %d, want 5", stats.Streams.Window)
	}
	if stats.StreamQPS <= 0 {
		t.Errorf("stream_qps %v, want > 0 after a served stream", stats.StreamQPS)
	}

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/statsz", nil))
	for _, field := range []string{`"stream_qps"`, `"streams"`, `"open"`, `"lines"`, `"results"`, `"in_flight"`, `"window"`} {
		if !strings.Contains(rec.Body.String(), field) {
			t.Errorf("/statsz body lacks %s", field)
		}
	}
}
