package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
)

// The Frontend's own suite: the serving protocol — strict decode,
// per-line errors, drain and stall cutoffs, terminal-line accounting,
// the deadline rule, the wire shapes — tested once, against a stub
// Backend, because it is implemented once. What a Backend answers is
// its own suite's business (stream_test.go for the local pipeline,
// internal/cluster for the scatter-gather).

// stubBackend answers every valid query instantly with `hits` canned
// hits. A non-nil gate holds each Search until it yields a token (or
// the request's context dies, which answers with the context's
// sentinel).
type stubBackend struct {
	hits int
	gate chan struct{}
}

type stubQuery struct {
	b      *stubBackend
	stream bool
	line   StreamRequest
}

func (b *stubBackend) NewQuery(stream bool) Query { return &stubQuery{b: b, stream: stream} }
func (b *stubBackend) Health() (string, map[string]any) {
	return "", map[string]any{"stub": true}
}
func (b *stubBackend) Statsz() any { return map[string]any{"stub": true} }

func (q *stubQuery) Target() any {
	if q.stream {
		return &q.line
	}
	return &q.line.SearchRequest
}

func (q *stubQuery) Prepare(*obs.Trace) (string, int64, *APIError) {
	if _, aerr := CheckLine(q.line.ID, q.line.Mode); aerr != nil {
		return q.line.ID, 0, aerr
	}
	if q.line.Query == "" {
		return q.line.ID, 0, badRequest(ErrEmptyQuery, "query is empty")
	}
	return q.line.ID, q.line.TimeoutMs, nil
}

func (q *stubQuery) Search(ctx context.Context, _ *obs.Trace) (any, *APIError) {
	if q.b.gate != nil {
		select {
		case <-q.b.gate:
		case <-ctx.Done():
			return nil, CtxError(ctx)
		}
	}
	resp := SearchResponse{QueryLen: len(q.line.Query), Kernel: "stub", K: q.b.hits, Hits: make([]Hit, q.b.hits)}
	for i := range resp.Hits {
		resp.Hits[i] = Hit{Index: i, ID: "STUB", Desc: "a canned hit, padded so result lines have some weight", Len: 100, Score: 1000 - i}
	}
	if q.stream {
		return &StreamResult{ID: q.line.ID, SearchResponse: resp}, nil
	}
	return &resp, nil
}

func stubFrontend(b *stubBackend, cfg Config) *Frontend { return NewFrontend(b, "stub", cfg) }

// openStream starts one live /search/stream connection whose body the
// test feeds through the returned pipe.
func openStream(t testing.TB, url string) (*io.PipeWriter, *http.Response) {
	t.Helper()
	pr, pw := io.Pipe()
	t.Cleanup(func() { pw.Close() })
	req, err := http.NewRequest(http.MethodPost, url+"/search/stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("open stream: %v", err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return pw, resp
}

// TestStreamMalformedLines is the bug-hardening contract: every way a
// line can be wrong — garbage JSON, unknown fields, trailing data,
// oversized, empty query, bad mode, bad id — answers with a per-line
// sentinel error, and the stream keeps serving the valid lines around
// them. Never a connection teardown, never a 500.
func TestStreamMalformedLines(t *testing.T) {
	f := stubFrontend(&stubBackend{hits: 3}, Config{})
	httpSrv := httptest.NewServer(f)
	defer httpSrv.Close()

	body := strings.Join([]string{
		`{"id":"ok-1","query":"ACDE"}`,
		`{garbage`,                                           // malformed JSON
		`{"query":"ACDE","bogus":1}`,                         // unknown field
		`{"id":"trail","query":"ACDE"} {}`,                   // trailing data after the object
		`{"id":"close","query":"ACDE"} }`,                    // trailing data json.Decoder.More misses
		`{"id":"empty","query":""}`,                          // empty query
		`{"id":"mode","query":"ACDE","mode":"some_vs_some"}`, // bad mode
		`{"id":"` + strings.Repeat("x", MaxStreamIDLen+1) + `","query":"ACDE"}`,  // oversized id
		`{"id":"big","query":"` + strings.Repeat("A", maxStreamLineBytes) + `"}`, // oversized line
		"",   // blank keep-alive, not a request line
		"\r", // CRLF blank line
		`{"id":"ok-2","query":"ACDE"}`,
	}, "\n") + "\n"

	lines, terminal := postStream(t, httpSrv.URL, body)

	wantErr := map[string]string{ // id (when decodable) -> sentinel
		"empty": ErrEmptyQuery,
		"mode":  ErrBadMode,
	}
	var gotOK, gotErr int
	codes := map[string]int{}
	for _, line := range lines {
		if len(line.ID) > MaxStreamIDLen {
			t.Errorf("a %d-byte id was echoed back", len(line.ID))
		}
		if line.Error == "" {
			gotOK++
			if line.ID != "ok-1" && line.ID != "ok-2" {
				t.Errorf("unexpected success for id %q", line.ID)
			}
			if len(line.Hits) != 3 {
				t.Errorf("id %s: %d hits, want 3", line.ID, len(line.Hits))
			}
			continue
		}
		gotErr++
		codes[line.Error]++
		if line.RequestID == "" {
			t.Errorf("error line %+v lacks its trace id", line)
		}
		if want, ok := wantErr[line.ID]; ok && line.Error != want {
			t.Errorf("id %s: error %q, want %q", line.ID, line.Error, want)
		}
	}
	if gotOK != 2 {
		t.Errorf("%d successful lines, want 2 (the stream must outlive every bad line)", gotOK)
	}
	// Garbage JSON, unknown field, both trailing-data shapes, and the
	// oversized line all map to bad_request; bad id and mode have their
	// own sentinels.
	if gotErr != 8 || codes[ErrBadRequest] != 5 || codes[ErrBadID] != 1 || codes[ErrBadMode] != 1 || codes[ErrEmptyQuery] != 1 {
		t.Errorf("%d error lines with sentinel spread %v, want 5x %s + 1x %s + 1x %s + 1x %s",
			gotErr, codes, ErrBadRequest, ErrBadID, ErrBadMode, ErrEmptyQuery)
	}
	// Blank lines are not request lines: 10 decoded lines, 2 results,
	// 8 errors, clean terminal — lines = results + errors.
	if terminal.Error != "" || terminal.Lines != 10 || terminal.Results != 2 || terminal.Errors != 8 {
		t.Errorf("terminal %+v, want clean with lines=10 results=2 errors=8", terminal)
	}
	if req, errs, inFlight := f.Counts(); req != 2 || errs != 0 || inFlight != 0 {
		t.Errorf("counts after the stream: requests=%d errors=%d in_flight=%d, want 2/0/0 (line errors are stream_errors, not errors)", req, errs, inFlight)
	}
}

// TestStreamRefusedUpfront pins the connection-level refusals that are
// NOT per-line errors: wrong method, and a stream opened against a
// front-end already draining.
func TestStreamRefusedUpfront(t *testing.T) {
	f := stubFrontend(&stubBackend{}, Config{})
	rec := httptest.NewRecorder()
	f.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/search/stream", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET status %d, want 405", rec.Code)
	}

	f.BeginDrain()
	rec = httptest.NewRecorder()
	f.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/search/stream", strings.NewReader("{}\n")))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("draining status %d, want 503", rec.Code)
	}
	var e ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error != ErrDraining || e.RequestID == "" {
		t.Errorf("draining body %q (err %v), want sentinel %s with a request id", rec.Body.String(), err, ErrDraining)
	}
}

// TestStreamDrainMidStream: BeginDrain while a stream is live and fed.
// The lines already accepted complete and flush; the stream then ends
// with the terminal draining line instead of a connection reset.
func TestStreamDrainMidStream(t *testing.T) {
	f := stubFrontend(&stubBackend{hits: 3}, Config{StreamWindow: 4})
	httpSrv := httptest.NewServer(f)
	defer httpSrv.Close()
	pw, resp := openStream(t, httpSrv.URL)

	// Feed two queries and wait for both results: accepted work.
	line := `{"id":"before-drain","query":"ACDE"}` + "\n"
	if _, err := pw.Write([]byte(line + line)); err != nil {
		t.Fatalf("feed stream: %v", err)
	}
	br := bufio.NewScanner(resp.Body)
	br.Buffer(make([]byte, 0, 1<<20), 1<<20)
	readLine := func() StreamResult {
		t.Helper()
		if !br.Scan() {
			t.Fatalf("stream closed early: %v", br.Err())
		}
		var res StreamResult
		if err := json.Unmarshal(br.Bytes(), &res); err != nil {
			t.Fatalf("decode %q: %v", br.Text(), err)
		}
		return res
	}
	for i := 0; i < 2; i++ {
		if res := readLine(); res.Error != "" || res.ID != "before-drain" {
			t.Fatalf("pre-drain result %d: %+v", i, res)
		}
	}

	// Drain with the connection open and idle: the supervisor's bounded
	// poll must notice and end the stream with the draining sentinel.
	f.BeginDrain()
	terminal := readLine()
	if !terminal.Terminal || terminal.Error != ErrDraining {
		t.Fatalf("terminal line %+v, want terminal draining", terminal)
	}
	if terminal.Results != 2 {
		t.Errorf("terminal results %d, want the 2 pre-drain results accounted", terminal.Results)
	}
	if br.Scan() {
		t.Errorf("line after terminal: %s", br.Text())
	}
}

// TestStreamChaosClientStall arms the client.stall fault against a
// live stream: the injected mid-stream stall must burn the real idle
// budget, cut the stream off with the client_stall sentinel, and still
// flush the result that completed before the stall.
func TestStreamChaosClientStall(t *testing.T) {
	reg := faults.NewRegistry(7)
	// After:1 lets the first loop iteration read one real line before
	// the second iteration's probe injects the stall.
	reg.Arm(faults.ClientStall, faults.Fault{After: 1, Every: 1, Delay: time.Second})
	f := stubFrontend(&stubBackend{hits: 3}, Config{StreamWindow: 4,
		StreamStallTimeout: 200 * time.Millisecond, Faults: reg})
	httpSrv := httptest.NewServer(f)
	defer httpSrv.Close()
	pw, resp := openStream(t, httpSrv.URL)

	if _, err := pw.Write([]byte(`{"id":"pre-stall","query":"ACDE"}` + "\n")); err != nil {
		t.Fatalf("feed stream: %v", err)
	}
	// The client now goes quiet; the armed stall plus the silence must
	// trip the 200ms cutoff long before this test's own deadline.
	start := time.Now()
	lines, terminal := collectStream(t, resp.Body)
	if terminal.Error != ErrClientStall {
		t.Fatalf("terminal %+v, want %s", terminal, ErrClientStall)
	}
	if len(lines) != 1 || lines[0].ID != "pre-stall" || lines[0].Error != "" {
		t.Errorf("pre-stall results %+v, want the one completed result flushed", lines)
	}
	if terminal.Results != 1 || terminal.Lines != 1 {
		t.Errorf("terminal accounting %+v, want lines=1 results=1", terminal)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("stall cutoff took %v; the idle budget must bound it near 200ms", took)
	}
}

// TestFrontendDeadline pins the one deadline rule both entry points
// share: the tighter of timeout_ms and Config.RequestTimeout, either
// alone applying when the other is unset — and a request past it
// answers deadline_exceeded (408 on a POST, an error line on a stream)
// and counts as a timeout.
func TestFrontendDeadline(t *testing.T) {
	for _, tc := range []struct {
		name      string
		limit     time.Duration
		timeoutMs int64
		want      time.Duration // 0: no deadline
	}{
		{"neither", 0, 0, 0},
		{"request only", 0, 40, 40 * time.Millisecond},
		{"server only", 30 * time.Millisecond, 0, 30 * time.Millisecond},
		{"request tighter", time.Minute, 40, 40 * time.Millisecond},
		{"server clamps", 30 * time.Millisecond, 60_000, 30 * time.Millisecond},
	} {
		f := stubFrontend(&stubBackend{}, Config{RequestTimeout: tc.limit})
		ctx, cancel := f.deadline(context.Background(), tc.timeoutMs)
		dl, ok := ctx.Deadline()
		if got := time.Until(dl).Round(10 * time.Millisecond); ok != (tc.want > 0) || ok && got != tc.want {
			t.Errorf("%s: deadline in %v (set=%v), want %v", tc.name, got, ok, tc.want)
		}
		cancel()
	}

	f := stubFrontend(&stubBackend{gate: make(chan struct{})}, Config{}) // every Search blocks
	rec := httptest.NewRecorder()
	f.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/search", strings.NewReader(`{"query":"ACDE","timeout_ms":20}`)))
	if rec.Code != http.StatusRequestTimeout || errCode(t, rec) != ErrDeadline {
		t.Errorf("POST past its deadline: %d %s", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	f.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/search/stream", strings.NewReader(`{"id":"slow","query":"ACDE","timeout_ms":20}`+"\n")))
	lines, terminal := collectStream(t, rec.Body)
	if len(lines) != 1 || lines[0].ID != "slow" || lines[0].Error != ErrDeadline || terminal.Errors != 1 {
		t.Errorf("stream line past its deadline: %+v, terminal %+v", lines, terminal)
	}
	if got := f.timeouts.Value(); got != 2 {
		t.Errorf("timeouts = %d, want 2", got)
	}
}

// TestFrontendHealthShells: /healthz and /readyz merge the backend's
// facts into the shared shells, and BeginDrain flips both.
func TestFrontendHealthShells(t *testing.T) {
	f := stubFrontend(&stubBackend{}, Config{})
	get := func(path string) (int, map[string]any) {
		rec := httptest.NewRecorder()
		f.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		var body map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s body %q: %v", path, rec.Body.String(), err)
		}
		return rec.Code, body
	}
	if code, body := get("/healthz"); code != 200 || body["status"] != "ok" || body["stub"] != true || body["uptime_s"] == nil {
		t.Errorf("/healthz = %d %v", code, body)
	}
	if code, body := get("/readyz"); code != 200 || body["ready"] != true || body["stub"] != true {
		t.Errorf("/readyz = %d %v", code, body)
	}
	if code, body := get("/statsz"); code != 200 || body["stub"] != true {
		t.Errorf("/statsz = %d %v", code, body)
	}
	f.BeginDrain()
	if code, body := get("/healthz"); code != 503 || body["status"] != "draining" {
		t.Errorf("draining /healthz = %d %v", code, body)
	}
	if code, body := get("/readyz"); code != 503 || body["ready"] != false || body["reason"] != "draining" {
		t.Errorf("draining /readyz = %d %v", code, body)
	}
}

// TestWireShapes is the golden for the serving contract's line kinds:
// one fixed value of each is marshaled and compared byte for byte, so
// field order and omitempty cannot drift under a refactor. (The routed
// envelope's golden is internal/cluster's TestWireShapes.)
func TestWireShapes(t *testing.T) {
	resp := SearchResponse{QueryLen: 4, Kernel: "swar", K: 2, Exhaustive: true, Cached: false, TookUs: 7,
		Hits: []Hit{{Index: 3, ID: "SYN3", Desc: "homolog", Len: 9, Score: 41}, {Index: 0, ID: "SYN0", Len: 5, Score: 7}}}
	versioned := resp
	versioned.SnapshotVersion = "v2"
	for _, tc := range []struct {
		name string
		v    any
		want string
	}{
		{"POST body", &resp,
			`{"query_len":4,"kernel":"swar","k":2,"exhaustive":true,"cached":false,"hits":[{"index":3,"id":"SYN3","desc":"homolog","len":9,"score":41},{"index":0,"id":"SYN0","len":5,"score":7}],"took_us":7}`},
		{"result line", &StreamResult{ID: "q1", SearchResponse: versioned},
			`{"id":"q1","query_len":4,"kernel":"swar","k":2,"exhaustive":true,"cached":false,"hits":[{"index":3,"id":"SYN3","desc":"homolog","len":9,"score":41},{"index":0,"id":"SYN0","len":5,"score":7}],"took_us":7,"snapshot_version":"v2"}`},
		{"untagged empty result line", &StreamResult{SearchResponse: SearchResponse{Kernel: "sw", K: 10, Hits: []Hit{}}},
			`{"query_len":0,"kernel":"sw","k":10,"exhaustive":false,"cached":false,"hits":[],"took_us":0}`},
		{"error line", &streamErrLine{ID: "q2", Error: ErrEmptyQuery, Detail: "query is empty", RequestID: "abc#2"},
			`{"id":"q2","error":"empty_query","detail":"query is empty","request_id":"abc#2"}`},
		{"bare error line", &streamErrLine{Error: ErrBadRequest},
			`{"error":"bad_request"}`},
		{"terminal line", &streamEndLine{Terminal: true, Lines: 3, Results: 2, Errors: 1},
			`{"terminal":true,"lines":3,"results":2,"errors":1}`},
		{"terminal line, cut off", &streamEndLine{Terminal: true, Error: ErrDraining, Detail: "server is draining for shutdown"},
			`{"terminal":true,"error":"draining","detail":"server is draining for shutdown","lines":0,"results":0,"errors":0}`},
		{"error body", &ErrorResponse{Error: ErrOverloaded, Detail: "admission queue is full; retry after backoff", RequestID: "abc"},
			`{"error":"overloaded","detail":"admission queue is full; retry after backoff","request_id":"abc"}`},
		{"error body, no trace", &ErrorResponse{Error: ErrBadMethod},
			`{"error":"method_not_allowed","detail":""}`},
	} {
		got, err := json.Marshal(tc.v)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if string(got) != tc.want {
			t.Errorf("%s drifted:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}

// FuzzStreamDecode throws arbitrary bodies at the NDJSON decode loop.
// Whatever arrives, the handler must neither panic nor 500: every
// request line is answered with a result or a sentinel error line, the
// terminal line arrives exactly once and last, and its accounting adds
// up.
func FuzzStreamDecode(f *testing.F) {
	valid := `{"id":"v","query":"ACDEFGHIKLMNPQRSTVWY","k":2}`
	f.Add([]byte(nil))
	f.Add([]byte("\n"))
	f.Add([]byte(valid + "\n"))
	f.Add([]byte(valid + "\n" + valid + "\n"))
	f.Add([]byte(`{garbage` + "\n"))
	f.Add([]byte(`{"query":` + "\n")) // truncated JSON
	f.Add([]byte(`{"query":"ACDE","bogus":1}` + "\n"))
	f.Add([]byte(`{"id":"t","query":"ACDE"}{"x":1}` + "\n")) // interleaved trailing object
	f.Add([]byte(`{"query":""}` + "\n"))
	f.Add([]byte(`{"mode":"all_vs_all","query":"ACDE"}` + "\n"))
	f.Add([]byte(valid)) // no trailing newline: still a line
	f.Add([]byte("\x00\xff\xfe garbage bytes, not even JSON\n" + valid + "\n"))
	f.Add([]byte(`{"id":"` + strings.Repeat("i", MaxStreamIDLen+1) + `","query":"ACDE"}` + "\n"))
	f.Add(bytes.Repeat([]byte{'a'}, maxStreamLineBytes+2)) // one oversized line

	handler := stubFrontend(&stubBackend{hits: 2}, Config{})

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/search/stream", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d — the stream handler has no non-200 path for bad lines", rec.Code)
		}
		lines, terminal := collectStream(t, rec.Body)
		var results, errs int64
		for _, line := range lines {
			if line.Error == "" {
				results++
			} else {
				errs++
			}
		}
		if terminal.Results != results || terminal.Errors != errs || terminal.Lines != results+errs {
			t.Fatalf("terminal accounting %+v, observed %d results + %d errors", terminal, results, errs)
		}
	})
}
