package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// The observability suite: a caller-supplied X-Request-Id must be
// findable in /debug/traces with the full pipeline's spans attached,
// and /metrics must stay a parseable, monotone Prometheus exposition
// under load. These are e2e tests on purpose — the tracing claim worth
// pinning is that the id survives the whole admission → batch → shard
// → rescore → rank path, not that any one stage records itself.

// tracesByID fetches /debug/traces?id=prefix through the handler.
func tracesByID(t testing.TB, s *Server, prefix string) []obs.Trace {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces?id="+prefix, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/traces: status %d: %s", rec.Code, rec.Body.String())
	}
	var body struct {
		Count  int         `json:"count"`
		Traces []obs.Trace `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("decoding /debug/traces %q: %v", rec.Body.String(), err)
	}
	if body.Count != len(body.Traces) {
		t.Fatalf("count %d but %d traces", body.Count, len(body.Traces))
	}
	return body.Traces
}

func stageSet(tr obs.Trace) map[string]bool {
	got := map[string]bool{}
	for _, sp := range tr.Spans() {
		got[sp.Stage] = true
	}
	return got
}

// TestTraceIDPropagationPost pins the POST path: the submitted
// X-Request-Id comes back in the response header, and the trace behind
// it carries a span for every pipeline stage the request crossed.
func TestTraceIDPropagationPost(t *testing.T) {
	db := testDB(t, 120)
	s := newTestServer(t, db, Config{Workers: 2, CacheEntries: 0})
	body, err := json.Marshal(SearchRequest{Query: queryString(), K: 5})
	if err != nil {
		t.Fatal(err)
	}

	req := httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(body))
	req.Header.Set("X-Request-Id", "e2e-trace-1")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST /search: status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Request-Id"); got != "e2e-trace-1" {
		t.Fatalf("response X-Request-Id %q, want the submitted e2e-trace-1", got)
	}

	traces := tracesByID(t, s, "e2e-trace-1")
	if len(traces) != 1 {
		t.Fatalf("%d traces for e2e-trace-1, want 1", len(traces))
	}
	tr := traces[0]
	if tr.Outcome != obs.OutcomeOK || tr.Path != "search" {
		t.Errorf("trace outcome=%q path=%q, want ok/search", tr.Outcome, tr.Path)
	}
	got := stageSet(tr)
	for _, stage := range []string{obs.StageAdmission, obs.StageQueue, obs.StageSeed, obs.StageScan, obs.StageRank, obs.StageRespond} {
		if !got[stage] {
			t.Errorf("trace lacks stage %q (has %v)", stage, tr.Spans())
		}
	}
	if tr.TotalUs <= 0 || tr.QueryLen == 0 || tr.Kernel == "" {
		t.Errorf("trace missing request facts: %+v", tr)
	}

	// A cache hit is a different shape: no pipeline stages, a cache
	// span instead.
	req2 := httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(body))
	req2.Header.Set("X-Request-Id", "e2e-trace-2")
	rec2 := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec2, req2)
	if rec2.Code != http.StatusOK {
		t.Fatalf("second POST: status %d", rec2.Code)
	}
	traces = tracesByID(t, s, "e2e-trace-2")
	if len(traces) != 1 || !traces[0].CacheHit || !stageSet(traces[0])[obs.StageCache] {
		t.Errorf("cache-hit trace: %+v", traces)
	}

	// Error paths carry the id too: the JSON body names the trace.
	req3 := httptest.NewRequest(http.MethodPost, "/search", strings.NewReader(`{"query":""}`))
	req3.Header.Set("X-Request-Id", "e2e-trace-3")
	rec3 := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec3, req3)
	if rec3.Code == http.StatusOK {
		t.Fatalf("empty query succeeded")
	}
	var e ErrorResponse
	if err := json.Unmarshal(rec3.Body.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if e.RequestID != "e2e-trace-3" {
		t.Errorf("error body request_id %q, want e2e-trace-3", e.RequestID)
	}
	if traces := tracesByID(t, s, "e2e-trace-3"); len(traces) != 1 || traces[0].Outcome == obs.OutcomeOK {
		t.Errorf("error trace: %+v", traces)
	}
}

// TestTraceIDPropagationStream pins the stream path: the connection
// trace answers to the submitted X-Request-Id, and every line gets a
// derived <conn>#<line> trace with decode/search/write spans.
func TestTraceIDPropagationStream(t *testing.T) {
	db := testDB(t, 120)
	s := newTestServer(t, db, Config{Workers: 2, CacheEntries: -1})
	httpSrv := httptest.NewServer(s.Handler())
	defer httpSrv.Close()

	body := streamBody(t, []StreamRequest{
		{ID: "a", SearchRequest: SearchRequest{Query: queryString(), K: 3}},
		{ID: "b", SearchRequest: SearchRequest{Query: queryString(), K: 5}},
	})
	req, err := http.NewRequest(http.MethodPost, httpSrv.URL+"/search/stream", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "e2e-stream-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "e2e-stream-1" {
		t.Fatalf("stream X-Request-Id %q, want e2e-stream-1", got)
	}
	results, terminal := collectStream(t, resp.Body)
	resp.Body.Close()
	if len(results) != 2 || terminal.Results != 2 {
		t.Fatalf("%d results, terminal %+v", len(results), terminal)
	}

	// The connection trace publishes when the handler finishes, which
	// can trail the terminal line by a scheduling beat.
	deadline := time.Now().Add(2 * time.Second)
	var traces []obs.Trace
	for {
		traces = tracesByID(t, s, "e2e-stream-1")
		conn := 0
		for _, tr := range traces {
			if tr.Path == "stream" {
				conn++
			}
		}
		if conn == 1 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	byID := map[string]obs.Trace{}
	for _, tr := range traces {
		byID[tr.ID] = tr
	}
	conn, ok := byID["e2e-stream-1"]
	if !ok || conn.Path != "stream" || conn.Outcome != obs.OutcomeOK {
		t.Fatalf("connection trace: %+v (all: %v)", conn, traces)
	}
	for line := 1; line <= 2; line++ {
		id := fmt.Sprintf("e2e-stream-1#%d", line)
		tr, ok := byID[id]
		if !ok {
			t.Fatalf("no trace %s (have %v)", id, traces)
		}
		if tr.Path != "stream_line" || tr.Outcome != obs.OutcomeOK {
			t.Errorf("%s: path=%q outcome=%q", id, tr.Path, tr.Outcome)
		}
		got := stageSet(tr)
		for _, stage := range []string{obs.StageDecode, obs.StageSearch, obs.StageWrite} {
			if !got[stage] {
				t.Errorf("%s lacks stage %q (has %v)", id, stage, tr.Spans())
			}
		}
	}
}

// scrape parses the server's /metrics through the strict exposition
// parser — the lint half of the test: any malformed line fails here.
func scrape(t testing.TB, s *Server) *obs.Exposition {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics Content-Type %q", ct)
	}
	exp, err := obs.ParseExposition(bytes.NewReader(rec.Body.Bytes()))
	if err != nil {
		t.Fatalf("/metrics failed the exposition lint: %v", err)
	}
	return exp
}

// sampleKey identifies one series across scrapes.
func sampleKey(s obs.Sample) string {
	var parts []string
	for k, v := range s.Labels {
		parts = append(parts, k+"="+v)
	}
	// map order is random; a two-label series would need sorting, but
	// the server's metrics carry at most one label.
	if len(parts) > 1 {
		t := append([]string(nil), parts...)
		for i := 1; i < len(t); i++ {
			for j := i; j > 0 && t[j] < t[j-1]; j-- {
				t[j], t[j-1] = t[j-1], t[j]
			}
		}
		parts = t
	}
	return s.Name + "{" + strings.Join(parts, ",") + "}"
}

// TestMetricsExpositionUnderLoad drives concurrent traffic, scrapes
// twice, and pins three properties: the text parses strictly, every
// counter is monotone between scrapes, and the request counters agree
// with what the load actually did.
func TestMetricsExpositionUnderLoad(t *testing.T) {
	db := testDB(t, 120)
	s := newTestServer(t, db, Config{Workers: 2, CacheEntries: 0})
	body, err := json.Marshal(SearchRequest{Query: queryString(), K: 5})
	if err != nil {
		t.Fatal(err)
	}
	post := func() {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Errorf("POST: status %d", rec.Code)
		}
	}

	for i := 0; i < 5; i++ {
		post()
	}
	exp1 := scrape(t, s)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			post()
		}
	}()
	// Scrape mid-load: rendering must tolerate concurrent writers.
	for i := 0; i < 3; i++ {
		scrape(t, s)
	}
	<-done
	exp2 := scrape(t, s)

	first := map[string]float64{}
	for _, smp := range exp1.Samples {
		first[sampleKey(smp)] = smp.Value
	}
	counters := 0
	for _, smp := range exp2.Samples {
		base := strings.TrimSuffix(strings.TrimSuffix(smp.Name, "_bucket"), "_count")
		base = strings.TrimSuffix(base, "_sum")
		typ := exp2.Types[smp.Name]
		if typ == "" {
			typ = exp2.Types[base]
		}
		if typ != "counter" && typ != "histogram" {
			continue
		}
		if v1, seen := first[sampleKey(smp)]; seen {
			counters++
			if smp.Value < v1 {
				t.Errorf("%s went backwards: %v -> %v", sampleKey(smp), v1, smp.Value)
			}
		}
	}
	if counters == 0 {
		t.Fatal("monotonicity check matched no counter samples")
	}

	req2, err := exp2.Value("seqserve_requests_total")
	if err != nil {
		t.Fatal(err)
	}
	req1, _ := exp1.Value("seqserve_requests_total")
	if req2-req1 != 20 {
		t.Errorf("requests_total advanced %v, want 20", req2-req1)
	}
	if v, err := exp2.Value("seqserve_kernel_requests_total", "kernel", "swar"); err != nil || v != 25 {
		t.Errorf("kernel_requests_total{kernel=swar} = %v (%v), want 25", v, err)
	}
	if n, err := exp2.Value("seqserve_request_latency_us_count"); err != nil || n != 25 {
		t.Errorf("request_latency_us_count = %v (%v), want 25", n, err)
	}
}

// TestMetricsLatencyNestsInClientTime pins the client/server agreement
// of the request-latency histogram over real HTTP: every request is
// counted once, and since the handler's observation window (validation
// to response ready) lies inside the client's send-to-last-byte window
// and the histogram sums exact truncated µs, the server's sum can never
// exceed the client's summed round trips.
func TestMetricsLatencyNestsInClientTime(t *testing.T) {
	const n = 16
	s := newTestServer(t, testDB(t, 120), Config{Workers: 2, CacheEntries: 0})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, err := json.Marshal(SearchRequest{Query: queryString(), K: 5})
	if err != nil {
		t.Fatal(err)
	}
	var client time.Duration
	for i := 0; i < n; i++ {
		start := time.Now()
		resp, err := ts.Client().Post(ts.URL+"/search", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		_, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		client += time.Since(start)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %d: status %d, read error %v", i, resp.StatusCode, err)
		}
	}

	exp := scrape(t, s)
	if count, err := exp.Value("seqserve_request_latency_us_count"); err != nil || count != n {
		t.Fatalf("request_latency_us_count = %v (%v), want %d", count, err, n)
	}
	sum, err := exp.Value("seqserve_request_latency_us_sum")
	if err != nil {
		t.Fatal(err)
	}
	clientUs := float64(client.Nanoseconds()) / 1e3
	if sum <= 0 || sum > clientUs {
		t.Errorf("request_latency_us_sum = %v, want in (0, %.1f] (the client's summed µs)", sum, clientUs)
	}
}
