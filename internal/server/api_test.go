package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// TestHitJSONRoundTrip pins the wire Hit: every field survives a
// marshal/unmarshal cycle, and the field names are the documented wire
// contract.
func TestHitJSONRoundTrip(t *testing.T) {
	hits := []Hit{
		{Index: 3, ID: "SYN0003", Desc: "homolog 2 of P14942", Len: 217, Score: 841},
		{Index: 0, ID: "Q", Len: 1, Score: 1}, // empty Desc must round-trip (omitempty)
	}
	buf, err := json.Marshal(hits)
	if err != nil {
		t.Fatal(err)
	}
	var back []Hit
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hits, back) {
		t.Errorf("round trip changed hits:\n got %+v\nwant %+v", back, hits)
	}
	for _, field := range []string{`"index":3`, `"id":"SYN0003"`, `"desc":"homolog 2 of P14942"`, `"len":217`, `"score":841`} {
		if !strings.Contains(string(buf), field) {
			t.Errorf("wire form %s lacks %s", buf, field)
		}
	}
	if strings.Contains(string(buf), `"desc":""`) {
		t.Errorf("empty desc should be omitted: %s", buf)
	}
}

// TestSearchErrorPaths is the 400-path table: every malformed request
// maps to one stable sentinel code, never a 500 and never a bare
// non-JSON body.
func TestSearchErrorPaths(t *testing.T) {
	s := newTestServer(t, testDB(t, 30), Config{Workers: 1})
	valid := queryString()

	cases := []struct {
		name string
		body string
		code string
	}{
		{"malformed json", `{"query":`, ErrBadRequest},
		{"wrong field type", `{"query": 12}`, ErrBadRequest},
		{"empty body", ``, ErrBadRequest},
		{"unknown field", `{"query":"` + valid + `","exhuastive":true}`, ErrBadRequest},
		{"trailing data", `{"query":"` + valid + `"} {"k":3}`, ErrBadRequest},
		{"stream-only field", `{"query":"` + valid + `","mode":"all_vs_all"}`, ErrBadRequest},
		{"empty query", `{"query":""}`, ErrEmptyQuery},
		{"missing query", `{"k":5}`, ErrEmptyQuery},
		{"bad residue digit", `{"query":"MKV1LL"}`, ErrBadResidue},
		{"bad residue space", `{"query":"MKV LL"}`, ErrBadResidue},
		{"unknown kernel", `{"query":"` + valid + `","kernel":"blast9000"}`, ErrUnknownKernel},
		{"k negative", `{"query":"` + valid + `","k":-1}`, ErrBadK},
		{"k too large", `{"query":"` + valid + `","k":100000}`, ErrBadK},
		{"negative candidates", `{"query":"` + valid + `","max_candidates":-3}`, ErrBadCandidates},
		{"negative min score", `{"query":"` + valid + `","min_score":-2}`, ErrBadMinScore},
		{"query too long", `{"query":"` + strings.Repeat("A", MaxQueryLen+1) + `"}`, ErrQueryTooLong},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/search", strings.NewReader(tc.body)))
			if rec.Code < 400 || rec.Code >= 500 {
				t.Fatalf("status %d, want 4xx", rec.Code)
			}
			var er ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
				t.Fatalf("error body %q is not ErrorResponse JSON: %v", rec.Body.String(), err)
			}
			if er.Error != tc.code {
				t.Errorf("error code %q, want %q (detail: %s)", er.Error, tc.code, er.Detail)
			}
			if er.Detail == "" {
				t.Error("empty detail")
			}
		})
	}
}

func TestSearchMethodNotAllowed(t *testing.T) {
	s := newTestServer(t, testDB(t, 30), Config{Workers: 1})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/search", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("status %d, want 405", rec.Code)
	}
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error != ErrBadMethod {
		t.Errorf("body %q, want %s sentinel", rec.Body.String(), ErrBadMethod)
	}
}

func TestSearchBodyTooLarge(t *testing.T) {
	s := newTestServer(t, testDB(t, 30), Config{Workers: 1})
	body := bytes.Repeat([]byte("x"), maxBodyBytes+2)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(body)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", rec.Code)
	}
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error != ErrBadRequest {
		t.Errorf("body %q, want %s sentinel", rec.Body.String(), ErrBadRequest)
	}
}

// TestNormalizationSharesCacheKeys: equivalent request spellings must
// collapse to one cache/single-flight key — max_candidates is
// meaningless when exhaustive, 0 means the index default, and values
// past the database size all degrade to the same candidate set.
func TestNormalizationSharesCacheKeys(t *testing.T) {
	s := newTestServer(t, testDB(t, 30), Config{Workers: 1})
	q := queryString()
	keyOf := func(req SearchRequest) cacheKey {
		ep := s.cur.Load()
		norm, aerr := s.validate(ep, &req)
		if aerr != nil {
			t.Fatalf("validate: %v", aerr.Detail)
		}
		return norm.cacheKey(ep)
	}
	base := keyOf(SearchRequest{Query: q, Exhaustive: true})
	if got := keyOf(SearchRequest{Query: q, Exhaustive: true, MaxCandidates: 100}); got != base {
		t.Error("max_candidates fragments exhaustive cache keys")
	}
	indexed := keyOf(SearchRequest{Query: q})
	if got := keyOf(SearchRequest{Query: q, MaxCandidates: 64}); got != indexed {
		t.Error("explicit default max_candidates fragments indexed cache keys")
	}
	if got := keyOf(SearchRequest{Query: q, MaxCandidates: 30}); got != keyOf(SearchRequest{Query: q, MaxCandidates: 9999}) {
		t.Error("past-database-size max_candidates values fragment cache keys")
	}
	if indexed == base {
		t.Error("exhaustive and indexed requests share a key")
	}
}

// TestErrorsDontPoisonCache: a rejected request must not consume a
// cache slot or leave a flight behind.
func TestErrorsDontPoisonCache(t *testing.T) {
	s := newTestServer(t, testDB(t, 30), Config{Workers: 1})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/search", strings.NewReader(`{"query":"123"}`)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d", rec.Code)
	}
	stats := s.Stats()
	if stats.Errors != 1 {
		t.Errorf("errors = %d, want 1", stats.Errors)
	}
	if stats.Requests != 0 {
		t.Errorf("requests = %d, want 0 (rejected before admission)", stats.Requests)
	}
	if stats.Cache.Misses != 0 || stats.Cache.Entries != 0 {
		t.Errorf("rejected request touched the cache: %+v", stats.Cache)
	}
}
