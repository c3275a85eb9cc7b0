package main

import (
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/index"
	"repro/internal/server"
)

// answered builds the exchange a correct server would have produced for
// query, then lets tamper edit the response before it is encoded.
func answered(t *testing.T, o *oracle, query string, hot int, tamper func(*server.SearchResponse)) exchange {
	t.Helper()
	resp := server.SearchResponse{QueryLen: len(query), Kernel: "swar", K: topK, Hits: o.indexed(query)}
	if len(resp.Hits) < 2 {
		t.Fatalf("query has %d hits; the self-test needs two to swap", len(resp.Hits))
	}
	if tamper != nil {
		tamper(&resp)
	}
	body, err := json.Marshal(&resp)
	if err != nil {
		t.Fatal(err)
	}
	return exchange{req: server.SearchRequest{Query: query}, hot: hot, status: http.StatusOK, body: body}
}

// TestOracleCountsWrongAnswers is the oracle's self-test: an honest
// response passes, and one flipped score or one swapped pair of ranks —
// on a hot answer or on a unique one — lands in failed.
func TestOracleCountsWrongAnswers(t *testing.T) {
	in := generate(tinyScale, 5)
	o := newOracle(in, index.Build(in.db, index.Options{}), 0)
	flip := func(r *server.SearchResponse) { r.Hits[1].Score-- }
	swap := func(r *server.SearchResponse) { r.Hits[0], r.Hits[1] = r.Hits[1], r.Hits[0] }
	unique := in.familyQuery(missBase)

	honest := phase{ex: []exchange{answered(t, o, in.hot[0], 0, nil), answered(t, o, unique, -1, nil)}}
	if v := o.check(&honest); v.failed != 0 || v.attempted != 2 || v.rederived != 1 || v.recallN != 1 {
		t.Fatalf("honest answers: %+v", v)
	}
	for name, ex := range map[string]exchange{
		"hot, flipped score":    answered(t, o, in.hot[0], 0, flip),
		"hot, swapped rank":     answered(t, o, in.hot[0], 0, swap),
		"unique, flipped score": answered(t, o, unique, -1, flip),
		"unique, swapped rank":  answered(t, o, unique, -1, swap),
		"non-200":               {req: server.SearchRequest{Query: unique}, hot: -1, status: http.StatusTooManyRequests},
	} {
		ph := phase{ex: []exchange{answered(t, o, in.hot[1], 1, nil), ex}}
		v := o.check(&ph)
		if v.failed != 1 || v.attempted != 2 {
			t.Errorf("%s: failed %d of %d, want 1 of 2 (%s)", name, v.failed, v.attempted, v.first)
		}
		if wrong := ex.status == http.StatusOK; (v.wrong == 1) != wrong {
			t.Errorf("%s: wrong = %d", name, v.wrong)
		}
	}
}
