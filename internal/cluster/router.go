package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// Router is the coordinator's HTTP face: the one serving front-end
// (server.Frontend — the same POST /search shell, NDJSON stream engine,
// health/ready/stats shells, drain flag and trace ring seqserve runs)
// with the Coordinator's scatter-gather as its Backend, plus the
// router-only /shardmap. Clients and harnesses point at a router
// exactly like they point at one server; the only wire difference is
// the envelope the backend supplies — a Request may carry
// require_complete, and every routed answer is a Response with
// complete / shards_ok / shards_failed / shard_map_version.
type Router struct {
	*server.Frontend // BeginDrain, and every endpoint but /shardmap
	c                *Coordinator
}

// NewRouter returns the handler set over a coordinator.
func NewRouter(c *Coordinator) *Router { return &Router{Frontend: c.fe, c: c} }

func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/shardmap" {
		rt.c.handleShardMap(w, r)
		return
	}
	rt.Frontend.ServeHTTP(w, r)
}

// routedQuery is the Coordinator's server.Query: one request on its way
// to the shard fleet. The router validates only the stream envelope —
// everything else is the shards' call, and their 4xx comes back
// verbatim.
type routedQuery struct {
	c      *Coordinator
	stream bool
	line   struct { // a stream line; a POST decodes into its Request alone
		ID   string `json:"id,omitempty"`
		Mode string `json:"mode,omitempty"`
		Request
	}
}

// NewQuery, Health and Statsz make the Coordinator a server.Backend.
func (c *Coordinator) NewQuery(stream bool) server.Query { return &routedQuery{c: c, stream: stream} }

func (q *routedQuery) Target() any {
	if q.stream {
		return &q.line
	}
	return &q.line.Request
}

// Prepare normalizes mode "all_vs_all" to an exhaustive scan before
// fan-out (the router has no coalescing batcher; the shards it fans to
// do).
func (q *routedQuery) Prepare(*obs.Trace) (string, int64, *server.APIError) {
	allVsAll, aerr := server.CheckLine(q.line.ID, q.line.Mode)
	q.line.Exhaustive = q.line.Exhaustive || allVsAll
	return q.line.ID, q.line.TimeoutMs, aerr
}

func (q *routedQuery) Search(ctx context.Context, tr *obs.Trace) (any, *server.APIError) {
	resp, spans, aerr := q.c.search(ctx, &q.line.Request, tr.ID)
	for _, sp := range spans {
		tr.SpanAt(sp.stage, sp.start, sp.dur)
	}
	if aerr != nil {
		return nil, aerr
	}
	resp.TookUs = time.Since(tr.Start).Microseconds()
	tr.Kernel = resp.Kernel
	tr.QueryLen = resp.QueryLen
	tr.Exhausted = resp.Exhaustive
	tr.CacheHit = resp.Cached
	if !resp.Complete {
		tr.Outcome = "partial"
	}
	return q.wire(resp), nil
}

// wire is the value the front-end encodes: the routed Response as a
// POST body, the same fields behind the client's id as a stream line.
func (q *routedQuery) wire(resp *Response) any {
	if !q.stream {
		return resp
	}
	return &struct {
		ID string `json:"id,omitempty"`
		*Response
	}{q.line.ID, resp}
}

// Health is the router's load-balancer gate: ready only when the prober
// has seen at least one backend of EVERY shard up. A router that cannot
// answer completely is still healthy — /healthz says so — but not
// ready.
func (c *Coordinator) Health() (string, map[string]any) {
	notReady := ""
	if !c.Ready() {
		notReady = "not every shard has an up backend"
	}
	return notReady, map[string]any{"shards": len(c.Map().Shards)}
}

func (c *Coordinator) Statsz() any { return c.StatsSnapshot() }

// handleShardMap serves the live map (GET) and swaps it (PUT). A PUT
// body is the same JSON shape GET serves — version, num_seqs, shards —
// and must pass Coordinator.UpdateMap's checks (valid tiling, same
// database, strictly newer version); on success the installed map is
// echoed back, and every in-flight fan-out finishes against the
// topology it started with.
func (c *Coordinator) handleShardMap(w http.ResponseWriter, r *http.Request) {
	fail := func(status int, code, detail string) {
		server.WriteJSON(w, status, server.ErrorResponse{Error: code, Detail: detail})
	}
	switch r.Method {
	case http.MethodGet:
	case http.MethodPut:
		var m ShardMap
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&m); err != nil {
			fail(http.StatusBadRequest, server.ErrBadRequest, fmt.Sprintf("decoding shard map: %v", err))
			return
		}
		if err := c.UpdateMap(&m); err != nil {
			fail(http.StatusBadRequest, server.ErrBadRequest, err.Error())
			return
		}
	default:
		fail(http.StatusMethodNotAllowed, server.ErrBadMethod, "use GET to read the shard map or PUT with a JSON map to replace it")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(c.Map().JSON())
	_, _ = w.Write([]byte("\n"))
}
