// Package cluster is the scatter-gather layer that turns N single-node
// seqserve backends into one sharded search service. A Coordinator
// owns a versioned ShardMap — contiguous target-ID ranges, each served
// by one or more replica backends — fans a query out over HTTP to
// every shard, remaps the shard-local hit indexes back to global
// database indexes, and merges the per-shard top-Ks through
// align.MergeRanked, the RankHits contract's merge entry point: a
// sharded answer is bit-identical to the single-node one.
//
// The package holds no HTTP serving code of its own. The Coordinator is
// a server.Backend — the scatter-gather twin of the Server's local
// pipeline — and the Router is internal/server's Frontend over it plus
// the router-only /shardmap: request decoding, the NDJSON stream
// engine, error rendering, health/ready/stats shells, drain and tracing
// are the one implementation seqserve runs. What the backend supplies
// is its envelope: Request (the server's request plus
// require_complete) in, Response (the server's response plus complete /
// shards_* accounting) out.
//
// The failure handling is the point, not the happy path. Each shard
// query runs per-try timeouts with exponential backoff and full jitter
// (honoring Retry-After), a hedged second try to another replica once
// the try outlives the shard's recent latency quantile (drawing from
// the same retry budget when the shard is unreplicated), per-backend
// circuit breakers in front of every dial, and health-gated backend
// selection fed by a /readyz prober with consecutive-failure ejection
// and probed recovery. When a shard stays down past its retry budget
// the query degrades instead of dying: the response is a 200 with
// complete:false and shards_ok/shards_failed accounting (opt out per
// request with require_complete, which turns the same situation into a
// 503/shards_failed). The injection sites shard.conn, shard.slow and
// shard.err5xx (internal/faults) make the whole ladder — retry,
// hedge, breaker, partial result, recovery — deterministically
// testable under -race. DESIGN.md's "Sharded serving & failure
// handling" section walks through the design.
package cluster

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Shard is one contiguous range of global target IDs and the replica
// backends that serve it. Every backend of a shard must run seqserve
// with -shard Lo:Hi over the same database, so their shard-local hit
// indexes remap to global ones by adding Lo.
type Shard struct {
	Lo       int      `json:"lo"` // first global target ID (inclusive)
	Hi       int      `json:"hi"` // past-the-end global target ID
	Backends []string `json:"backends"`
}

// ShardMap is the versioned shard assignment a Coordinator serves
// from. Shards tile [0, NumSeqs) contiguously in ascending order —
// the same order the database has, which is what makes the merged
// tie-break (score descending, global index ascending) bit-identical
// to a single-node scan.
type ShardMap struct {
	Version int64   `json:"version"`
	NumSeqs int     `json:"num_seqs"`
	Shards  []Shard `json:"shards"`
}

// NumBackends counts every replica across all shards.
func (m *ShardMap) NumBackends() int {
	n := 0
	for _, s := range m.Shards {
		n += len(s.Backends)
	}
	return n
}

// BackendAddrs returns every distinct backend address, sorted — the
// label set for per-backend metrics.
func (m *ShardMap) BackendAddrs() []string {
	seen := make(map[string]bool)
	var addrs []string
	for _, s := range m.Shards {
		for _, b := range s.Backends {
			if !seen[b] {
				seen[b] = true
				addrs = append(addrs, b)
			}
		}
	}
	sort.Strings(addrs)
	return addrs
}

// Validate checks the map's structural invariants: at least one shard,
// each with at least one backend, ranges non-empty and tiling [0,
// NumSeqs) contiguously from 0, and no backend address serving two
// different ranges (one address MAY appear as a replica of exactly one
// shard; the same process cannot hold two).
func (m *ShardMap) Validate() error {
	if len(m.Shards) == 0 {
		return fmt.Errorf("cluster: shard map has no shards")
	}
	next := 0
	owner := make(map[string]int)
	for i, s := range m.Shards {
		if s.Lo != next {
			return fmt.Errorf("cluster: shard %d starts at %d, want %d (ranges must tile contiguously from 0)", i, s.Lo, next)
		}
		if s.Hi <= s.Lo {
			return fmt.Errorf("cluster: shard %d range %d:%d is empty", i, s.Lo, s.Hi)
		}
		if len(s.Backends) == 0 {
			return fmt.Errorf("cluster: shard %d (%d:%d) has no backends", i, s.Lo, s.Hi)
		}
		for _, b := range s.Backends {
			if b == "" {
				return fmt.Errorf("cluster: shard %d has an empty backend address", i)
			}
			if prev, dup := owner[b]; dup && prev != i {
				return fmt.Errorf("cluster: backend %s serves both shard %d and shard %d", b, prev, i)
			}
			owner[b] = i
		}
		next = s.Hi
	}
	if m.NumSeqs != 0 && m.NumSeqs != next {
		return fmt.Errorf("cluster: shards cover [0, %d) but the map declares %d sequences", next, m.NumSeqs)
	}
	return nil
}

// ParseShardMap builds a validated map from the textual form the
// seqrouter -backends flag takes:
//
//	lo:hi@addr[,addr...][;lo:hi@addr...]
//
// e.g. "0:100@127.0.0.1:8061;100:200@127.0.0.1:8062,127.0.0.1:8072"
// assigns targets [0,100) to one backend and [100,200) to a
// two-replica pair. version stamps the map; responses and /statsz
// carry it so a mixed fleet is observable.
func ParseShardMap(spec string, version int64) (*ShardMap, error) {
	m := &ShardMap{Version: version}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		rng, addrs, ok := strings.Cut(clause, "@")
		if !ok {
			return nil, fmt.Errorf("cluster: clause %q lacks an '@' (want lo:hi@addr,...)", clause)
		}
		loStr, hiStr, ok := strings.Cut(strings.TrimSpace(rng), ":")
		if !ok {
			return nil, fmt.Errorf("cluster: range %q is not lo:hi", rng)
		}
		lo, err := strconv.Atoi(strings.TrimSpace(loStr))
		if err != nil {
			return nil, fmt.Errorf("cluster: range %q: bad lo: %v", rng, err)
		}
		hi, err := strconv.Atoi(strings.TrimSpace(hiStr))
		if err != nil {
			return nil, fmt.Errorf("cluster: range %q: bad hi: %v", rng, err)
		}
		var backends []string
		for _, a := range strings.Split(addrs, ",") {
			if a = strings.TrimSpace(a); a != "" {
				backends = append(backends, a)
			}
		}
		m.Shards = append(m.Shards, Shard{Lo: lo, Hi: hi, Backends: backends})
	}
	m.NumSeqs = 0
	if n := len(m.Shards); n > 0 {
		m.NumSeqs = m.Shards[n-1].Hi
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// MarshalText renders the map back into the -backends flag form.
func (m *ShardMap) MarshalText() ([]byte, error) {
	var b strings.Builder
	for i, s := range m.Shards {
		if i > 0 {
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "%d:%d@%s", s.Lo, s.Hi, strings.Join(s.Backends, ","))
	}
	return []byte(b.String()), nil
}

// JSON renders the versioned map as GET /shardmap serves it. The
// shadow type strips MarshalText so the map serializes as an object,
// not as its flag-spec string form.
func (m *ShardMap) JSON() []byte {
	type plain ShardMap
	b, _ := json.Marshal((*plain)(m)) // no unmarshalable fields; cannot fail
	return b
}
