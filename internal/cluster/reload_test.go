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
	"testing"
	"time"

	"repro/internal/server"
)

// skewFleet builds two canned single-backend shards stamping different
// snapshot versions — a fleet frozen mid rolling reload.
func skewFleet(t *testing.T) (*ShardMap, *cannedBackend, *cannedBackend) {
	t.Helper()
	b0 := &cannedBackend{hits: []server.Hit{{Index: 0, ID: "s0", Len: 5, Score: 9}}}
	b1 := &cannedBackend{hits: []server.Hit{{Index: 0, ID: "s1", Len: 5, Score: 7}}}
	b0.setVersion("v1")
	b1.setVersion("v2")
	m := &ShardMap{Version: 1, NumSeqs: 20, Shards: []Shard{
		{Lo: 0, Hi: 10, Backends: []string{startCanned(t, b0)}},
		{Lo: 10, Hi: 20, Backends: []string{startCanned(t, b1)}},
	}}
	return m, b0, b1
}

// TestVersionSkewAllow: the default policy merges a mid-reload fleet's
// answers and reports the mix in snapshot_versions — complete stays
// true, which is what lets a rolling reload proceed under live
// traffic without require_complete clients seeing failures.
func TestVersionSkewAllow(t *testing.T) {
	m, _, _ := skewFleet(t)
	c := newCoord(t, m, fastConfig())

	got, _, aerr := c.Search(context.Background(), &Request{SearchRequest: server.SearchRequest{Query: "MTDKL", K: 5}})
	if aerr != nil {
		t.Fatalf("allow policy errored on skew: %s (%s)", aerr.Code, aerr.Detail)
	}
	if !got.Complete || got.ShardsOK != 2 || len(got.ShardsSkewed) != 0 {
		t.Fatalf("allow accounting: %+v", got)
	}
	if !reflect.DeepEqual(got.SnapshotVersions, []string{"v1", "v2"}) {
		t.Fatalf("snapshot_versions = %v, want [v1 v2]", got.SnapshotVersions)
	}
	// Both shards' hits merged: the global indexes 0 (shard 0) and 10
	// (shard 1 remapped by Lo).
	if len(got.Hits) != 2 || got.Hits[0].ID != "s0" || got.Hits[1].Index != 10 {
		t.Fatalf("merged hits = %+v", got.Hits)
	}
	// require_complete is satisfied — no shard failed, skew is allowed.
	if _, _, aerr := c.Search(context.Background(), &Request{
		SearchRequest: server.SearchRequest{Query: "MTDKL", K: 5}, RequireComplete: true}); aerr != nil {
		t.Fatalf("require_complete under allow errored: %s", aerr.Code)
	}
}

// TestVersionSkewFence: under fence, shards disagreeing with the
// lowest-indexed answering shard are dropped from the merge and
// reported in shards_skewed with complete:false; require_complete
// turns the same situation into 503/versions_skewed.
func TestVersionSkewFence(t *testing.T) {
	m, _, b1 := skewFleet(t)
	cfg := fastConfig()
	cfg.VersionSkew = VersionSkewFence
	c := newCoord(t, m, cfg)

	got, _, aerr := c.Search(context.Background(), &Request{SearchRequest: server.SearchRequest{Query: "MTDKL", K: 5}})
	if aerr != nil {
		t.Fatalf("fence policy errored: %s (%s)", aerr.Code, aerr.Detail)
	}
	if got.Complete || got.ShardsOK != 1 || !reflect.DeepEqual(got.ShardsSkewed, []int{1}) {
		t.Fatalf("fence accounting: complete=%v ok=%d skewed=%v", got.Complete, got.ShardsOK, got.ShardsSkewed)
	}
	if len(got.Hits) != 1 || got.Hits[0].ID != "s0" {
		t.Fatalf("fenced merge kept the skewed shard's hits: %+v", got.Hits)
	}
	if got.SnapshotVersion != "v1" {
		t.Fatalf("response stamped %q, want the reference shard's v1", got.SnapshotVersion)
	}
	if c.m.skewed.Value() != 1 {
		t.Fatalf("skewed counter = %d, want 1", c.m.skewed.Value())
	}

	_, _, aerr = c.Search(context.Background(), &Request{
		SearchRequest: server.SearchRequest{Query: "MTDKL", K: 5}, RequireComplete: true})
	if aerr == nil || aerr.Code != ErrVersionsSkewed || aerr.Status != http.StatusServiceUnavailable {
		t.Fatalf("require_complete under fence: got %+v, want 503 %s", aerr, ErrVersionsSkewed)
	}
	if aerr.RetryAfter <= 0 {
		t.Fatal("versions_skewed should carry Retry-After (the reload will settle)")
	}

	// Once the laggard finishes its reload, fence is satisfied again.
	b1.setVersion("v1")
	got, _, aerr = c.Search(context.Background(), &Request{
		SearchRequest: server.SearchRequest{Query: "MTDKL", K: 5}, RequireComplete: true})
	if aerr != nil || !got.Complete || len(got.Hits) != 2 {
		t.Fatalf("settled fleet: %+v / %+v", got, aerr)
	}
}

// TestUpdateMapLive: UpdateMap swaps the serving topology atomically,
// preserves the state of backends present in both maps, and refuses
// maps that shrink the database, rewind the version, or fail
// validation.
func TestUpdateMapLive(t *testing.T) {
	b0 := &cannedBackend{hits: cannedHits}
	b1 := &cannedBackend{hits: cannedHits}
	addr0, addr1 := startCanned(t, b0), startCanned(t, b1)
	m1 := &ShardMap{Version: 1, NumSeqs: 20, Shards: []Shard{
		{Lo: 0, Hi: 20, Backends: []string{addr0}},
	}}
	c := newCoord(t, m1, fastConfig())

	// Seed observable state on addr0's backend object.
	c.topo.Load().backends[0].state.Store(backendUp)

	// Rebalance: split into two shards, addr0 keeps the low half.
	m2 := &ShardMap{Version: 2, NumSeqs: 20, Shards: []Shard{
		{Lo: 0, Hi: 10, Backends: []string{addr0}},
		{Lo: 10, Hi: 20, Backends: []string{addr1}},
	}}
	if err := c.UpdateMap(m2); err != nil {
		t.Fatalf("UpdateMap: %v", err)
	}
	if got := c.Map().Version; got != 2 {
		t.Fatalf("serving version %d, want 2", got)
	}
	nt := c.topo.Load()
	if len(nt.shards) != 2 {
		t.Fatalf("topology has %d shards, want 2", len(nt.shards))
	}
	// addr0's backend object — and its health state — survived the swap.
	if nt.shards[0].backends[0].state.Load() != backendUp {
		t.Fatal("backend state was reset by the map update")
	}
	// The new shard's histogram exists even though its label index (1)
	// was declared at startup only for maps that had it.
	if nt.shards[1].latH == nil {
		t.Fatal("new shard has no latency histogram; hedging would panic")
	}
	// Searches route over the new topology.
	got, _, aerr := c.Search(context.Background(), &Request{SearchRequest: server.SearchRequest{Query: "MTDKL", K: 5}})
	if aerr != nil || !got.Complete || got.ShardsOK != 2 || got.ShardMapVersion != 2 {
		t.Fatalf("post-update search: %+v / %+v", got, aerr)
	}
	if b1.calls.Load() == 0 {
		t.Fatal("the added backend never received traffic")
	}

	// Refusals: stale version, changed database size, invalid tiling.
	for name, bad := range map[string]*ShardMap{
		"stale version": {Version: 2, NumSeqs: 20, Shards: []Shard{{Lo: 0, Hi: 20, Backends: []string{addr0}}}},
		"resized db":    {Version: 3, NumSeqs: 30, Shards: []Shard{{Lo: 0, Hi: 30, Backends: []string{addr0}}}},
		"gapped tiling": {Version: 3, NumSeqs: 20, Shards: []Shard{{Lo: 5, Hi: 20, Backends: []string{addr0}}}},
	} {
		if err := c.UpdateMap(bad); err == nil {
			t.Fatalf("UpdateMap accepted a %s map", name)
		}
	}
	if got := c.Map().Version; got != 2 {
		t.Fatalf("a refused update moved the serving version to %d", got)
	}
	if c.m.mapUpdates.Value() != 1 {
		t.Fatalf("map_updates counter = %d, want 1", c.m.mapUpdates.Value())
	}
}

// TestShardMapPUT drives the HTTP face of the live update: GET serves
// the map, PUT swaps it (echoing the installed map), bad PUTs get 400
// with the refusal, and other methods get 405.
func TestShardMapPUT(t *testing.T) {
	b0 := &cannedBackend{hits: cannedHits}
	addr0 := startCanned(t, b0)
	m := &ShardMap{Version: 1, NumSeqs: 10, Shards: []Shard{{Lo: 0, Hi: 10, Backends: []string{addr0}}}}
	c := newCoord(t, m, fastConfig())
	rt := httptest.NewServer(NewRouter(c))
	t.Cleanup(rt.Close)

	put := func(body []byte) (*http.Response, error) {
		req, _ := http.NewRequest(http.MethodPut, rt.URL+"/shardmap", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		return http.DefaultClient.Do(req)
	}

	next := &ShardMap{Version: 2, NumSeqs: 10, Shards: []Shard{{Lo: 0, Hi: 10, Backends: []string{addr0}}}}
	resp, err := put(next.JSON())
	if err != nil {
		t.Fatal(err)
	}
	var echoed ShardMap
	if err := json.NewDecoder(resp.Body).Decode(&echoed); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || echoed.Version != 2 {
		t.Fatalf("PUT /shardmap: status %d, echoed %+v", resp.StatusCode, echoed)
	}

	// A stale map is refused with the coordinator's reason.
	resp, err = put(next.JSON()) // same version again
	if err != nil {
		t.Fatal(err)
	}
	var er server.ErrorResponse
	_ = json.NewDecoder(resp.Body).Decode(&er)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || er.Error != server.ErrBadRequest || !strings.Contains(er.Detail, "not newer") {
		t.Fatalf("stale PUT: status %d, body %+v", resp.StatusCode, er)
	}

	// GET reflects the accepted update.
	resp, err = http.Get(rt.URL + "/shardmap")
	if err != nil {
		t.Fatal(err)
	}
	var served ShardMap
	_ = json.NewDecoder(resp.Body).Decode(&served)
	resp.Body.Close()
	if served.Version != 2 {
		t.Fatalf("GET /shardmap version %d after PUT, want 2", served.Version)
	}

	req, _ := http.NewRequest(http.MethodDelete, rt.URL+"/shardmap", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE /shardmap = %d, want 405", resp.StatusCode)
	}
}

// TestUpdateMapUnderLoad hammers searches while maps swap back and
// forth: every response must be internally consistent (accounting
// matches one map generation; shard_map_version is one of the two) and
// none may error. This is the in-flight-fan-out guarantee PUT
// /shardmap documents.
func TestUpdateMapUnderLoad(t *testing.T) {
	b0 := &cannedBackend{hits: cannedHits}
	b1 := &cannedBackend{hits: cannedHits}
	addr0, addr1 := startCanned(t, b0), startCanned(t, b1)
	onewide := func(v int64) *ShardMap {
		return &ShardMap{Version: v, NumSeqs: 20, Shards: []Shard{{Lo: 0, Hi: 20, Backends: []string{addr0}}}}
	}
	twowide := func(v int64) *ShardMap {
		return &ShardMap{Version: v, NumSeqs: 20, Shards: []Shard{
			{Lo: 0, Hi: 10, Backends: []string{addr0}},
			{Lo: 10, Hi: 20, Backends: []string{addr1}},
		}}
	}
	c := newCoord(t, onewide(1), fastConfig())

	stop := make(chan struct{})
	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			for {
				select {
				case <-stop:
					done <- nil
					return
				default:
				}
				got, _, aerr := c.Search(context.Background(), &Request{SearchRequest: server.SearchRequest{Query: "MTDKL", K: 5}})
				if aerr != nil {
					done <- fmt.Errorf("search errored during map swap: %s (%s)", aerr.Code, aerr.Detail)
					return
				}
				want := 1
				if got.ShardMapVersion%2 == 0 {
					want = 2
				}
				if !got.Complete || got.ShardsOK != want {
					done <- fmt.Errorf("mixed-generation response: version %d with %d shards ok", got.ShardMapVersion, got.ShardsOK)
					return
				}
			}
		}()
	}
	for v := int64(2); v <= 21; v++ {
		m := onewide(v)
		if v%2 == 0 {
			m = twowide(v)
		}
		if err := c.UpdateMap(m); err != nil {
			t.Fatalf("swap to v%d: %v", v, err)
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
