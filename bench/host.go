package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bio"
	"repro/internal/cluster"
	"repro/internal/index"
	"repro/internal/server"
	"repro/internal/snapshot"
)

// node is one hosted seqserve: the handler cmd/seqserve mounts, with
// the production-default server.Config, behind a loopback listener.
type node struct {
	srv  *server.Server
	http *http.Server
	url  string
	done chan struct{} // closed when Serve has returned
}

func startNode(h http.Handler) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	n := &node{
		http: &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(n.done)
		_ = n.http.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	return n, nil
}

// stop shuts the listener down, waits for Serve to return, then stops
// the pipeline — the order server.Server documents.
func (n *node) stop() {
	if n.srv != nil {
		n.srv.BeginDrain()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := n.http.Shutdown(ctx); err != nil {
		_ = n.http.Close() // a stuck connection must not outlive the run
	}
	<-n.done
	if n.srv != nil {
		n.srv.Close()
	}
}

// quiet drops the servers' operational log lines (epoch swaps); a
// request that goes wrong shows up in the oracle's count instead.
func quiet(string, ...any) {}

// host is the program under test as one run sees it: the full-database
// server and, when routed, two shard servers behind a router.
type host struct {
	in     *inputs
	snap   string       // snapshot file the full server was opened from
	ix     *index.Index // heap-built index over in.db; the oracle's, valid after tearDown
	full   *node
	shards []*node
	coord  *cluster.Coordinator
	router *node // nil unless set up with the router
}

// target is where a workload's clients send: the router or the full
// server.
func (h *host) target(routed bool) *node {
	if routed {
		return h.router
	}
	return h.full
}

// serving lists the servers that score a workload's queries: the shards
// when routed.
func (h *host) serving(routed bool) []*node {
	if routed {
		return h.shards
	}
	return []*node{h.full}
}

// setUp boots what cmd/seqserve boots from a snapshot — index.Build,
// snapshot.Write, snapshot.Open with full verification, server.New,
// Swap to stamp the version, listener — and with routed also two
// `-shard lo:hi` servers and a seqrouter with health probing off.
// Together with generate it is what setup_s times.
func setUp(in *inputs, dir string, router bool) (*host, error) {
	h := &host{in: in, snap: filepath.Join(dir, fmt.Sprintf("bench-%d.snap", in.seed))}
	ok := false
	defer func() {
		if !ok {
			h.tearDown()
		}
	}()
	h.ix = index.Build(in.db, index.Options{})
	if _, err := snapshot.Write(h.snap, in.db, h.ix, snapshot.Manifest{Version: "bench", Tool: "bench"}); err != nil {
		return nil, fmt.Errorf("writing snapshot: %w", err)
	}
	snap, err := snapshot.Open(h.snap, snapshot.OpenOptions{Verify: true})
	if err != nil {
		return nil, fmt.Errorf("opening snapshot: %w", err)
	}
	srv, err := server.New(snap.DB, snap.Index, server.Config{Logf: quiet})
	if err != nil {
		snap.Close()
		return nil, fmt.Errorf("starting server: %w", err)
	}
	if err := srv.Swap(snap.DB, snap.Index, snap.Manifest.Version, func() { snap.Close() }); err != nil {
		srv.Close()
		snap.Close()
		return nil, fmt.Errorf("stamping snapshot version: %w", err)
	}
	if h.full, err = startNode(srv.Handler()); err != nil {
		srv.Close()
		return nil, err
	}
	h.full.srv = srv
	if router {
		if err := h.setUpRouter(); err != nil {
			return nil, err
		}
	}
	ok = true
	return h, nil
}

func (h *host) setUpRouter() error {
	n := h.in.db.NumSeqs()
	m := &cluster.ShardMap{Version: 1, NumSeqs: n}
	for _, cut := range [][2]int{{0, n / 2}, {n / 2, n}} {
		sliced := bio.NewDatabase(h.in.db.Seqs[cut[0]:cut[1]])
		srv, err := server.New(sliced, index.Build(sliced, index.Options{}), server.Config{Logf: quiet})
		if err != nil {
			return fmt.Errorf("starting shard %d:%d: %w", cut[0], cut[1], err)
		}
		nd, err := startNode(srv.Handler())
		if err != nil {
			srv.Close()
			return err
		}
		nd.srv = srv
		h.shards = append(h.shards, nd)
		m.Shards = append(m.Shards, cluster.Shard{Lo: cut[0], Hi: cut[1], Backends: []string{nd.url[len("http://"):]}})
	}
	if err := m.Validate(); err != nil {
		return fmt.Errorf("shard map: %w", err)
	}
	coord, err := cluster.New(m, cluster.Config{ProbeInterval: -1, Logf: quiet})
	if err != nil {
		return fmt.Errorf("starting coordinator: %w", err)
	}
	h.coord = coord
	h.router, err = startNode(cluster.NewRouter(coord))
	return err
}

// tearDown stops everything setUp started, outermost first, and
// removes the snapshot file.
func (h *host) tearDown() {
	if h.router != nil {
		h.router.stop()
	}
	if h.coord != nil {
		h.coord.Close()
	}
	for _, s := range h.shards {
		s.stop()
	}
	if h.full != nil {
		h.full.stop()
	}
	_ = os.Remove(h.snap) // scratch file; the directory is removed at exit anyway
}
