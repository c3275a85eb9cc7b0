// Command seqserve is the long-lived alignment search service: it
// loads a protein database and a seed index once at startup, then
// serves deterministic top-K searches over HTTP until SIGTERM/SIGINT,
// when it drains gracefully (stop accepting, finish in-flight
// requests, flush final stats) and exits 0.
//
// Usage:
//
//	seqserve -db synthetic:1000 -related 20 -addr :8044
//	seqserve -db swissprot.fasta -index none -workers 8   # exhaustive scans only
//	seqserve -snapshot sp.snap                      # fast boot: mmap db+index in one file
//	curl -s localhost:8044/healthz
//	curl -s -d '{"query":"MTDKL...","k":5}' localhost:8044/search
//	seqclient -gen 1000 | seqclient -addr localhost:8044   # bulk NDJSON over /search/stream
//	curl -s localhost:8044/statsz
//	curl -s -X POST -d '{"path":"sp.v2.snap"}' localhost:8044/admin/reload   # hot swap, zero downtime
//	kill -HUP $(pidof seqserve)                     # re-open the last snapshot path
//
// The endpoints and the pipeline behind them (admission ->
// micro-batch -> shard -> rescore -> rank -> cache) are documented in
// internal/server and DESIGN.md's "Search service" section.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/bio"
	"repro/internal/faults"
	"repro/internal/index"
	"repro/internal/server"
	"repro/internal/snapshot"
)

func main() {
	var (
		dbArg   = flag.String("db", "synthetic:1000", "database: FASTA file path or synthetic:<n>")
		dbSeed  = flag.Int64("seed", 20061001, "synthetic database generator seed")
		related = flag.Int("related", 0, "plant this many homologs in a synthetic database")
		parent  = flag.String("parent", "P14942", "Table II accession the planted homologs derive from")

		indexArg = flag.String("index", "build",
			"seed index: 'build' to index -db in-process at startup, or 'none' for exhaustive-only (a prebuilt index travels inside a snapshot: see -snapshot)")
		kFlag = flag.Int("k", index.DefaultK, "k-mer length when -index build")

		snapArg = flag.String("snapshot", "",
			"boot from a SEQSNAP snapshot (indexbuild snapshot) instead of -db/-index: the file maps in db and index together, skipping the load and build entirely. Also the default artifact for POST /admin/reload and SIGHUP")
		snapVerify = flag.Bool("snapshot-verify", false,
			"checksum every snapshot section on open (catches torn copies; costs one pass over the file, against the fast-boot point of snapshots)")

		addr        = flag.String("addr", ":8044", "listen address")
		workers     = flag.Int("workers", 0, "scan worker pool size (0 = all CPUs)")
		kernel      = flag.String("kernel", "swar", "default scoring kernel for requests that pick none")
		cacheSize   = flag.Int("cache", server.DefaultCacheEntries, "LRU result cache entries (0 disables)")
		batchWindow = flag.Duration("batch-window", server.DefaultBatchWindow,
			"how long to hold a micro-batch open under concurrent load (0 disables the wait)")
		maxBatch  = flag.Int("max-batch", server.DefaultMaxBatch, "max requests coalesced into one batch")
		drainWait = flag.Duration("drain-timeout", 30*time.Second, "max time to finish in-flight requests on shutdown")

		queueDepth = flag.Int("queue-depth", server.DefaultQueueDepth,
			"admission gate capacity in cost units (indexed request = 1, exhaustive = 8+ scaled per kernel); past it single POSTs are shed with 429 and streams pause")
		streamWindow = flag.Int("stream-window", server.DefaultStreamWindow,
			"per-connection /search/stream flow-control window: max queries decoded but not yet written back")
		streamStall = flag.Duration("stream-stall", server.DefaultStreamStall,
			"cut off a /search/stream client idle this long (neither feeding nor draining); 0 disables the cutoff")
		reqTimeout = flag.Duration("request-timeout", 0,
			"server-side cap on every request's deadline (0 = none); requests past it fail with 408 deadline_exceeded")
		drainGrace = flag.Duration("drain-grace", 0,
			"after SIGTERM, keep answering with 503/draining this long before closing the listener, so load balancers see the drain")
		shardArg = flag.String("shard", "",
			"serve only the contiguous database slice lo:hi (global target IDs, hi exclusive); hit indexes are shard-local — a seqrouter remaps them. Every replica of a shard must pass the same -db/-seed/-related and the same -shard")
		faultsSpec = flag.String("faults", "",
			"deterministic fault injection spec, site:key=val,...[;site:...] (sites: "+faults.SiteList()+") — chaos testing only")
		faultsSeed = flag.Uint64("faults-seed", 1, "seed for -faults rate schedules")

		debugAddr = flag.String("debug-addr", "",
			"serve net/http/pprof plus /metrics and /debug/traces on this separate address (e.g. localhost:8045); empty disables the debug listener")
		traceRing = flag.Int("trace-ring", 0,
			"per-request trace ring capacity behind /debug/traces (0 = default)")
		logRequests = flag.Bool("log-requests", false,
			"emit one structured (slog) line per completed request, tagged with its trace id")
	)
	flag.Parse()
	if *indexArg != "build" && *indexArg != "none" {
		fatal(fmt.Errorf("-index %q: valid values are build, none; a prebuilt index travels inside a snapshot — write one with 'indexbuild snapshot -db ... -version ... -o x.snap' and boot with -snapshot x.snap", *indexArg))
	}

	// Bind the serving address BEFORE the (possibly long) database load
	// and index build, behind a swappable holding handler that answers
	// 503 "starting" on every path — including /healthz and /readyz —
	// until the real server is ready. Orchestrators and wait loops can
	// poll the port from the moment the process starts instead of racing
	// the index build for the bind; curl -sf fails on the 503 either
	// way, so existing wait-for-healthy loops are unchanged.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	var liveHandler atomic.Pointer[http.Handler]
	holding := http.Handler(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"ready":false,"reason":"starting"}`)
	}))
	liveHandler.Store(&holding)
	// The protocol-level timeouts cut off clients the request deadline
	// cannot see: a peer that never finishes its headers, trickles its
	// body (slowloris), or parks an idle keep-alive connection.
	httpSrv := &http.Server{
		Handler:           http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { (*liveHandler.Load()).ServeHTTP(w, r) }),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	var (
		db   *bio.Database
		ix   *index.Index
		snap *snapshot.Snapshot
	)
	if *snapArg != "" {
		// The snapshot fast path: db and index come out of one
		// page-aligned file, mapped rather than parsed — no FASTA scan,
		// no index build. A snapshot is built for an exact database
		// (and, for shard fleets, an exact slice — indexbuild snapshot
		// -shard), so the slicing flags don't apply here.
		if *shardArg != "" {
			fatal(fmt.Errorf("-shard does not combine with -snapshot: build a per-shard artifact with 'indexbuild snapshot -shard %s' and serve that file; hit indexes are shard-local either way", *shardArg))
		}
		start := time.Now()
		var serr error
		snap, serr = snapshot.Open(*snapArg, snapshot.OpenOptions{Verify: *snapVerify})
		if serr != nil {
			fatal(fmt.Errorf("opening snapshot %s: %w", *snapArg, serr))
		}
		db, ix = snap.DB, snap.Index
		fmt.Printf("seqserve: snapshot %s version %q: %d sequences, %.1f MiB, mmap=%v, loaded in %v (a -db boot re-reads FASTA and rebuilds the index instead; bench/ compares the two as index.build_ms vs snapshot.open_ms)\n",
			*snapArg, snap.Manifest.Version, db.NumSeqs(),
			float64(snap.SizeBytes())/(1<<20), snap.Mapped(),
			time.Since(start).Round(time.Microsecond))
	} else {
		var parentSeq *bio.Sequence
		if *related > 0 {
			parentSeq = bio.PaperQuery(*parent)
		}
		db, err = bio.LoadDatabase(*dbArg, *dbSeed, *related, parentSeq)
		if err != nil {
			fatal(err)
		}

		// -shard slices the loaded database to a contiguous target range;
		// the index built below then covers exactly the slice. The
		// full database is still loaded first so every shard's slice comes
		// from the identical global ordering — that identity is what lets a
		// seqrouter remap shard-local hit indexes by adding lo.
		if *shardArg != "" {
			if db, err = bio.ShardDatabase(db, *shardArg); err != nil {
				fatal(err)
			}
			fmt.Printf("seqserve: serving shard %s (%d of the database's sequences)\n", *shardArg, db.NumSeqs())
		}

		if *indexArg == "build" {
			if *kFlag < index.MinK || *kFlag > index.MaxK {
				fatal(fmt.Errorf("-k %d outside [%d, %d]", *kFlag, index.MinK, index.MaxK))
			}
			start := time.Now()
			ix = index.Build(db, index.Options{K: *kFlag})
			fmt.Printf("built seed index in %v (k=%d, %.1f MiB)\n",
				time.Since(start).Round(time.Millisecond), ix.K(),
				float64(ix.Stats().FootprintBytes)/(1<<20))
		}
	}

	// At the flag layer the defaults are already spelled out, so an
	// explicit 0 can only mean "off" — translate it to the Config
	// disable sentinel (where 0 means "use the default").
	if *cacheSize == 0 {
		*cacheSize = -1
	}
	if *batchWindow == 0 {
		*batchWindow = -1
	}
	if *streamStall == 0 {
		*streamStall = -1
	}
	reg, err := faults.ParseSpec(*faultsSpec, *faultsSeed)
	if err != nil {
		fatal(err)
	}
	if reg != nil {
		fmt.Printf("seqserve: FAULT INJECTION ARMED: %s (seed %d)\n", *faultsSpec, *faultsSeed)
	}
	var accessLog *slog.Logger
	if *logRequests {
		accessLog = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	srv, err := server.New(db, ix, server.Config{
		Workers:            *workers,
		DefaultKernel:      *kernel,
		CacheEntries:       *cacheSize,
		BatchWindow:        *batchWindow,
		MaxBatch:           *maxBatch,
		QueueDepth:         *queueDepth,
		StreamWindow:       *streamWindow,
		StreamStallTimeout: *streamStall,
		RequestTimeout:     *reqTimeout,
		Faults:             reg,
		TraceRing:          *traceRing,
		AccessLog:          accessLog,
	})
	if err != nil {
		fatal(err)
	}
	if snap != nil {
		// New built the first epoch unversioned; re-swap the same pair in
		// with the manifest's version stamp and the snapshot's Close as
		// the epoch release, so the mapping unmaps exactly when the last
		// in-flight request pinned to it finishes.
		if err := srv.Swap(snap.DB, snap.Index, snap.Manifest.Version, func() { snap.Close() }); err != nil {
			fatal(err)
		}
	}

	// Reloads — POST /admin/reload and SIGHUP — swap a new snapshot in
	// under live traffic. Serialized: a reload that loses the race simply
	// runs after the winner, and the path it loaded becomes the new
	// default for path-less reloads.
	var reloadMu sync.Mutex
	lastPath := *snapArg
	reload := func(path string) (snapshot.Manifest, time.Duration, error) {
		reloadMu.Lock()
		defer reloadMu.Unlock()
		if path == "" {
			path = lastPath
		}
		if path == "" {
			return snapshot.Manifest{}, 0, fmt.Errorf("no snapshot path: POST {\"path\":...} or start with -snapshot")
		}
		start := time.Now()
		ns, err := snapshot.Open(path, snapshot.OpenOptions{Verify: *snapVerify})
		if err != nil {
			return snapshot.Manifest{}, 0, err
		}
		old := srv.SnapshotVersion()
		if err := srv.Swap(ns.DB, ns.Index, ns.Manifest.Version, func() { ns.Close() }); err != nil {
			ns.Close()
			return snapshot.Manifest{}, 0, err
		}
		lastPath = path
		d := time.Since(start)
		fmt.Printf("seqserve: reloaded %s: snapshot version %q -> %q, %d sequences, in %v\n",
			path, old, ns.Manifest.Version, ns.DB.NumSeqs(), d.Round(time.Microsecond))
		return ns.Manifest, d, nil
	}

	// An operator who asked for the debug listener is debugging; a
	// silently-missing pprof port would waste exactly that session.
	if *debugAddr != "" {
		go func() { fatal(fmt.Errorf("debug listener: %w", srv.ServeDebug(*debugAddr))) }()
		fmt.Printf("seqserve: debug listener (pprof, /metrics, /debug/traces) on %s\n", *debugAddr)
	}

	// Swap the real handler in: the listener has been up since before
	// the load, and from this store on /healthz and /readyz answer for
	// the real server. /admin/reload lives in this outer mux — snapshot
	// files are a deployment concern, so internal/server stays
	// snapshot-agnostic and only sees the Swap.
	outer := http.NewServeMux()
	outer.Handle("/", srv.Handler())
	outer.HandleFunc("/admin/reload", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if r.Method != http.MethodPost {
			w.WriteHeader(http.StatusMethodNotAllowed)
			fmt.Fprintln(w, `{"error":"bad_method","detail":"POST /admin/reload with an optional {\"path\":...} body"}`)
			return
		}
		var body struct {
			Path string `json:"path"`
		}
		if r.ContentLength != 0 {
			if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&body); err != nil {
				w.WriteHeader(http.StatusBadRequest)
				_ = json.NewEncoder(w).Encode(map[string]string{"error": server.ErrBadRequest, "detail": err.Error()})
				return
			}
		}
		man, d, err := reload(body.Path)
		if err != nil {
			w.WriteHeader(http.StatusInternalServerError)
			_ = json.NewEncoder(w).Encode(map[string]string{"error": "reload_failed", "detail": err.Error()})
			return
		}
		_ = json.NewEncoder(w).Encode(map[string]any{
			"snapshot_version": man.Version,
			"num_seqs":         man.NumSeqs,
			"load_ms":          d.Milliseconds(),
		})
	})
	real := http.Handler(outer)
	liveHandler.Store(&real)
	fmt.Printf("seqserve: serving %d sequences (%d residues) on %s\n",
		db.NumSeqs(), db.TotalResidues(), ln.Addr())

	// SIGHUP is the classic "reload your config" signal: here it re-opens
	// the last snapshot path (new file contents, same name — the rename
	// publish idiom) without a connection's worth of downtime.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT, syscall.SIGHUP)
waitLoop:
	for {
		select {
		case sig := <-sigCh:
			if sig == syscall.SIGHUP {
				if _, _, err := reload(""); err != nil {
					fmt.Fprintln(os.Stderr, "seqserve: SIGHUP reload failed, still serving the old snapshot:", err)
				}
				continue
			}
			fmt.Printf("seqserve: %v, draining\n", sig)
			break waitLoop
		case err := <-errCh:
			fatal(err) // the listener died before any signal
		}
	}

	// Graceful drain, in three steps. BeginDrain flips the service to
	// explicit refusal — new /search requests get 503/draining, queued
	// but unstarted jobs fail the same way, in-flight batches finish —
	// and the optional grace window keeps the listener up so load
	// balancers and health checks observe the 503s instead of
	// connection resets. Then Shutdown stops accepting and waits for
	// in-flight handlers; only after that may the batching pipeline
	// stop — none ever see a half-stopped pipeline.
	srv.BeginDrain()
	if *drainGrace > 0 {
		time.Sleep(*drainGrace)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		// Handlers may still be mid-pipeline; stopping the dispatcher
		// and workers under them would panic or hang. Report the
		// failed drain honestly and exit non-zero.
		fatal(fmt.Errorf("drain timed out after %v: %w", *drainWait, err))
	}
	srv.Close()

	stats := srv.Stats()
	fmt.Printf("seqserve: drained after %.1fs: %d requests (%.1f qps), %d errors, cache hit rate %.2f (%d hits, %d coalesced, %d misses)\n",
		stats.UptimeS, stats.Requests, stats.QPS, stats.Errors,
		stats.Cache.HitRate, stats.Cache.Hits, stats.Cache.Coalesced, stats.Cache.Misses)
	if stats.Streams.Total > 0 {
		fmt.Printf("seqserve: streams: %d connections, %d lines in, %d results out (%.1f stream qps), %d line errors\n",
			stats.Streams.Total, stats.Streams.Lines, stats.Streams.Results, stats.StreamQPS, stats.Streams.Errors)
	}
	if stats.ShedTotal+stats.TimeoutTotal+stats.PanicTotal+stats.AbandonedTotal > 0 || stats.Degraded {
		fmt.Printf("seqserve: resilience: %d shed, %d timed out, %d abandoned, %d panics isolated, degraded=%v\n",
			stats.ShedTotal, stats.TimeoutTotal, stats.AbandonedTotal, stats.PanicTotal, stats.Degraded)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "seqserve:", err)
	os.Exit(1)
}
