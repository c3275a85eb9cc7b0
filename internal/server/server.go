package server

import (
	"context"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/align"
	"repro/internal/bio"
	"repro/internal/faults"
	"repro/internal/index"
	"repro/internal/obs"
)

// Config tunes a Server. The zero value serves with the paper's
// scoring parameters, the SWAR kernel, one worker per CPU, a
// 1024-entry result cache, and a 250µs batching window.
type Config struct {
	// Params is the scoring model; the zero value selects
	// align.PaperParams (BLOSUM62, gaps 10/1).
	Params align.Params
	// Workers is the scan pool size; <= 0 means GOMAXPROCS.
	Workers int
	// DefaultKernel names the kernel scoring requests that pick none
	// (align.KernelNames); empty means "swar".
	DefaultKernel string
	// CacheEntries bounds the LRU result cache; 0 means
	// DefaultCacheEntries, negative disables caching (single-flight
	// dedup still applies).
	CacheEntries int
	// BatchWindow is how long the dispatcher holds a batch open once
	// concurrent load is detected; 0 means DefaultBatchWindow,
	// negative disables the wait (opportunistic draining only).
	BatchWindow time.Duration
	// MaxBatch caps jobs per batch; 0 means DefaultMaxBatch.
	MaxBatch int
	// QueueDepth is the admission gate's capacity in cost units
	// (costIndexed per indexed job, exhaustiveCost(kernel) per
	// exhaustive one); 0 means DefaultQueueDepth. Single-POST requests
	// arriving past it are shed with 429/overloaded rather than queued
	// without bound; streaming connections block their read loop at
	// the gate instead.
	QueueDepth int
	// StreamWindow bounds how many of one /search/stream connection's
	// queries may be in flight (decoded but not yet written back) at
	// once; past it the reader pauses — backpressure, not shedding. 0
	// means DefaultStreamWindow.
	StreamWindow int
	// StreamStallTimeout cuts off a streaming client that neither
	// feeds nor drains its connection for this long: completed results
	// are flushed, a terminal client_stall line is written, and the
	// stream ends. 0 means DefaultStreamStall; negative disables the
	// cutoff.
	StreamStallTimeout time.Duration
	// RequestTimeout caps every request's deadline: a request with no
	// timeout_ms gets exactly this, one with a longer timeout_ms is
	// clamped to it. 0 means no server-imposed deadline.
	RequestTimeout time.Duration
	// Faults is the deterministic fault-injection registry
	// (internal/faults); nil — the production value — disarms every
	// site at the cost of one nil check per probe.
	Faults *faults.Registry
	// Logf receives operational log lines (degrade events, isolated
	// panics); nil means log.Printf.
	Logf func(format string, args ...any)
	// TraceRing bounds the /debug/traces ring of recent request traces;
	// 0 means obs.DefaultRingSize. Tracing is always on — the ring is
	// lock-free and publishing a trace is one pointer store.
	TraceRing int
	// AccessLog, when non-nil, receives one structured line per
	// finished request (and per stream line) carrying the trace ID,
	// outcome, and latency. Nil — the default — logs nothing: at bulk
	// rates a per-request log line would cost more than the search.
	AccessLog *slog.Logger
}

// The documented Config defaults.
const (
	DefaultCacheEntries = 1024
	DefaultBatchWindow  = 250 * time.Microsecond
	DefaultMaxBatch     = 32
	DefaultQueueDepth   = 256
	DefaultStreamWindow = 64
	DefaultStreamStall  = 30 * time.Second
)

// Server is the long-lived search service: the local pipeline, which
// is a Backend, plus the Frontend it serves through. Construct with
// New, mount Handler on an http.Server, and shut down in order:
// BeginDrain, then http.Server.Shutdown, then Close after the HTTP side
// has drained (Close stops the dispatcher and workers, so no request
// may still be in flight).
type Server struct {
	cfg    Config
	kernel align.Kernel // resolved Config.DefaultKernel
	logf   func(format string, args ...any)

	// cur is the serving epoch — the (db, index, searchers, version)
	// triple every request pins for its lifetime. Swap replaces it
	// atomically; epoch.go owns the pin/release protocol.
	cur atomic.Pointer[epoch]

	cache   *resultCache
	metrics metrics
	fe      *Frontend // the HTTP face; owns the drain flag, registry and trace ring

	admit admission // weighted admission gate in front of queue

	queue      chan *job
	phaseCh    chan *batchPhase
	dispatchWG sync.WaitGroup
	workerWG   sync.WaitGroup
	closeOnce  sync.Once
}

// New builds and starts a Server over db, with ix (may be nil) as the
// seed index. The index is validated against the database — serving
// candidates for the wrong database would be silently wrong answers —
// but a validation failure degrades the server to exhaustive scanning
// instead of refusing to start: exact answers beat no service.
func New(db *bio.Database, ix *index.Index, cfg Config) (*Server, error) {
	if db == nil || db.NumSeqs() == 0 {
		return nil, fmt.Errorf("server: empty database")
	}
	if cfg.Params.Matrix == nil {
		cfg.Params = align.PaperParams()
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.DefaultKernel == "" {
		cfg.DefaultKernel = "swar"
	}
	defaultKernel, err := align.KernelByName(cfg.DefaultKernel)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	switch {
	case cfg.CacheEntries == 0:
		cfg.CacheEntries = DefaultCacheEntries
	case cfg.CacheEntries < 0:
		cfg.CacheEntries = 0 // resultCache treats cap <= 0 as disabled
	}
	if cfg.BatchWindow == 0 {
		cfg.BatchWindow = DefaultBatchWindow
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}

	s := &Server{
		cfg:     cfg,
		kernel:  defaultKernel,
		logf:    cfg.Logf,
		cache:   newResultCache(cfg.CacheEntries),
		queue:   make(chan *job, cfg.QueueDepth),
		phaseCh: make(chan *batchPhase, cfg.Workers),
	}
	if s.logf == nil {
		s.logf = log.Printf
	}
	s.admit.capacity = int64(cfg.QueueDepth)
	s.admit.notify = make(chan struct{}, 1)

	// The first epoch is unversioned (no snapshot label) and lenient:
	// an invalid index degrades the epoch instead of failing startup.
	ep, err := s.newEpoch(db, ix, "", nil, false)
	if err != nil {
		return nil, err // unreachable with strict=false; kept for shape
	}
	s.cur.Store(ep)
	s.fe = NewFrontend(s, "seqserve", cfg)
	s.initMetrics()

	for i := 0; i < cfg.Workers; i++ {
		w := &worker{id: i, scr: align.NewScratch()}
		s.workerWG.Add(1)
		go s.workerLoop(w)
	}
	s.dispatchWG.Add(1)
	go s.dispatch()
	return s, nil
}

// Handler returns the service's HTTP handler: the Frontend over this
// server's pipeline.
func (s *Server) Handler() http.Handler { return s.fe }

// BeginDrain flips the server to draining: new /search requests are
// refused with 503/draining (and /healthz reports draining), queued
// but unstarted jobs fail the same way, and the batch already scoring
// completes normally. Call it before http.Server.Shutdown so load
// balancers and clients get a fast explicit signal instead of
// connection resets. Idempotent.
func (s *Server) BeginDrain() { s.fe.BeginDrain() }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.fe.Draining() }

// Degraded reports whether the serving epoch has stopped trusting its
// index and normalizes every request to the exhaustive scan. Unlike
// the pre-reload design this is per-epoch: a Swap to fresh data
// re-earns trust.
func (s *Server) Degraded() bool { return s.cur.Load().degraded.Load() }

// enterDegraded flips one epoch to degraded mode (once) and logs why.
func (s *Server) enterDegraded(e *epoch, reason string) {
	if e.degraded.CompareAndSwap(false, true) {
		s.logf("server: index error: %s; degrading to exhaustive scans", reason)
	}
}

// Close stops the dispatcher and the worker pool, then drops the
// owner pin on the final epoch so a snapshot-backed server unmaps its
// mapping on the way out. It must run after the HTTP side has drained
// (http.Server.Shutdown has returned): a handler still waiting on a
// job when the pipeline stops would wait forever. Close is idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.queue)
		s.dispatchWG.Wait()
		close(s.phaseCh)
		s.workerWG.Wait()
		s.cur.Load().unref()
	})
}

// localQuery is the Server's Query: one request on its way through the
// local pipeline.
type localQuery struct {
	s      *Server
	stream bool          // a stream line: blocking admission, id on the answer
	line   StreamRequest // a POST decodes into line.SearchRequest alone
	ep     *epoch        // pinned by Prepare, dropped by Search
	norm   normalized
}

// NewQuery, Health and Statsz make the Server a Backend.
func (s *Server) NewQuery(stream bool) Query { return &localQuery{s: s, stream: stream} }

func (q *localQuery) Target() any {
	if q.stream {
		return &q.line
	}
	return &q.line.SearchRequest
}

// Prepare pins the serving epoch for the request's whole lifetime —
// the data validated against is the data scored against, even if a
// reload lands mid-request (a hot reload mid-stream means earlier lines
// answer from the old data and later lines from the new, each stamped
// with the version that served it) — and validates against it.
func (q *localQuery) Prepare(tr *obs.Trace) (string, int64, *APIError) {
	ep := q.s.currentEpoch()
	tr.Degraded = ep.degraded.Load()
	norm, aerr := q.s.validateStream(ep, &q.line)
	if aerr != nil {
		ep.unref()
		return q.line.ID, 0, aerr
	}
	q.ep, q.norm = ep, norm
	tr.Kernel = norm.kernel.String()
	tr.QueryLen = len(norm.residues)
	tr.Exhausted = norm.exhaustive
	q.s.metrics.kernelRequests.With(tr.Kernel).Add(1)
	return q.line.ID, q.line.TimeoutMs, nil
}

func (q *localQuery) Search(ctx context.Context, tr *obs.Trace) (any, *APIError) {
	defer q.ep.unref()
	start := time.Now()
	hits, cached, aerr := q.s.search(ctx, q.ep, q.norm, q.stream, tr)
	if aerr != nil {
		return nil, aerr
	}
	tr.CacheHit = cached
	resp := SearchResponse{
		QueryLen:        len(q.norm.residues),
		Kernel:          q.norm.kernel.String(),
		K:               q.norm.topK,
		Exhaustive:      q.norm.exhaustive,
		Cached:          cached,
		Hits:            hits,
		TookUs:          time.Since(start).Microseconds(),
		SnapshotVersion: q.ep.version,
	}
	if q.stream {
		return &StreamResult{ID: q.line.ID, SearchResponse: resp}, nil
	}
	return &resp, nil
}

// search serves one validated request through the cache, the
// single-flight layer, and — for a leader — the batching pipeline.
// The returned cached flag is true whenever the hits were not
// computed by this request (LRU hit or coalesced onto a leader).
//
// Failure handling is per role. A follower whose own context dies
// leaves immediately (the leader keeps computing for everyone else).
// A follower whose LEADER failed inherits failures that would hit it
// identically (shed, draining, internal) but retries for leadership
// when the failure was the leader's own deadline or disconnect — the
// follower's deadline may still have room. The loop cannot livelock:
// every iteration either returns, observes a completed flight, or
// promotes some waiter to leader.
//
// wait selects the admission policy: false is the single-POST contract
// (a full gate sheds with 429/overloaded), true is the streaming one
// (a full gate blocks the caller — pausing that stream's read loop —
// until capacity frees or ctx dies).
func (s *Server) search(ctx context.Context, ep *epoch, norm normalized, wait bool, tr *obs.Trace) ([]Hit, bool, *APIError) {
	key := norm.cacheKey(ep)
	for {
		lookupStart := time.Now()
		cachedHits, f, leader := s.cache.begin(key)
		if f == nil { // LRU hit
			tr.SpanSince(obs.StageCache, lookupStart)
			return cachedHits, true, nil
		}
		if leader {
			return s.lead(ctx, ep, key, f, norm, wait, tr)
		}
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, false, CtxError(ctx)
		}
		if f.err == nil {
			tr.SpanSince(obs.StageWait, lookupStart)
			return f.hits, true, nil
		}
		if f.err != errDeadline && f.err != errClientGone {
			return nil, false, f.err
		}
	}
}

// lead computes a flight's result through the pipeline. Every exit
// resolves the flight exactly once — finish on success, abort on any
// failure — so followers never wait forever, and every exit settles
// the job ownership CAS so the job is recycled by exactly one side.
func (s *Server) lead(ctx context.Context, ep *epoch, key cacheKey, f *flight, norm normalized, wait bool, tr *obs.Trace) ([]Hit, bool, *APIError) {
	if s.Draining() { // re-check: drain may have flipped since the front-end's gate
		s.cache.abort(key, f, errDraining)
		return nil, false, errDraining
	}
	j := getJob()
	j.cost = jobCost(norm)
	admitStart := time.Now()
	if wait {
		// Streaming backpressure: park at the gate rather than shed —
		// this pauses exactly one connection's read loop.
		if err := s.admit.acquire(ctx, j.cost); err != nil {
			j.cost = 0
			putJob(j)
			aerr := CtxError(ctx)
			s.cache.abort(key, f, aerr)
			return nil, false, aerr
		}
	} else if !s.admit.tryAcquire(j.cost) {
		j.cost = 0
		putJob(j)
		s.metrics.shed.Add(1)
		s.cache.abort(key, f, errOverloaded)
		return nil, false, errOverloaded
	}
	tr.SpanSince(obs.StageAdmission, admitStart)
	j.pq = align.PrepareQuery(s.cfg.Params, norm.residues, norm.kernel)
	j.norm = norm
	j.coalesce = norm.coalesce
	j.ctx = ctx
	// The job takes its own pin: an abandoned job outlives its handler,
	// and the pipeline must still be able to score it against the epoch
	// it was admitted under. recycleJob drops the pin.
	j.ep = ep
	ep.ref()
	j.enqueued = time.Now()
	s.queue <- j // admission bounds occupancy, so this never blocks

	select {
	case <-j.done:
	case <-ctx.Done():
		if j.abandon() {
			// The pipeline now owns the job and will recycle it; the
			// buffers it may still be writing are no longer ours.
			err := CtxError(ctx)
			s.cache.abort(key, f, err)
			return nil, false, err
		}
		<-j.done // lost the race: the result is ready, take it
	}

	// The job's pipeline timing fields are safe to read from here: the
	// dispatcher wrote them before completing the job, and <-j.done is
	// the happens-before edge. (An abandoned job never reaches this
	// point, so the trace and the pipeline never share a live job.)
	copyPipelineSpans(tr, j)

	if err := j.err; err != nil {
		s.recycleJob(j)
		s.cache.abort(key, f, err)
		return nil, false, err
	}
	hits := wireHits(j.hits)
	s.recycleJob(j)
	s.cache.finish(key, f, hits)
	return hits, false, nil
}

// copyPipelineSpans lifts the pipeline timing facts the dispatcher
// recorded on the job into the request's trace. Must run after
// <-j.done and before the job is recycled (reset scrubs the fields).
func copyPipelineSpans(tr *obs.Trace, j *job) {
	if tr == nil {
		return
	}
	tr.BatchSize = j.batchSize
	if j.batchStart.IsZero() {
		return // failed fast (drain) before the batch ran
	}
	tr.SpanAt(obs.StageQueue, j.enqueued, j.batchStart.Sub(j.enqueued))
	if j.seedDur > 0 {
		tr.SpanAt(obs.StageSeed, j.batchStart, j.seedDur)
	}
	if j.scanDur > 0 {
		tr.SpanAt(obs.StageScan, j.scanStart, j.scanDur)
	}
	if j.rankDur > 0 {
		tr.SpanAt(obs.StageRank, j.rankStart, j.rankDur)
	}
}

func (s *Server) Statsz() any {
	snap := s.Stats()
	return &snap
}

// Health is always ready once the Server exists (the pipeline is warm
// by then; draining is the Frontend's flag) and reports the serving
// epoch's degraded flag and snapshot version.
func (s *Server) Health() (string, map[string]any) {
	ep := s.cur.Load()
	return "", map[string]any{"degraded": ep.degraded.Load(), "snapshot_version": ep.version}
}

// ServeDebug serves the -debug-addr listener (Frontend.ServeDebug).
func (s *Server) ServeDebug(addr string) error { return s.fe.ServeDebug(addr) }
