package server

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/align"
	"repro/internal/faults"
)

// The batching pipeline. Requests become jobs; a single dispatcher
// goroutine collects jobs into micro-batches; a bounded pool of
// workers executes each batch in phases:
//
//	seed  — indexed jobs get their candidate sets from per-worker
//	        index.Searcher clones (one job per work unit);
//	scan  — every exhaustive job in the batch is scored in ONE pass
//	        over the sharded database: a work unit is a range of
//	        database sequences, scored for each exhaustive job while
//	        the residues are hot in cache. Indexed jobs scan only
//	        their candidate ranges, as their own units.
//	rank  — the dispatcher ranks each job's scores (align.RankHits)
//	        and completes it.
//
// Determinism: scores land in per-job slices indexed by item, exactly
// as align.SearchDB's sharded scan fills its slice, so neither the
// batch composition nor the worker count nor the unit size can change
// a result — only who computes it and when.
//
// Resilience (DESIGN.md "Resilience"): every job carries its request
// context and a tiny state machine (pending → completed | abandoned).
// The handler owns a completed job's result; an abandoned job —
// deadline hit or client gone — is recycled by the pipeline, and the
// CAS between those two outcomes guarantees a job is never pooled
// while the other side still holds it. Scoring runs under per-job
// panic isolation, candidate generation under panic-to-error capture,
// and both are probed by the internal/faults sites compiled into this
// file.

// The job ownership states. Exactly one CAS away from pending wins.
const (
	jobPending   uint32 = iota
	jobCompleted        // pipeline delivered done; the handler owns the job
	jobAbandoned        // the handler gave up; the pipeline recycles the job
)

// job is one admitted /search computation.
type job struct {
	pq   *align.PreparedQuery
	norm normalized
	ctx  context.Context // request context; nil (direct tests) never cancels
	// ep is the epoch this job scores against, pinned at admission so a
	// hot reload cannot pull the database out from under a queued or
	// executing job. The pin is the job's own (the handler may abandon
	// the job and drop its pin first); recycleJob releases it. nil —
	// direct-test batches — is normalized to the serving epoch by
	// runBatch.
	ep       *epoch
	cost     int64 // admission units held until recycle; 0 = none held
	cand     []int // indexed path: candidate database indexes
	scores   []int // per item (database index, or cand position)
	hits     []align.Hit
	err      *APIError   // set by the pipeline: draining, deadline, panic
	failed   atomic.Bool // a scoring panic hit this job; stop scoring it
	seedErr  bool        // candidate generation failed; rescore exhaustively
	coalesce bool        // all_vs_all: batchable past MaxBatch (see dispatch)
	state    atomic.Uint32
	enqueued time.Time
	done     chan struct{}

	// Pipeline timing facts for the request trace: plain fields written
	// by the dispatcher before completeJob and read by the handler only
	// after <-j.done (the done channel is the happens-before edge; an
	// abandoned job is never read by its handler). They deliberately
	// live on the job, not on a shared trace object — the trace stays
	// single-owner.
	batchStart time.Time     // when the batch holding this job began executing
	scanStart  time.Time     // when the batch's scan phase began
	rankStart  time.Time     // when the batch's rank loop began
	seedDur    time.Duration // candidate-generation phase duration (0: none ran)
	scanDur    time.Duration // scan phase duration (0: none ran)
	rankDur    time.Duration // rank start -> this job completed
	batchSize  int           // live jobs in the batch that scored this one
}

// ctxErr is the job's cancellation checkpoint; nil contexts (batches
// built directly by tests) never cancel.
func (j *job) ctxErr() error {
	if j.ctx == nil {
		return nil
	}
	return j.ctx.Err()
}

// abandon is the handler's half of the ownership CAS: true means the
// handler may walk away and the pipeline will recycle the job.
func (j *job) abandon() bool { return j.state.CompareAndSwap(jobPending, jobAbandoned) }

// reset scrubs a job for pooling. Buffer capacity survives (that is
// the point of the pool) but nothing readable does: a cancelled job's
// scores, candidates, query, and context must never leak into a later
// request's response (batch_test.go pins this).
func (j *job) reset() {
	j.pq = nil
	j.norm = normalized{}
	j.ctx = nil
	j.ep = nil // the pin itself is released by recycleJob, never here
	j.cost = 0
	j.cand = j.cand[:0]
	j.scores = j.scores[:0]
	j.hits = nil
	j.err = nil
	j.failed.Store(false)
	j.seedErr = false
	j.coalesce = false
	j.state.Store(jobPending)
	j.batchStart = time.Time{}
	j.scanStart = time.Time{}
	j.rankStart = time.Time{}
	j.seedDur = 0
	j.scanDur = 0
	j.rankDur = 0
	j.batchSize = 0
}

// jobPool recycles jobs and their score/candidate buffers so a loaded
// server reaches a steady state where admission allocates only what
// the response itself needs.
var jobPool = sync.Pool{New: func() any { return &job{done: make(chan struct{}, 1)} }}

func getJob() *job { return jobPool.Get().(*job) }
func putJob(j *job) {
	j.reset()
	jobPool.Put(j)
}

// Admission cost weights: what one job occupies in the bounded
// admission gate. An exhaustive scan touches every database sequence;
// an indexed one a bounded candidate set (max_candidates, default 64)
// — two orders of magnitude fewer cells, so indexed jobs cost one flat
// unit. Exhaustive jobs cost per KERNEL, scaled from the measured
// per-cell rates (Mcells/s of `go test -bench BenchmarkKernel .` in the
// root package when the weights were set, swar 666 = the baseline 8): a
// flood of cheap exhaustive SWAR scans fills the gate at 8 units each,
// while a flood of emulated-SIMD scans — ~11x more CPU per cell —
// fills it at up to 92, so neither can starve cheap indexed queries
// past its real share of the scan pool.
const (
	costIndexed    = 1
	costExhaustive = 8 // full scan with the fastest kernel (swar)
)

// exhaustiveCost scales the full-scan baseline by the kernel's
// measured per-cell cost relative to swar.
func exhaustiveCost(k align.Kernel) int64 {
	switch k {
	case align.KernelSWAR:
		return costExhaustive // 666 Mcells/s
	case align.KernelSW:
		return 18 // 296
	case align.KernelSSEARCH:
		return 20 // 271
	case align.KernelGotoh:
		return 20 // 262
	case align.KernelVMX256:
		return 45 // 117
	case align.KernelVMX128:
		return 68 // 78
	case align.KernelStriped:
		return 92 // 58
	default:
		return 92 // unknown kernels are priced like the dearest
	}
}

func jobCost(n normalized) int64 {
	if n.exhaustive {
		return exhaustiveCost(n.kernel)
	}
	return costIndexed
}

// admission is the weighted admission gate in front of the queue:
// tryAcquire either admits a job's cost or reports that the server
// should shed; acquire blocks instead — the streaming path's
// backpressure, where pausing one connection's read loop beats
// 429-shedding mid-stream. Cost is held until the job is recycled, so
// it tracks queued and executing work alike.
type admission struct {
	capacity int64
	cost     atomic.Int64
	jobs     atomic.Int64
	// notify wakes one blocked acquire per release. One buffered
	// token is deliberately lossy — the poll backstop in acquire
	// covers the lost-wakeup window without putting a lock on the
	// tryAcquire fast path.
	notify chan struct{}
}

// tryAcquire admits c cost units unless the gate is at capacity. A
// job costing more than the whole capacity still admits when the gate
// is empty — otherwise a small -queue-depth could deadlock exhaustive
// queries out entirely.
func (a *admission) tryAcquire(c int64) bool {
	for {
		cur := a.cost.Load()
		if cur > 0 && cur+c > a.capacity {
			return false
		}
		if a.cost.CompareAndSwap(cur, cur+c) {
			a.jobs.Add(1)
			return true
		}
	}
}

func (a *admission) release(c int64) {
	if c > 0 {
		a.cost.Add(-c)
		a.jobs.Add(-1)
		if a.notify != nil {
			select {
			case a.notify <- struct{}{}:
			default:
			}
		}
	}
}

// admissionPoll is acquire's lost-wakeup backstop: a parked waiter
// rechecks the gate at least this often even if every notify token
// was consumed by a luckier waiter.
const admissionPoll = time.Millisecond

// acquire admits c cost units, blocking while the gate is full. It
// returns ctx.Err() instead when the context dies first — a stream
// whose client hung up must not stay parked at the gate.
func (a *admission) acquire(ctx context.Context, c int64) error {
	if a.tryAcquire(c) {
		return nil
	}
	t := time.NewTimer(admissionPoll)
	defer t.Stop()
	for {
		select {
		case <-a.notify:
		case <-t.C:
			t.Reset(admissionPoll)
		case <-ctx.Done():
			return ctx.Err()
		}
		if a.tryAcquire(c) {
			return nil
		}
	}
}

// scanChunk is how many database sequences one scan unit covers:
// small enough to balance ragged lengths across workers, large enough
// to amortize unit claiming (same trade as align.SearchDB's
// searchBatch, doubled because a batched unit does per-job work).
const scanChunk = 8

// unit is one claimable piece of a batch's scan phase.
type unit struct {
	job    *job // nil: exhaustive group unit covering every exhaustive job
	lo, hi int  // database index range (job == nil) or cand range
}

// batchPhase is one barrier-synchronized stage of a batch, handed to
// every worker; workers claim work units via the atomic cursor until
// none remain.
type batchPhase struct {
	seedJobs []*job // seed phase: one unit per job
	exJobs   []*job // scan phase: jobs every exhaustive unit scores
	units    []unit // scan phase: claimable ranges
	next     atomic.Int64
	poisoned atomic.Bool // a panic escaped per-job isolation this phase
	wg       sync.WaitGroup
}

// worker is one pool member: the Scratch it owns outlives every batch,
// so steady-state scans allocate nothing. id picks the worker's
// Searcher clone out of whichever epoch a job is pinned to — the
// clones live on the epoch (they cache the database), not the worker.
type worker struct {
	id  int
	scr *align.Scratch
}

func (s *Server) workerLoop(w *worker) {
	defer s.workerWG.Done()
	for ph := range s.phaseCh {
		s.runWorkerPhase(w, ph)
	}
}

// runWorkerPhase executes one phase on one worker with a last-resort
// recover: scoring panics are already isolated per job in scoreChunk,
// so anything reaching here is a pipeline bug — the phase is poisoned
// (every job in the batch fails with 500/internal rather than risk
// serving half-scored buffers) but the worker re-arms and the process
// survives.
func (s *Server) runWorkerPhase(w *worker, ph *batchPhase) {
	defer ph.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			ph.poisoned.Store(true)
			s.metrics.panics.Add(1)
			s.logf("server: panic escaped job isolation (phase poisoned): %v", r)
		}
	}()
	w.runPhase(ph, s)
}

func (w *worker) runPhase(ph *batchPhase, s *Server) {
	if ph.seedJobs != nil {
		for {
			i := int(ph.next.Add(1)) - 1
			if i >= len(ph.seedJobs) {
				return
			}
			w.seedJob(s, ph.seedJobs[i])
		}
	}
	for {
		i := int(ph.next.Add(1)) - 1
		if i >= len(ph.units) {
			return
		}
		u := ph.units[i]
		if u.job == nil {
			// Group unit: this range of database sequences, scored for
			// every exhaustive job while the residues are hot (a chunk
			// is a few KB — it stays in L1 across the job loop).
			for _, j := range ph.exJobs {
				w.scoreChunk(s, j, u.lo, u.hi, false)
			}
		} else {
			w.scoreChunk(s, u.job, u.lo, u.hi, true)
		}
	}
}

// seedJob generates one indexed job's candidate set. Failures —
// injected index faults and real candidate-generation panics alike —
// mark the job for exhaustive rescoring and flip the server to
// degraded mode: wrong candidates are silently wrong answers, so the
// index is no longer trusted, but the request (and the process) still
// gets an exact answer. Candidates returns the searcher's reusable
// buffer; the job copies it because this worker may seed several jobs
// before any of them is scanned.
func (w *worker) seedJob(s *Server, j *job) {
	if j.ctxErr() != nil {
		return // already dead; runBatch abandons it before the scan
	}
	if err := s.cfg.Faults.Error(faults.IndexLookup); err != nil {
		j.seedErr = true
		s.enterDegraded(j.ep, "injected index fault: "+err.Error())
		return
	}
	cand, err := j.ep.searchers[w.id].CandidatesChecked(j.pq.Query(), j.norm.maxCand)
	if err != nil {
		j.seedErr = true
		s.enterDegraded(j.ep, err.Error())
		return
	}
	j.cand = append(j.cand[:0], cand...)
}

// scoreChunk scores one job's slice of a scan unit under the job's
// cancellation checkpoint and per-job panic isolation: a kernel panic
// fails this job alone — 500/internal, panic_total incremented — and
// the worker survives to claim the next unit. cand selects whether
// [lo, hi) ranges over candidate positions or database indexes.
func (w *worker) scoreChunk(s *Server, j *job, lo, hi int, cand bool) {
	if j.failed.Load() || j.ctxErr() != nil {
		return // a dead job stops costing kernel cells
	}
	if d := s.cfg.Faults.Delay(faults.ScoreSlow); d > 0 {
		faults.Sleep(j.ctx, d)
		if j.ctxErr() != nil {
			return
		}
	}
	defer func() {
		if r := recover(); r != nil {
			j.failed.Store(true)
			s.metrics.panics.Add(1)
			s.logf("server: scoring panic isolated to one request: %v", r)
		}
	}()
	if _, ok := s.cfg.Faults.Fire(faults.ScorePanic); ok {
		panic("faults: injected scoring panic")
	}
	seqs := j.ep.db.Seqs
	if cand {
		for ci := lo; ci < hi; ci++ {
			j.scores[ci] = w.scr.ScorePrepared(j.pq, seqs[j.cand[ci]].Residues)
		}
	} else {
		for si := lo; si < hi; si++ {
			j.scores[si] = w.scr.ScorePrepared(j.pq, seqs[si].Residues)
		}
	}
}

// runPhase fans one phase out to every worker and waits for the
// barrier. The dispatcher is the only caller, so phases never overlap.
func (s *Server) runPhase(ph *batchPhase) {
	n := s.cfg.Workers
	ph.wg.Add(n)
	for i := 0; i < n; i++ {
		s.phaseCh <- ph
	}
	ph.wg.Wait()
}

// maxCoalesceBatch is the absolute batch-size ceiling once coalescible
// (all_vs_all) jobs are in play: they deliberately exceed MaxBatch —
// the whole point is one scan pass over the stream's in-flight window
// — but per-job score buffers are O(database), so some bound must
// exist. 512 jobs x a 100k-sequence database is ~400 MB of scores, the
// edge of reasonable for one pass.
const maxCoalesceBatch = 512

// dispatch is the admission loop: it blocks for one job, then
// opportunistically drains whatever else is already queued. Only when
// that finds company — evidence of concurrent load — does it hold the
// batch open for the configured window to coalesce more arrivals; a
// lone request under light load pays no batching latency at all.
//
// Coalescible (all_vs_all) jobs bend both rules: they don't count
// against MaxBatch — a streamed all-vs-all window wants ONE group scan,
// not ceil(window/MaxBatch) of them — and even a lone one holds the
// window open, because a coalesce-tagged job is by construction one of
// a stream of many.
func (s *Server) dispatch() {
	defer s.dispatchWG.Done()
	var batch []*job
	plain := 0 // batch members not marked coalesce
	add := func(j *job) {
		batch = append(batch, j)
		if !j.coalesce {
			plain++
		}
	}
	full := func() bool {
		return plain >= s.cfg.MaxBatch || len(batch) >= maxCoalesceBatch
	}
	for {
		j, ok := <-s.queue
		if !ok {
			return
		}
		batch, plain = batch[:0], 0
		add(j)
	drain:
		for !full() {
			select {
			case j2, ok := <-s.queue:
				if !ok {
					break drain
				}
				add(j2)
			default:
				break drain
			}
		}
		if (len(batch) > 1 || batch[0].coalesce) && s.cfg.BatchWindow > 0 && !full() {
			timer := time.NewTimer(s.cfg.BatchWindow)
		window:
			for !full() {
				select {
				case j2, ok := <-s.queue:
					if !ok {
						break window
					}
					add(j2)
				case <-timer.C:
					break window
				}
			}
			timer.Stop()
		}
		s.runBatch(batch)
	}
}

// runBatch executes one batch through the seed/scan/rank phases and
// completes every job — where "completes" now includes the degraded
// outcomes: queued jobs fail fast during drain, jobs whose client is
// gone are abandoned before scoring starts, panicked jobs fail alone,
// and seed failures fall back to the exact scan.
func (s *Server) runBatch(batch []*job) {
	start := time.Now()

	// Drain policy: the batch already scoring when drain flipped
	// finishes normally; queued-but-unstarted jobs — this batch, if
	// the flip beat it here — fail fast with 503/draining.
	if s.Draining() {
		for _, j := range batch {
			j.err = errDraining
			s.completeJob(j)
		}
		return
	}

	s.metrics.batches.Add(1)
	s.metrics.batchJobs.Add(int64(len(batch)))
	for _, j := range batch {
		s.metrics.queueH.Observe(start.Sub(j.enqueued))
		j.batchStart = start
	}

	// Abandon jobs whose request died in the queue — a disconnected
	// or timed-out client's job burns no kernel cells.
	live := 0
	for _, j := range batch {
		if j.ctxErr() != nil {
			s.metrics.abandoned.Add(1)
			j.err = CtxError(j.ctx)
			s.completeJob(j)
			continue
		}
		batch[live] = j
		live++
	}
	batch = batch[:live]
	if len(batch) == 0 {
		return
	}

	// Jobs built outside the handler path (direct-drive tests) carry no
	// epoch; pin them to the serving one so the scoring code has a
	// single invariant: every job scores against j.ep.
	for _, j := range batch {
		if j.ep == nil {
			j.ep = s.currentEpoch()
		}
	}

	// Partition by epoch: an exhaustive group unit scans ONE database,
	// so jobs that pinned different epochs — a hot reload landed inside
	// the batching window — score in separate groups. Outside a reload
	// window this loop runs exactly once.
	for len(batch) > 0 {
		ep := batch[0].ep
		group := make([]*job, 0, len(batch))
		rest := batch[:0]
		for _, j := range batch {
			if j.ep == ep {
				group = append(group, j)
			} else {
				rest = append(rest, j)
			}
		}
		s.scoreGroup(ep, group, start)
		batch = rest
	}
}

// scoreGroup runs one epoch's jobs through the seed/scan/rank phases
// and completes them. All of a group's jobs are live and pinned to ep.
func (s *Server) scoreGroup(ep *epoch, batch []*job, start time.Time) {
	for _, j := range batch {
		j.batchSize = len(batch)
	}

	var seedJobs, exJobs []*job
	for _, j := range batch {
		if j.norm.exhaustive {
			exJobs = append(exJobs, j)
		} else {
			seedJobs = append(seedJobs, j)
		}
	}

	if len(seedJobs) > 0 && !ep.degraded.Load() {
		ph := &batchPhase{seedJobs: seedJobs}
		s.runPhase(ph)
		if ph.poisoned.Load() {
			s.failBatch(batch, errInternal)
			return
		}
		seedD := time.Since(start)
		s.metrics.seedH.Observe(seedD)
		for _, j := range seedJobs {
			j.seedDur = seedD
		}
	}
	// Seed failures — or an epoch that was (or just went) degraded —
	// convert indexed jobs to exhaustive: the scan costs more, but the
	// answers are exact rather than drawn from an untrusted index.
	if ep.degraded.Load() {
		for _, j := range seedJobs {
			j.norm.exhaustive = true
			exJobs = append(exJobs, j)
		}
		seedJobs = nil
	} else {
		kept := seedJobs[:0]
		for _, j := range seedJobs {
			if j.seedErr {
				j.norm.exhaustive = true
				exJobs = append(exJobs, j)
			} else {
				kept = append(kept, j)
			}
		}
		seedJobs = kept
	}
	scanStart := time.Now()

	var units []unit
	n := ep.db.NumSeqs()
	if len(exJobs) > 0 {
		for _, j := range exJobs {
			j.scores = growInts(j.scores, n)
		}
		for lo := 0; lo < n; lo += scanChunk {
			units = append(units, unit{lo: lo, hi: min(lo+scanChunk, n)})
		}
	}
	for _, j := range seedJobs {
		j.scores = growInts(j.scores, len(j.cand))
		for lo := 0; lo < len(j.cand); lo += scanChunk {
			units = append(units, unit{job: j, lo: lo, hi: min(lo+scanChunk, len(j.cand))})
		}
	}
	if len(units) > 0 {
		ph := &batchPhase{exJobs: exJobs, units: units}
		s.runPhase(ph)
		if ph.poisoned.Load() {
			s.failBatch(batch, errInternal)
			return
		}
	}
	scanD := time.Since(scanStart)
	s.metrics.scanH.Observe(scanD)
	for _, j := range batch {
		j.scanStart = scanStart
		j.scanDur = scanD
	}

	rankStart := time.Now()
	for _, j := range batch {
		j.rankStart = rankStart
		switch {
		case j.failed.Load():
			j.err = errInternal
		case j.ctxErr() != nil:
			// Cancelled mid-scan: the scores may be partial, and a
			// rank over partial scores would be silently wrong.
			s.metrics.abandoned.Add(1)
			j.err = CtxError(j.ctx)
		case j.norm.exhaustive:
			j.hits = align.RankHits(ep.db.Seqs, nil, j.scores, j.norm.minScore, j.norm.topK)
		default:
			j.hits = align.RankHits(ep.db.Seqs, j.cand, j.scores[:len(j.cand)], j.norm.minScore, j.norm.topK)
		}
		j.rankDur = time.Since(rankStart)
		s.completeJob(j)
	}
	s.metrics.rankH.Observe(time.Since(rankStart))
}

// failBatch completes every job in a poisoned batch with err.
func (s *Server) failBatch(batch []*job, err *APIError) {
	for _, j := range batch {
		j.err = err
		s.completeJob(j)
	}
}

// completeJob resolves the ownership CAS: deliver the job to its
// waiting handler, or — when the handler abandoned it — recycle it
// here. Exactly one side wins, so a job is never pooled while the
// other still reads it.
func (s *Server) completeJob(j *job) {
	if j.state.CompareAndSwap(jobPending, jobCompleted) {
		j.done <- struct{}{}
		return
	}
	s.recycleJob(j)
}

// recycleJob releases the job's admission cost, drops its epoch pin —
// the last pin on a swapped-out epoch runs its release hook here — and
// returns it to the pool scrubbed.
func (s *Server) recycleJob(j *job) {
	s.admit.release(j.cost)
	if j.ep != nil {
		j.ep.unref()
		j.ep = nil
	}
	putJob(j)
}

func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}
