package server

import (
	"time"

	"repro/internal/align"
	"repro/internal/obs"
)

// The server's operational state lives in ONE place: the Frontend's
// internal/obs registry, where the front-end's common instruments
// (requests, errors, in-flight, streams, request latency) and the
// pipeline's own (below) sit side by side. GET /metrics renders it as
// Prometheus text exposition and GET /statsz summarizes the same
// instruments as JSON, so the two views cannot disagree — /statsz is a
// projection of /metrics, not a parallel set of counters. Latency
// histograms are obs.Histogram (log-linear, 4 sub-buckets per power of
// two), which makes the reported p50/p95/p99 tight to <=25% instead of
// the 2x a pure power-of-two layout allowed.

// metrics is the local pipeline's instrument set. Everything on the hot
// path is a pre-registered atomic instrument — counting a request
// allocates nothing.
type metrics struct {
	// kernelRequests tallies admitted requests by resolved kernel; the
	// label set is align.KernelNames() plus the registry's catch-all.
	kernelRequests *obs.CounterVec
	batches        *obs.Counter // batches executed
	batchJobs      *obs.Counter // jobs summed over executed batches

	// The resilience counters. Each is a distinct way the server chose
	// to degrade a request instead of degrading itself.
	shed      *obs.Counter // requests refused with 429 at admission
	panics    *obs.Counter // scoring panics isolated to single requests
	abandoned *obs.Counter // jobs whose client vanished before scoring

	reloads *obs.Counter // successful epoch swaps (Server.Swap)

	stageH *obs.HistogramVec // per-stage pipeline latency
	queueH *obs.Histogram    // admission -> batch start
	seedH  *obs.Histogram    // candidate generation (per batch with indexed jobs)
	scanH  *obs.Histogram    // kernel rescoring pass (per batch)
	rankH  *obs.Histogram    // ranking + completion (per batch)
}

// initMetrics builds the pipeline's instruments and registers them,
// with the derived gauges that read live server state (admission
// occupancy, cache counters, the degrade flag), on the Frontend's
// registry. Call once from New, after the cache, the admission gate and
// the Frontend exist.
func (s *Server) initMetrics() {
	m := &s.metrics
	m.kernelRequests = obs.NewCounterVec("kernel", align.KernelNames()...)
	m.batches = obs.NewCounter()
	m.batchJobs = obs.NewCounter()
	m.shed = obs.NewCounter()
	m.panics = obs.NewCounter()
	m.abandoned = obs.NewCounter()
	m.reloads = obs.NewCounter()
	m.stageH = obs.NewHistogramVec("stage", "queue", "seed", "scan", "rank")
	m.queueH = m.stageH.With("queue")
	m.seedH = m.stageH.With("seed")
	m.scanH = m.stageH.With("scan")
	m.rankH = m.stageH.With("rank")

	r := s.fe.Registry()
	r.RegisterCounterVec("seqserve_kernel_requests_total", "Admitted requests by resolved scoring kernel.", m.kernelRequests)
	r.RegisterHistogramVec("seqserve_stage_latency_us", "Pipeline stage latency in microseconds.", m.stageH)
	r.RegisterCounter("seqserve_batches_total", "Micro-batches executed.", m.batches)
	r.RegisterCounter("seqserve_batch_jobs_total", "Jobs summed over executed micro-batches.", m.batchJobs)

	r.RegisterCounter("seqserve_shed_total", "Requests refused with 429 at the admission gate.", m.shed)
	r.RegisterCounter("seqserve_panics_total", "Scoring panics isolated to single requests.", m.panics)
	r.RegisterCounter("seqserve_abandoned_total", "Jobs abandoned because their client vanished or timed out before scoring.", m.abandoned)
	r.RegisterGaugeFunc("seqserve_degraded", "1 when the serving epoch has stopped trusting its index (exhaustive scans only).",
		func() float64 { return boolGauge(s.Degraded()) })

	// The hot-reload surface: how many swaps have landed, how many pins
	// the serving epoch holds (1 = idle: just the owner), and the
	// serving snapshot version as an info-style gauge — the sample CI's
	// reload smoke watches flip from v1 to v2.
	r.RegisterCounter("seqserve_reloads_total", "Successful snapshot/epoch swaps since startup.", m.reloads)
	r.RegisterGaugeFunc("seqserve_epoch_refs", "Reference pins on the serving epoch (1 = no request in flight).",
		func() float64 { return float64(s.cur.Load().refs.Load()) })
	r.RegisterInfoFunc("seqserve_snapshot_info", "Serving snapshot version (label), constant 1 (value).", "version",
		func() string { return s.cur.Load().version })

	r.RegisterGaugeFunc("seqserve_queue_depth_units", "Admitted cost units in flight at the admission gate.",
		func() float64 { return float64(s.admit.cost.Load()) })
	r.RegisterGaugeFunc("seqserve_admission_capacity_units", "Admission gate capacity in cost units.",
		func() float64 { return float64(s.admit.capacity) })
	r.RegisterGaugeFunc("seqserve_admission_jobs", "Admitted jobs in flight.",
		func() float64 { return float64(s.admit.jobs.Load()) })

	r.RegisterGaugeFunc("seqserve_cache_entries", "Live result-cache entries.",
		func() float64 { return float64(s.cache.len()) })
	r.RegisterCounterFunc("seqserve_cache_hits_total", "Result-cache LRU hits.",
		func() int64 { hits, _, _ := s.cache.counters(); return hits })
	r.RegisterCounterFunc("seqserve_cache_misses_total", "Result-cache misses (request led a computation).",
		func() int64 { _, misses, _ := s.cache.counters(); return misses })
	r.RegisterCounterFunc("seqserve_cache_coalesced_total", "Requests coalesced onto an identical in-flight computation.",
		func() int64 { _, _, coalesced := s.cache.counters(); return coalesced })
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// HistogramSnapshot is one stage's latency summary in /statsz.
// Quantiles come from the log-linear histogram with sub-bucket
// interpolation, so they are tight to <=25% (and max_us is the true
// observed maximum, not a bucket bound).
type HistogramSnapshot struct {
	Count  int64   `json:"count"`
	MeanUs float64 `json:"mean_us"`
	P50Us  int64   `json:"p50_us"`
	P90Us  int64   `json:"p90_us"`
	P95Us  int64   `json:"p95_us"`
	P99Us  int64   `json:"p99_us"`
	MaxUs  int64   `json:"max_us"`
}

func summarize(h *obs.Histogram) HistogramSnapshot {
	s := h.Snapshot()
	return HistogramSnapshot{
		Count:  s.Count,
		MeanUs: s.MeanUs(),
		P50Us:  s.Quantile(0.50),
		P90Us:  s.Quantile(0.90),
		P95Us:  s.Quantile(0.95),
		P99Us:  s.Quantile(0.99),
		MaxUs:  s.MaxUs,
	}
}

// StatsResponse is the /statsz body.
type StatsResponse struct {
	UptimeS    float64 `json:"uptime_s"`
	Requests   int64   `json:"requests"`
	Errors     int64   `json:"errors"`
	QPS        float64 `json:"qps"`
	InFlight   int64   `json:"in_flight"`
	Workers    int     `json:"workers"`
	DBSeqs     int     `json:"db_seqs"`
	DBResidues int     `json:"db_residues"`
	IndexK     int     `json:"index_k,omitempty"` // 0 when serving without an index

	// Resilience state: the shed/timeout/panic/abandon tallies, the
	// degraded flag (the index is no longer trusted; every scan is
	// exact), and the admission queue's live occupancy in cost units.
	ShedTotal      int64 `json:"shed_total"`
	TimeoutTotal   int64 `json:"timeout_total"`
	PanicTotal     int64 `json:"panic_total"`
	AbandonedTotal int64 `json:"abandoned_total"`
	Degraded       bool  `json:"degraded"`
	Draining       bool  `json:"draining"`

	// The hot-reload surface: the serving snapshot's version ("" when
	// the database was loaded outside a snapshot), swaps since startup,
	// and the pin count on the serving epoch (1 = idle — just the
	// owner's pin; reload tests assert it returns there).
	SnapshotVersion string `json:"snapshot_version,omitempty"`
	Reloads         int64  `json:"reloads"`
	EpochRefs       int64  `json:"epoch_refs"`
	Admission       struct {
		Cost     int64 `json:"cost"`     // admitted cost units in flight
		Capacity int64 `json:"capacity"` // shed threshold
		Jobs     int64 `json:"jobs"`     // admitted jobs in flight
	} `json:"admission"`

	Cache struct {
		Entries   int     `json:"entries"`
		Capacity  int     `json:"capacity"`
		Hits      int64   `json:"hits"`
		Misses    int64   `json:"misses"`
		Coalesced int64   `json:"coalesced"`
		HitRate   float64 `json:"hit_rate"`
	} `json:"cache"`

	// The streaming bulk-query path. StreamQPS is result lines per
	// second of uptime — the throughput the streaming protocol exists
	// to raise — and InFlight/Window show how full the per-connection
	// flow-control windows are right now.
	StreamQPS float64 `json:"stream_qps"`
	Streams   struct {
		Open     int64 `json:"open"`      // connections streaming now
		Total    int64 `json:"total"`     // connections over the uptime
		Lines    int64 `json:"lines"`     // request lines decoded
		Results  int64 `json:"results"`   // result lines written
		Errors   int64 `json:"errors"`    // per-line error lines written
		InFlight int64 `json:"in_flight"` // window slots held, all streams
		Window   int   `json:"window"`    // per-connection window size
	} `json:"streams"`

	Batches   int64                        `json:"batches"`
	MeanBatch float64                      `json:"mean_batch"`
	Stages    map[string]HistogramSnapshot `json:"stages"`
}

// Stats returns a point-in-time snapshot of the server's operational
// counters — the same data GET /statsz serves.
func (s *Server) Stats() StatsResponse {
	// Pin the epoch for the read: db/ix stay dereferenceable even if a
	// swap (and the old epoch's unmap) lands mid-snapshot.
	ep := s.currentEpoch()
	defer ep.unref()

	fe := s.fe
	var r StatsResponse
	r.UptimeS = time.Since(fe.start).Seconds()
	r.Requests, r.Errors, r.InFlight = fe.Counts()
	if r.UptimeS > 0 {
		r.QPS = float64(r.Requests) / r.UptimeS
	}
	r.Workers = s.cfg.Workers
	r.DBSeqs = ep.db.NumSeqs()
	r.DBResidues = ep.db.TotalResidues()
	if ep.ix != nil {
		r.IndexK = ep.ix.K()
	}

	r.ShedTotal = s.metrics.shed.Value()
	r.TimeoutTotal = fe.timeouts.Value()
	r.PanicTotal = s.metrics.panics.Value()
	r.AbandonedTotal = s.metrics.abandoned.Value()
	r.Degraded = ep.degraded.Load()
	r.Draining = fe.Draining()
	r.SnapshotVersion = ep.version
	r.Reloads = s.metrics.reloads.Value()
	r.EpochRefs = ep.refs.Load() - 1 // exclude this snapshot's own pin
	r.Admission.Cost = s.admit.cost.Load()
	r.Admission.Capacity = s.admit.capacity
	r.Admission.Jobs = s.admit.jobs.Load()

	hits, misses, coalesced := s.cache.counters()
	r.Cache.Entries = s.cache.len()
	r.Cache.Capacity = s.cache.cap
	r.Cache.Hits = hits
	r.Cache.Misses = misses
	r.Cache.Coalesced = coalesced
	if total := hits + misses + coalesced; total > 0 {
		r.Cache.HitRate = float64(hits+coalesced) / float64(total)
	}

	r.Streams.Open = fe.streamsOpen.Value()
	r.Streams.Total = fe.streamsTotal.Value()
	r.Streams.Lines = fe.streamLines.Value()
	r.Streams.Results = fe.streamResults.Value()
	r.Streams.Errors = fe.streamErrors.Value()
	r.Streams.InFlight = fe.streamInFlight.Value()
	r.Streams.Window = fe.cfg.StreamWindow
	if r.UptimeS > 0 {
		r.StreamQPS = float64(r.Streams.Results) / r.UptimeS
	}

	r.Batches = s.metrics.batches.Value()
	if r.Batches > 0 {
		r.MeanBatch = float64(s.metrics.batchJobs.Value()) / float64(r.Batches)
	}
	r.Stages = map[string]HistogramSnapshot{
		"queue": summarize(s.metrics.queueH),
		"seed":  summarize(s.metrics.seedH),
		"scan":  summarize(s.metrics.scanH),
		"rank":  summarize(s.metrics.rankH),
		"total": summarize(fe.totalH),
	}
	return r
}
