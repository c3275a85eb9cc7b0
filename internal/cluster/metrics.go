package cluster

import (
	"strconv"
	"time"

	"repro/internal/obs"
)

// routerMetrics is the scatter-gather's instrument set (the request,
// error, in-flight, latency and stream families are the front-end's),
// all pre-registered obs types: the hot path does atomic increments
// only. Per-backend families are keyed by the shard map's address set
// (a static identity set — exactly what GaugeVec demands); per-shard
// families by shard index.
type routerMetrics struct {
	partials   *obs.Counter // 200 responses with complete:false
	mapUpdates *obs.Counter // live shard map swaps (PUT /shardmap)
	skewed     *obs.Counter // responses that fenced version-skewed shards

	tries    *obs.CounterVec // HTTP tries launched, per backend
	retries  *obs.CounterVec // backoff retries, per backend whose failure caused them
	hedges   *obs.CounterVec // hedged second tries, per backend they landed on
	failures *obs.CounterVec // failed tries (transport/5xx/shed), per backend

	up      *obs.GaugeVec // prober verdict: 1 up, 0 down, -1 unknown
	breaker *obs.GaugeVec // breaker state: 0 closed, 1 half-open, 2 open

	shardFails *obs.CounterVec   // shards failed past their retry budget
	shardLatH  *obs.HistogramVec // per-shard try latency (feeds the hedge delay)
}

func (c *Coordinator) initMetrics() {
	m := &c.m
	t := c.topo.Load()
	reg := c.fe.Registry()

	addrs := t.smap.BackendAddrs()
	shardLabels := make([]string, len(t.shards))
	for i := range t.shards {
		shardLabels[i] = strconv.Itoa(i)
	}

	m.partials = obs.NewCounter()
	m.mapUpdates = obs.NewCounter()
	m.skewed = obs.NewCounter()
	m.tries = obs.NewCounterVec("backend", addrs...)
	m.retries = obs.NewCounterVec("backend", addrs...)
	m.hedges = obs.NewCounterVec("backend", addrs...)
	m.failures = obs.NewCounterVec("backend", addrs...)
	m.up = obs.NewGaugeVec("backend", addrs...)
	m.breaker = obs.NewGaugeVec("backend", addrs...)
	m.shardFails = obs.NewCounterVec("shard", shardLabels...)
	m.shardLatH = obs.NewHistogramVec("shard", shardLabels...)

	// The shard latency histograms double as the hedge-delay source:
	// each shardState holds its own family member.
	for i, sh := range t.shards {
		sh.latH = m.shardLatH.With(shardLabels[i])
	}
	// Backends start unknown until the first probe lands.
	for _, b := range t.backends {
		m.up.With(b.addr).Set(-1)
	}

	reg.RegisterCounter("router_partial_total", "200 responses that degraded to complete:false.", m.partials)
	reg.RegisterCounter("router_map_updates_total", "Live shard map swaps accepted via PUT /shardmap.", m.mapUpdates)
	reg.RegisterCounter("router_version_skew_total", "Responses that fenced shards answering a different snapshot_version.", m.skewed)
	reg.RegisterInfoFunc("router_shard_map_info", "Serving shard map version, as a label.", "version",
		func() string { return strconv.FormatInt(c.topo.Load().smap.Version, 10) })
	reg.RegisterCounterVec("router_backend_tries_total", "HTTP tries launched, per backend.", m.tries)
	reg.RegisterCounterVec("router_backend_retries_total", "Backoff retries charged to the backend whose failure caused them.", m.retries)
	reg.RegisterCounterVec("router_backend_hedges_total", "Hedged second tries, per backend they landed on.", m.hedges)
	reg.RegisterCounterVec("router_backend_failures_total", "Failed tries (transport error, 5xx, shed), per backend.", m.failures)
	reg.RegisterGaugeVec("router_backend_up", "Prober verdict as of the last probe or try: 1 up, 0 down, -1 unknown.", m.up)
	reg.RegisterGaugeVec("router_backend_breaker_state", "Circuit breaker as of the last transition: 0 closed, 1 half-open, 2 open.", m.breaker)
	reg.RegisterCounterVec("router_shard_failures_total", "Shard queries that failed past their retry budget.", m.shardFails)
	reg.RegisterHistogramVec("router_shard_try_latency_us", "Per-shard backend try latency in microseconds.", m.shardLatH)
}

// refreshBackendGauges re-renders one backend's health and breaker
// gauges. Called after probes and settled tries — the two places state
// changes — so /metrics tracks transitions without a scrape-time hook.
// Backends introduced by a live map update sit outside the gauge
// families' declared label sets (those are fixed at startup), so their
// rows are skipped here and appear after a restart; /statsz reports
// them either way.
func (c *Coordinator) refreshBackendGauges(b *backend) {
	var hv int64
	switch b.state.Load() {
	case backendUp:
		hv = 1
	case backendDown:
		hv = 0
	default:
		hv = -1
	}
	if g, ok := c.m.up.Lookup(b.addr); ok {
		g.Set(hv)
	}
	if g, ok := c.m.breaker.Lookup(b.addr); ok {
		g.Set(int64(b.breakerState(time.Now())))
	}
}

// ServeDebug serves the router's -debug-addr listener
// (server.Frontend.ServeDebug).
func (c *Coordinator) ServeDebug(addr string) error { return c.fe.ServeDebug(addr) }

// Status is the router's /statsz snapshot.
type Status struct {
	ShardMapVersion int64           `json:"shard_map_version"`
	NumSeqs         int             `json:"num_seqs"`
	Shards          int             `json:"shards"`
	Ready           bool            `json:"ready"`
	VersionSkew     string          `json:"version_skew"`
	Requests        int64           `json:"requests"`
	Errors          int64           `json:"errors"`
	Partials        int64           `json:"partial_responses"`
	Skewed          int64           `json:"skewed_responses"`
	MapUpdates      int64           `json:"map_updates"`
	InFlight        int64           `json:"in_flight"`
	Backends        []BackendStatus `json:"backends"`
}

// StatsSnapshot assembles the /statsz view: counters plus one row per
// backend with its live health and breaker state.
func (c *Coordinator) StatsSnapshot() Status {
	now := time.Now()
	t := c.topo.Load()
	requests, errs, inFlight := c.fe.Counts()
	st := Status{
		ShardMapVersion: t.smap.Version,
		NumSeqs:         t.smap.NumSeqs,
		Shards:          len(t.shards),
		Ready:           c.Ready(),
		VersionSkew:     c.cfg.VersionSkew,
		Requests:        requests,
		Errors:          errs,
		Partials:        c.m.partials.Value(),
		Skewed:          c.m.skewed.Value(),
		MapUpdates:      c.m.mapUpdates.Value(),
		InFlight:        inFlight,
	}
	for _, b := range t.backends {
		st.Backends = append(st.Backends, BackendStatus{
			Addr:    b.addr,
			Health:  b.healthString(),
			Breaker: breakerStateNames[b.breakerState(now)],
			Tries:   c.m.tries.Value(b.addr),
			Retries: c.m.retries.Value(b.addr),
			Hedges:  c.m.hedges.Value(b.addr),
			Fails:   c.m.failures.Value(b.addr),
		})
	}
	return st
}
