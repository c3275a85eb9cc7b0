package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/align"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/server"
)

// Config tunes a Coordinator. The zero value serves with the
// documented defaults; every duration below is a default, not a
// minimum.
type Config struct {
	// TryTimeout caps one HTTP try against one backend; 0 means
	// DefaultTryTimeout. The whole shard query may spend several tries
	// (retries + hedges) within the request's own deadline.
	TryTimeout time.Duration
	// Retries is the per-shard budget of EXTRA tries beyond the first —
	// retries after failures and hedges both draw from it, so a flaky
	// shard cannot amplify one query into unbounded backend load. 0
	// means DefaultRetries; negative means no extra tries.
	Retries int
	// RetryBaseWait/RetryMaxWait shape the backoff between retries:
	// full jitter over min(RetryMaxWait, RetryBaseWait<<attempt), with
	// a backend's Retry-After as the floor when it sent one. Zeros mean
	// the defaults.
	RetryBaseWait time.Duration
	RetryMaxWait  time.Duration
	// HedgeQuantile is the shard-latency quantile a try must outlive
	// before a hedged second try launches (0 means DefaultHedgeQuantile;
	// negative disables hedging). HedgeMinWait floors the delay so cold
	// histograms and microsecond quantiles cannot hedge every query.
	HedgeQuantile float64
	HedgeMinWait  time.Duration
	// ProbeInterval is the health prober's period (0 means
	// DefaultProbeInterval; negative disables probing — every backend
	// then stays selectable, which is the single-process test mode).
	// ProbeTimeout caps one probe.
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// EjectAfter consecutive failed probes mark a backend down;
	// RecoverAfter consecutive successful probes bring it back. Zeros
	// mean the defaults.
	EjectAfter   int
	RecoverAfter int
	// BreakerThreshold consecutive failed tries trip a backend's
	// circuit breaker open for BreakerCooldown, after which one
	// half-open trial decides. Zeros mean the defaults; negative
	// threshold disables the breaker.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// RequestTimeout caps every routed request's deadline, exactly like
	// the server's flag of the same name. 0 means none.
	RequestTimeout time.Duration
	// StreamWindow bounds how many of one /search/stream connection's
	// lines may be in flight at once. 0 means server.DefaultStreamWindow.
	StreamWindow int
	// VersionSkew selects the merge policy when shards answer with
	// different snapshot_version stamps mid rolling reload:
	// VersionSkewAllow (the default, also the zero value) merges
	// whatever the shards returned and reports the distinct stamps in
	// snapshot_versions; VersionSkewFence drops the hits of shards that
	// disagree with the reference version — the lowest-indexed shard
	// that answered, a choice both halves of a rolling reload compute
	// identically — reporting them in shards_skewed with complete:false,
	// or refusing outright with 503/versions_skewed under
	// require_complete.
	VersionSkew string
	// Faults is the deterministic fault-injection registry; nil — the
	// production value — disarms the shard.* sites.
	Faults *faults.Registry
	// Logf receives operational log lines; nil means log.Printf.
	Logf func(format string, args ...any)
	// TraceRing bounds the /debug/traces ring; 0 means the obs default.
	TraceRing int
}

// The documented Config defaults.
const (
	DefaultTryTimeout    = 2 * time.Second
	DefaultRetries       = 2
	DefaultRetryBaseWait = 25 * time.Millisecond
	DefaultRetryMaxWait  = 1 * time.Second
	DefaultHedgeQuantile = 0.9
	DefaultHedgeMinWait  = 20 * time.Millisecond
	DefaultProbeInterval = 500 * time.Millisecond
	DefaultProbeTimeout  = 1 * time.Second
	DefaultEjectAfter    = 3
	DefaultRecoverAfter  = 2
	DefaultBreakerTrip   = 5
	DefaultBreakerCool   = 1 * time.Second

	// maxShardResponseBytes caps one backend response read: top-K hit
	// lists are small, so anything bigger is a broken backend, not data.
	maxShardResponseBytes = 8 << 20
)

// ErrShardsFailed is the sentinel code of a require_complete request
// that could not get an answer from every shard: the 503 body names
// the shards that failed, and Retry-After suggests when the health
// prober may have recovered them. Without require_complete the same
// situation is a 200 with complete:false — degradation, not failure.
const ErrShardsFailed = "shards_failed"

// ErrVersionsSkewed is the sentinel code of a require_complete request
// that hit a mid-reload fleet under the "fence" version-skew policy:
// some shards answered from a different snapshot version than the
// reference shard, so a complete same-version answer does not exist
// right now. Retry-After suggests trying again once the rolling reload
// settles. Without require_complete the same situation is a 200 with
// complete:false and the fenced shards listed in shards_skewed.
const ErrVersionsSkewed = "versions_skewed"

// The version-skew policies Config.VersionSkew accepts (the seqrouter
// -version-skew flag values).
const (
	VersionSkewAllow = "allow"
	VersionSkewFence = "fence"
)

// Request is the coordinator's POST /search body: the single-node
// SearchRequest plus the partial-result opt-out.
type Request struct {
	server.SearchRequest
	// RequireComplete refuses graceful degradation: when any shard
	// fails past its retry budget the response is a 503/shards_failed
	// instead of a 200 with complete:false.
	RequireComplete bool `json:"require_complete,omitempty"`
}

// Response is the coordinator's POST /search success body: the merged
// single-node response plus the shard accounting every answer carries.
// Hits are bit-identical to the single-node server's when Complete is
// true; when false they are the merged answer of the shards that did
// respond — deterministic for a given set of live shards.
type Response struct {
	server.SearchResponse
	Complete        bool  `json:"complete"`
	ShardsOK        int   `json:"shards_ok"`
	ShardsFailed    []int `json:"shards_failed,omitempty"`
	ShardMapVersion int64 `json:"shard_map_version"`
	// ShardsSkewed lists shards whose answers were fenced out of the
	// merge because their snapshot_version disagreed with the reference
	// shard's (version-skew policy "fence" only). A skewed shard is
	// healthy — it answered — so it appears here, not in ShardsFailed,
	// but it contributed nothing to Hits and ShardsOK excludes it.
	ShardsSkewed []int `json:"shards_skewed,omitempty"`
	// SnapshotVersions are the distinct non-empty snapshot_version
	// stamps observed across the shards that answered, sorted. More than
	// one entry means the fleet was mid rolling reload when this answer
	// was assembled (under "allow" the merge proceeded anyway).
	SnapshotVersions []string `json:"snapshot_versions,omitempty"`
}

// spanRec is one shard try's timing fact, recorded by the shard
// goroutine and stamped into the request trace after the gather joins
// (traces are single-goroutine by contract, so the coordinator never
// writes one concurrently).
type spanRec struct {
	stage string
	start time.Time
	dur   time.Duration
}

// shardState is one shard's runtime: the assignment row, its backend
// states, a rotation counter for replica selection, and the latency
// histogram the hedge delay is quantiled from.
type shardState struct {
	Shard
	backends []*backend
	next     atomic.Uint64
	latH     *obs.Histogram
}

// topology is one immutable (shard map, shard states, backends)
// generation. The coordinator publishes the current one behind an
// atomic pointer so a live map update (PUT /shardmap) swaps the whole
// generation at once: in-flight fan-outs keep the generation they
// loaded at entry and finish against it — the router-side analogue of
// the server's epoch swap.
type topology struct {
	smap     *ShardMap
	shards   []*shardState
	backends []*backend // every distinct backend, sorted by address
}

// Coordinator owns the shard map and fans queries out over it. It is
// safe for concurrent use; one Coordinator serves every request of a
// router process.
type Coordinator struct {
	cfg      Config
	topo     atomic.Pointer[topology]
	updateMu sync.Mutex // serializes UpdateMap's read-validate-swap
	client   *http.Client
	logf     func(format string, args ...any)
	m        routerMetrics
	fe       *server.Frontend // the HTTP face NewRouter hands out; owns the registry and trace ring

	probeWG   sync.WaitGroup
	probeStop chan struct{}
	closeOnce sync.Once
}

// newTopology builds a generation over a validated map. Backends
// present in prev keep their state object — health verdicts, breaker
// streaks and probe history survive a map update; only genuinely new
// addresses start from scratch (unknown, selectable).
func (c *Coordinator) newTopology(m *ShardMap, prev *topology) *topology {
	byAddr := make(map[string]*backend)
	if prev != nil {
		for _, b := range prev.backends {
			byAddr[b.addr] = b
		}
	}
	t := &topology{smap: m}
	for si, sh := range m.Shards {
		ss := &shardState{Shard: sh}
		for _, addr := range sh.Backends {
			b := byAddr[addr]
			if b == nil {
				b = &backend{addr: addr}
				byAddr[addr] = b
			}
			ss.backends = append(ss.backends, b)
		}
		// The per-shard latency histogram feeds the hedge delay. Shard
		// indexes beyond the initially declared metric label set (a map
		// update that split shards) get a private unexported histogram:
		// hedging still adapts, the /metrics family stays fixed until
		// restart.
		if c.m.shardLatH != nil {
			if h, ok := c.m.shardLatH.Lookup(strconv.Itoa(si)); ok {
				ss.latH = h
			} else {
				ss.latH = obs.NewHistogram()
			}
		}
		t.shards = append(t.shards, ss)
	}
	for _, addr := range m.BackendAddrs() {
		t.backends = append(t.backends, byAddr[addr])
	}
	return t
}

// New builds a Coordinator over a validated shard map and starts its
// health prober (unless ProbeInterval is negative). Close stops the
// prober.
func New(m *ShardMap, cfg Config) (*Coordinator, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if cfg.TryTimeout <= 0 {
		cfg.TryTimeout = DefaultTryTimeout
	}
	if cfg.Retries == 0 {
		cfg.Retries = DefaultRetries
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	if cfg.RetryBaseWait <= 0 {
		cfg.RetryBaseWait = DefaultRetryBaseWait
	}
	if cfg.RetryMaxWait <= 0 {
		cfg.RetryMaxWait = DefaultRetryMaxWait
	}
	if cfg.HedgeQuantile == 0 {
		cfg.HedgeQuantile = DefaultHedgeQuantile
	}
	if cfg.HedgeMinWait <= 0 {
		cfg.HedgeMinWait = DefaultHedgeMinWait
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = DefaultProbeInterval
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = DefaultProbeTimeout
	}
	if cfg.EjectAfter <= 0 {
		cfg.EjectAfter = DefaultEjectAfter
	}
	if cfg.RecoverAfter <= 0 {
		cfg.RecoverAfter = DefaultRecoverAfter
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = DefaultBreakerTrip
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = DefaultBreakerCool
	}
	if cfg.VersionSkew == "" {
		cfg.VersionSkew = VersionSkewAllow
	}
	if cfg.VersionSkew != VersionSkewAllow && cfg.VersionSkew != VersionSkewFence {
		return nil, fmt.Errorf("cluster: unknown version-skew policy %q (valid: %s, %s)",
			cfg.VersionSkew, VersionSkewAllow, VersionSkewFence)
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}

	c := &Coordinator{
		cfg: cfg,
		client: &http.Client{
			// No client-level timeout: per-try contexts bound every
			// request, and a client timeout would race them with a
			// less useful error.
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 16,
				IdleConnTimeout:     90 * time.Second,
			},
		},
		logf:      cfg.Logf,
		probeStop: make(chan struct{}),
	}
	// Metrics are not up yet, so newTopology leaves latH nil here;
	// initMetrics wires the initial generation's histograms.
	c.topo.Store(c.newTopology(m, nil))
	// The router's stream takes the server's stall cutoff as a constant
	// (the zero StreamStallTimeout) and arms no client.stall site.
	c.fe = server.NewFrontend(c, "router", server.Config{
		StreamWindow:   cfg.StreamWindow,
		RequestTimeout: cfg.RequestTimeout,
		TraceRing:      cfg.TraceRing,
	})
	c.initMetrics()

	if cfg.ProbeInterval > 0 {
		c.probeWG.Add(1)
		go c.probeLoop()
	}
	return c, nil
}

// UpdateMap atomically replaces the serving shard map — the PUT
// /shardmap entry point. The new map must describe the same database
// (NumSeqs unchanged — an update rebalances shards, it does not change
// the data) and carry a strictly newer version. Backends present in
// both maps keep their health and breaker state; in-flight fan-outs
// finish against the topology they started with, so no request ever
// sees a half-applied map.
func (c *Coordinator) UpdateMap(m *ShardMap) error {
	if err := m.Validate(); err != nil {
		return err
	}
	c.updateMu.Lock()
	defer c.updateMu.Unlock()
	cur := c.topo.Load()
	if m.NumSeqs != cur.smap.NumSeqs {
		return fmt.Errorf("cluster: new map covers %d sequences, the serving map covers %d — a map update rebalances shards over the same database",
			m.NumSeqs, cur.smap.NumSeqs)
	}
	if m.Version <= cur.smap.Version {
		return fmt.Errorf("cluster: new map version %d is not newer than the serving version %d", m.Version, cur.smap.Version)
	}
	nt := c.newTopology(m, cur)
	c.topo.Store(nt)
	c.m.mapUpdates.Add(1)
	c.logf("cluster: shard map v%d -> v%d: %d shards over %d backends",
		cur.smap.Version, m.Version, len(nt.shards), len(nt.backends))
	return nil
}

// Close stops the health prober and idle connections. In-flight
// searches are unaffected (their tries own their contexts).
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() {
		close(c.probeStop)
		c.probeWG.Wait()
		c.client.CloseIdleConnections()
	})
}

// Map returns the currently serving shard map.
func (c *Coordinator) Map() *ShardMap { return c.topo.Load().smap }

// probeLoop is the fleet's health prober: every ProbeInterval it
// probes each backend of the CURRENT topology in parallel (a /readyz
// GET each, with the streak thresholds deciding ejection and
// recovery). Reading the topology fresh every round means backends
// added by a live map update are picked up on the next round and
// removed ones silently stop being probed. The round barrier
// guarantees at most one goroutine touches a backend's probe streaks
// at a time, preserving backend.probe's single-prober contract. Each
// probe also refreshes the backend's health/breaker gauges so /metrics
// reflects time-driven transitions (a cooldown expiring) without
// waiting for traffic.
func (c *Coordinator) probeLoop() {
	defer c.probeWG.Done()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-c.probeStop
		cancel()
	}()
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		var round sync.WaitGroup
		for _, b := range c.topo.Load().backends {
			round.Add(1)
			go func(b *backend) {
				defer round.Done()
				prev := b.state.Load()
				b.probe(ctx, c.client, c.cfg.ProbeTimeout, c.cfg.EjectAfter, c.cfg.RecoverAfter)
				if now := b.state.Load(); now != prev {
					c.logf("cluster: backend %s: %s -> %s", b.addr, healthName(prev), healthName(now))
				}
				c.refreshBackendGauges(b)
			}(b)
		}
		round.Wait()
		select {
		case <-c.probeStop:
			return
		case <-t.C:
		}
	}
}

func healthName(s int32) string {
	switch s {
	case backendUp:
		return "up"
	case backendDown:
		return "down"
	default:
		return "unknown"
	}
}

// Ready reports whether every shard has at least one backend the
// prober has seen up — the router's /readyz. With probing disabled it
// is vacuously true (nothing will ever probe).
func (c *Coordinator) Ready() bool {
	if c.cfg.ProbeInterval < 0 {
		return true
	}
	for _, sh := range c.topo.Load().shards {
		ok := false
		for _, b := range sh.backends {
			if b.state.Load() == backendUp {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// pickBackend selects the k-th preferred backend of a shard: rotate
// through the replicas from offset k, preferring selectable ones
// (healthy per the prober, admitted by the breaker) that are not the
// excluded peer; fall back to any selectable one, then to any not
// excluded, then to the excluded one itself — a single-replica shard
// must always get SOME try, or a dead prober could black-hole it.
func (c *Coordinator) pickBackend(sh *shardState, k int, exclude *backend) *backend {
	n := len(sh.backends)
	now := time.Now()
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < n; i++ {
			b := sh.backends[(k+i)%n]
			if pass == 0 && b == exclude {
				continue
			}
			if b.selectable(now) {
				return b
			}
		}
	}
	for i := 0; i < n; i++ {
		if b := sh.backends[(k+i)%n]; b != exclude {
			return b
		}
	}
	return sh.backends[k%n]
}

// hedgeDelay is how long a try may run before a hedge launches: the
// shard's recent latency quantile, floored by HedgeMinWait (so a warm
// cache of microsecond answers cannot turn every query into two) and
// capped at TryTimeout (past which the try is dead anyway).
func (c *Coordinator) hedgeDelay(sh *shardState) time.Duration {
	snap := sh.latH.Snapshot()
	d := c.cfg.HedgeMinWait
	if snap.Count >= 16 {
		if q := time.Duration(snap.Quantile(c.cfg.HedgeQuantile)) * time.Microsecond; q > d {
			d = q
		}
	}
	if d > c.cfg.TryTimeout {
		d = c.cfg.TryTimeout
	}
	return d
}

// tryOutcome is one HTTP try's classified result: exactly one of resp
// (success), fatal (the request itself is bad — every shard would
// answer the same, so propagate and stop), or err (retryable failure:
// transport error, 5xx, 429/503 shed).
type tryOutcome struct {
	resp       *server.SearchResponse
	fatal      *server.APIError
	err        error
	retryAfter int // seconds; a shed backend's Retry-After floor
}

// try runs one HTTP POST /search against one backend, bounded by
// TryTimeout under ctx. The shard.* fault sites fire here — between
// the coordinator and the wire — so chaos specs can kill, stall, or
// flake a backend without touching its process.
func (c *Coordinator) try(ctx context.Context, b *backend, body []byte, reqID string) tryOutcome {
	if err := c.cfg.Faults.Error(faults.ShardConn); err != nil {
		return tryOutcome{err: fmt.Errorf("backend %s: %w", b.addr, err)}
	}
	tctx, cancel := context.WithTimeout(ctx, c.cfg.TryTimeout)
	defer cancel()
	if d := c.cfg.Faults.Delay(faults.ShardSlow); d > 0 {
		faults.Sleep(tctx, d)
	}
	if err := c.cfg.Faults.Error(faults.ShardErr5xx); err != nil {
		return tryOutcome{err: fmt.Errorf("backend %s: injected 5xx: %w", b.addr, err)}
	}
	req, err := http.NewRequestWithContext(tctx, http.MethodPost, "http://"+b.addr+"/search", bytes.NewReader(body))
	if err != nil {
		return tryOutcome{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", reqID)
	resp, err := c.client.Do(req)
	if err != nil {
		return tryOutcome{err: fmt.Errorf("backend %s: %w", b.addr, err)}
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxShardResponseBytes))
	if err != nil {
		return tryOutcome{err: fmt.Errorf("backend %s: reading response: %w", b.addr, err)}
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		var sr server.SearchResponse
		if err := json.Unmarshal(raw, &sr); err != nil {
			return tryOutcome{err: fmt.Errorf("backend %s: undecodable response: %v", b.addr, err)}
		}
		return tryOutcome{resp: &sr}
	case resp.StatusCode == http.StatusTooManyRequests ||
		resp.StatusCode == http.StatusServiceUnavailable ||
		resp.StatusCode >= 500:
		// Shed, draining, or broken: all retryable — another replica or
		// a later try may answer. Honor the backend's Retry-After as
		// the backoff floor.
		out := tryOutcome{err: fmt.Errorf("backend %s: status %d: %s", b.addr, resp.StatusCode, bytes.TrimSpace(raw))}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, perr := strconv.Atoi(ra); perr == nil && secs > 0 {
				out.retryAfter = secs
			}
		}
		return out
	default:
		// Any other 4xx means the request itself is invalid; every
		// shard holds the same opinion, so propagate the backend's
		// sentinel verbatim and stop retrying.
		var e server.ErrorResponse
		if json.Unmarshal(raw, &e) == nil && e.Error != "" {
			return tryOutcome{fatal: &server.APIError{Status: resp.StatusCode, Code: e.Error, Detail: e.Detail}}
		}
		return tryOutcome{fatal: &server.APIError{Status: resp.StatusCode, Code: server.ErrBadRequest, Detail: string(bytes.TrimSpace(raw))}}
	}
}

// shardResult is one shard's gathered outcome.
type shardResult struct {
	si    int
	hits  []server.Hit // remapped to global indexes
	meta  *server.SearchResponse
	fatal *server.APIError
	err   error // shard failed past its budget (partial-result path)
	spans []spanRec
}

// searchShard runs one shard's query to completion: hedged tries,
// classified failures, backoff with jitter and Retry-After floors,
// and a hard retry budget. It owns the budget and the span record —
// both single-goroutine, no locks.
func (c *Coordinator) searchShard(ctx context.Context, t *topology, si int, body []byte, reqID string) shardResult {
	sh := t.shards[si]
	res := shardResult{si: si}
	budget := c.cfg.Retries
	rot := int(sh.next.Add(1))
	attempt := 0
	var lastErr error
	for {
		if ctx.Err() != nil {
			res.err = ctx.Err()
			return res
		}
		primary := c.pickBackend(sh, rot+attempt, nil)
		out, used := c.hedgedTry(ctx, sh, si, primary, body, reqID, budget, attempt, &res)
		budget -= used
		if out.resp != nil {
			res.meta = out.resp
			res.hits = make([]server.Hit, len(out.resp.Hits))
			for i, h := range out.resp.Hits {
				h.Index += sh.Lo // shard-local -> global
				res.hits[i] = h
			}
			return res
		}
		if out.fatal != nil {
			res.fatal = out.fatal
			return res
		}
		lastErr = out.err
		if budget <= 0 {
			res.err = lastErr
			return res
		}
		budget--
		attempt++
		c.m.retries.With(primary.addr).Add(1)
		faults.Sleep(ctx, backoffWait(c.cfg.RetryBaseWait, c.cfg.RetryMaxWait, attempt, out.retryAfter))
	}
}

// backoffWait computes one retry's sleep: full jitter over
// min(maxWait, base<<attempt), floored by the backend's Retry-After
// when it sent one. Full jitter (uniform in [0, cap)) decorrelates a
// retry storm better than equal or decorrelated jitter and is what
// the exponential-backoff literature recommends as the default.
func backoffWait(base, maxWait time.Duration, attempt int, retryAfterSecs int) time.Duration {
	ceil := base << uint(attempt-1)
	if ceil > maxWait || ceil <= 0 { // <<= overflow guard
		ceil = maxWait
	}
	wait := time.Duration(rand.Int63n(int64(ceil) + 1))
	if floor := time.Duration(retryAfterSecs) * time.Second; wait < floor {
		wait = floor
	}
	return wait
}

// hedgedTry runs one attempt round: the primary try, plus — once the
// try outlives the shard's latency quantile and budget remains — a
// hedged second try on another replica (the same backend when the
// shard is unreplicated: an early retry, same budget draw). The first
// success wins and cancels the loser; the round fails only when every
// launched try failed. Returns the decisive outcome and how much
// budget the hedge consumed.
func (c *Coordinator) hedgedTry(ctx context.Context, sh *shardState, si int, primary *backend, body []byte, reqID string, budget, attempt int, res *shardResult) (tryOutcome, int) {
	type tryDone struct {
		out    tryOutcome
		b      *backend
		label  string
		start  time.Time
		cancel context.CancelFunc
	}
	ch := make(chan tryDone, 2)
	var cancels []context.CancelFunc
	defer func() {
		for _, cancel := range cancels {
			cancel()
		}
	}()
	launch := func(b *backend, label string) {
		lctx, cancel := context.WithCancel(ctx)
		cancels = append(cancels, cancel)
		start := time.Now()
		c.m.tries.With(b.addr).Add(1)
		go func() {
			out := c.try(lctx, b, body, reqID)
			// The goroutine itself settles the breaker and latency
			// accounting so a hedge loser that nobody waits for still
			// counts — except when it lost to a cancellation, which
			// says nothing about the backend's health.
			switch {
			case out.resp != nil:
				sh.latH.Observe(time.Since(start))
				b.onSuccess()
			case out.fatal != nil:
				b.onSuccess() // a 4xx is the request's fault, the backend is fine
			case lctx.Err() != nil && ctx.Err() == nil && errors.Is(lctx.Err(), context.Canceled):
				// Cancelled by the winner: neutral, no penalty.
			default:
				c.m.failures.With(b.addr).Add(1)
				b.onFailure(time.Now(), c.cfg.BreakerThreshold, c.cfg.BreakerCooldown)
			}
			c.refreshBackendGauges(b)
			ch <- tryDone{out: out, b: b, label: label, start: start, cancel: cancel}
		}()
	}
	launch(primary, fmt.Sprintf("shard%d.try%d", si, attempt+1))

	used := 0
	inFlight := 1
	var hedgeC <-chan time.Time
	if budget > 0 && c.cfg.HedgeQuantile > 0 && len(sh.backends) >= 1 {
		t := time.NewTimer(c.hedgeDelay(sh))
		defer t.Stop()
		hedgeC = t.C
	}
	var firstFail *tryOutcome
	for {
		select {
		case <-ctx.Done():
			return tryOutcome{err: ctx.Err()}, used
		case <-hedgeC:
			hedgeC = nil
			hb := c.pickBackend(sh, int(sh.next.Add(1)), primary)
			used++
			c.m.hedges.With(hb.addr).Add(1)
			launch(hb, fmt.Sprintf("shard%d.hedge%d", si, attempt+1))
			inFlight++
		case d := <-ch:
			res.spans = append(res.spans, spanRec{stage: d.label + "@" + d.b.addr, start: d.start, dur: time.Since(d.start)})
			if d.out.resp != nil || d.out.fatal != nil {
				return d.out, used
			}
			inFlight--
			if firstFail == nil {
				firstFail = &d.out
			} else if d.out.retryAfter > firstFail.retryAfter {
				firstFail.retryAfter = d.out.retryAfter
			}
			if inFlight == 0 {
				return *firstFail, used
			}
			// A hedge is still in flight; its answer may yet save the
			// round.
		}
	}
}

// Search fans one validated cluster request out over every shard and
// merges the answers. On success the *Response carries the merged hits
// plus the shard accounting; a non-nil *server.APIError is the request's
// sentinel failure (propagated 4xx, deadline, or shards_failed under
// require_complete). spans collects every consumed shard try for the
// caller's trace.
func (c *Coordinator) Search(ctx context.Context, creq *Request) (*Response, []spanRec, *server.APIError) {
	return c.search(ctx, creq, obs.NewID())
}

// search is Search under the caller's request ID: the front-end's trace
// ID, so the X-Request-Id forwarded to backends (suffixed per shard)
// matches the trace the router publishes.
func (c *Coordinator) search(ctx context.Context, creq *Request, reqID string) (*Response, []spanRec, *server.APIError) {
	// One topology load per request: the fan-out, the merge and the
	// accounting all describe the same generation even if a map update
	// lands mid-flight.
	t := c.topo.Load()
	// One clean marshal shared by every shard and try: forwarding the
	// client's raw bytes would leak unknown fields (require_complete)
	// into backends that reject them on the stream path.
	body, err := json.Marshal(&creq.SearchRequest)
	if err != nil {
		return nil, nil, &server.APIError{Status: http.StatusBadRequest, Code: server.ErrBadRequest, Detail: err.Error()}
	}

	results := make([]shardResult, len(t.shards))
	var wg sync.WaitGroup
	for si := range t.shards {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			results[si] = c.searchShard(ctx, t, si, body, fmt.Sprintf("%s#s%d", reqID, si))
		}(si)
	}
	wg.Wait()

	var spans []spanRec
	for _, r := range results {
		spans = append(spans, r.spans...)
	}
	// A fatal is the request's own fault — every shard would agree, so
	// the lowest shard's verdict is deterministic and representative.
	for _, r := range results {
		if r.fatal != nil {
			return nil, spans, r.fatal
		}
	}
	if ctx.Err() != nil {
		return nil, spans, server.CtxError(ctx)
	}

	oks := make([]shardResult, 0, len(results))
	var failed []int
	for _, r := range results {
		if r.err != nil {
			failed = append(failed, r.si)
			c.m.shardFails.With(strconv.Itoa(r.si)).Add(1)
			c.logf("cluster: shard %d failed past its retry budget: %v", r.si, r.err)
			continue
		}
		oks = append(oks, r)
	}
	if len(failed) > 0 && creq.RequireComplete {
		return nil, spans, &server.APIError{
			Status:     http.StatusServiceUnavailable,
			Code:       ErrShardsFailed,
			Detail:     fmt.Sprintf("%d of %d shards failed (%v) and the request requires a complete answer", len(failed), len(t.shards), failed),
			RetryAfter: 1,
		}
	}

	// Version-skew accounting. The distinct snapshot stamps the
	// answering shards reported are always collected (an unversioned
	// backend stamps ""); under "fence" a stamp mismatch drops the
	// disagreeing shards from the merge — the reference is the
	// lowest-indexed answering shard, the deterministic pick both halves
	// of a rolling reload agree on.
	var skewed []int
	versionSet := make(map[string]bool, 2)
	for _, r := range oks {
		versionSet[r.meta.SnapshotVersion] = true
	}
	if c.cfg.VersionSkew == VersionSkewFence && len(versionSet) > 1 {
		ref := oks[0].meta.SnapshotVersion
		kept := oks[:0]
		for _, r := range oks {
			if r.meta.SnapshotVersion != ref {
				skewed = append(skewed, r.si)
				continue
			}
			kept = append(kept, r)
		}
		oks = kept
		c.m.skewed.Add(1)
		if creq.RequireComplete {
			return nil, spans, &server.APIError{
				Status:     http.StatusServiceUnavailable,
				Code:       ErrVersionsSkewed,
				Detail:     fmt.Sprintf("shards %v answered snapshot versions other than the reference %q mid-reload and the request requires a complete answer", skewed, ref),
				RetryAfter: 1,
			}
		}
		c.logf("cluster: version skew fenced: reference %q, shards %v answered other versions", ref, skewed)
	}
	versions := make([]string, 0, len(versionSet))
	for v := range versionSet {
		if v != "" {
			versions = append(versions, v)
		}
	}
	sort.Strings(versions)

	lists := make([][]server.Hit, 0, len(oks))
	var meta *server.SearchResponse
	cached := true
	for _, r := range oks {
		lists = append(lists, r.hits)
		if meta == nil {
			meta = r.meta
		}
		cached = cached && r.meta.Cached
	}

	resp := &Response{
		Complete:         len(failed) == 0 && len(skewed) == 0,
		ShardsOK:         len(t.shards) - len(failed) - len(skewed),
		ShardsFailed:     failed,
		ShardsSkewed:     skewed,
		ShardMapVersion:  t.smap.Version,
		SnapshotVersions: versions,
	}
	if meta != nil {
		resp.SearchResponse = *meta
		resp.Cached = cached
	} else {
		// Every shard failed: degrade all the way to an empty answer
		// with honest accounting rather than inventing a 5xx.
		resp.QueryLen = len(creq.Query)
		resp.Kernel = creq.Kernel
		resp.K = creq.K
		if resp.K == 0 {
			resp.K = server.DefaultTopK
		}
		resp.Cached = false
	}
	topK := resp.K
	resp.Hits = align.MergeRanked(lists, func(h server.Hit) (int, int) { return h.Score, h.Index }, topK)
	if resp.Hits == nil {
		resp.Hits = []server.Hit{}
	}
	if !resp.Complete {
		c.m.partials.Add(1)
	}
	return resp, spans, nil
}
