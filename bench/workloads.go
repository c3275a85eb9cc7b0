package main

import (
	"fmt"
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/server"
)

// workload is one traffic shape; BENCHMARK.json and README.md record
// why each was chosen. drive sends it for dur from family query number
// base on and returns what the client saw.
type workload struct {
	name   string
	routed bool // clients talk to a router over two shards
	hotmix bool // draws on the hot corpus, so warm-up fills the cache first
	drive  func(c *client, in *inputs, base int, dur time.Duration) (phase, error)
}

// closedFamily is nproc callers, each sending a new family query as
// soon as its last one returned; no query repeats, so the cache and
// single-flight never help.
func closedFamily(exhaustive bool) func(*client, *inputs, int, time.Duration) (phase, error) {
	return func(c *client, in *inputs, base int, dur time.Duration) (phase, error) {
		return c.run(dur, 0, func(i int) (server.SearchRequest, int) {
			return server.SearchRequest{Query: in.familyQuery(base + i), Exhaustive: exhaustive}, -1
		}), nil
	}
}

// schedule hands out hotmix requests by number, generating them a
// chunk ahead so a closed loop of unknown speed never runs dry and the
// generator's cost stays out of the request path most of the time.
type schedule struct {
	in   *inputs
	base int
	mu   sync.Mutex
	reqs []request
}

const scheduleChunk = 4096

func (s *schedule) at(i int) (server.SearchRequest, int) {
	s.mu.Lock()
	for i >= len(s.reqs) {
		s.reqs = append(s.reqs, s.in.hotmix(s.base+len(s.reqs)/missEvery, scheduleChunk)...)
	}
	r := s.reqs[i]
	s.mu.Unlock()
	return server.SearchRequest{Query: r.query}, r.hot
}

func hotmixLoop(open bool) func(*client, *inputs, int, time.Duration) (phase, error) {
	return func(c *client, in *inputs, base int, dur time.Duration) (phase, error) {
		s := &schedule{in: in, base: base}
		rate := 0.0
		if open {
			rate = in.sc.openRate
			s.at(int(rate*dur.Seconds()) + 1) // the whole schedule, fixed before the first arrival
		} else {
			s.at(0)
		}
		return c.run(dur, rate, s.at), nil
	}
}

// streamOutstanding is how many stream lines the client keeps
// unanswered: twice the server's flow-control window, so the window is
// always full and the pump's backpressure is part of what is measured.
const streamOutstanding = 2 * server.DefaultStreamWindow

var workloads = []workload{
	{
		name:  "exact-scan",
		drive: closedFamily(true),
	},
	{
		name:  "indexed-family",
		drive: closedFamily(false),
	},
	{
		name: "hotmix-open", hotmix: true,
		drive: hotmixLoop(true),
	},
	{
		name: "allvsall-stream",
		drive: func(c *client, in *inputs, base int, dur time.Duration) (phase, error) {
			return c.stream(server.StreamModeAllVsAll, streamOutstanding, func(i int, elapsed time.Duration) (string, bool) {
				return in.streamLine(base + i), elapsed < dur
			})
		},
	},
	{
		name: "routed-hotmix", routed: true, hotmix: true,
		drive: hotmixLoop(false),
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Family-query number ranges of a run's phases; see ladderBase.
const (
	warmBase   = missBase
	windowBase = missBase + 1<<16
	tracedBase = missBase + 2<<16
	sloBase    = missBase + 3<<16
)

// runResult is one run of one workload: what the last output line and
// the -repeat file carry.
type runResult struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Traced    bool    `json:"traced"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Failure   string  `json:"failure,omitempty"` // the first one
	Metrics   metrics `json:"metrics"`

	ladder []rung // traced runs: the self-time table
}

// counters is the program's and the runtime's cumulative counts at one
// instant; a window's per-layer numbers are differences of two.
type counters struct {
	stats   []server.StatsResponse // the serving nodes'
	mem     runtime.MemStats
	sched   *rtmetrics.Float64Histogram
	partial int64
	errors  int64
	retries int64
	hedges  int64
}

func (h *host) counters(routed bool) counters {
	var c counters
	for _, n := range h.serving(routed) {
		c.stats = append(c.stats, n.srv.Stats())
	}
	runtime.ReadMemStats(&c.mem)
	s := []rtmetrics.Sample{{Name: "/sched/latencies:seconds"}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() == rtmetrics.KindFloat64Histogram {
		c.sched = s[0].Value.Float64Histogram()
	}
	if h.coord != nil {
		st := h.coord.StatsSnapshot()
		c.partial, c.errors = st.Partials, st.Errors
		for _, b := range st.Backends {
			c.retries += b.Retries
			c.hedges += b.Hedges
		}
	}
	return c
}

// runConfig is what one run is given besides its workload.
type runConfig struct {
	sc       scale
	seed     int64
	window   time.Duration // the measured time
	traced   bool
	dir      string // scratch space inside the checkout
	traceOut string // where a traced run writes its spans
}

// run executes one workload once: set-ups, warm-up, the timed window,
// verification, and on a traced run the layer ladder.
func (w workload) run(cfg runConfig) (*runResult, error) {
	sc, seed, window, traced, dir := cfg.sc, cfg.seed, cfg.window, cfg.traced, cfg.dir
	res := &runResult{Workload: w.name, Seed: seed, Traced: traced}
	nproc := runtime.GOMAXPROCS(0)

	// Set-up, several times over, because one set-up is a fraction of a
	// second and its median is what holds still. Traced runs always host
	// the router (the ladder's top rung needs it) and report no setup_s.
	setups := sc.setups
	if traced {
		setups = 1
	}
	var (
		h      *host
		o      *oracle
		setupS []float64
	)
	for s := 0; s < setups; s++ {
		if h != nil {
			h.tearDown()
		}
		t0 := time.Now()
		in := generate(sc, seed)
		var err error
		if h, err = setUp(in, dir, w.routed || traced); err != nil {
			return nil, err
		}
		shards := 0
		if w.routed {
			shards = len(h.shards)
		}
		o = newOracle(in, h.ix, shards)
		first := newClient(h.target(w.routed).url, 1, nil)
		e := exchange{req: server.SearchRequest{Query: in.hot[0]}, hot: 0}
		first.post(time.Now(), &e)
		first.close()
		if v := o.check(&phase{ex: []exchange{e}}); v.failed > 0 {
			h.tearDown()
			return nil, fmt.Errorf("first response after set-up: %s", v.first)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer h.tearDown()
	in := h.in

	// Warm-up: the same traffic on its own query numbers, after filling
	// the cache with the hot corpus where the workload draws on it.
	c := newClient(h.target(w.routed).url, nproc, nil)
	c.label = w.name
	defer c.close()
	if w.hotmix {
		c.prime(in.hot)
	}
	if _, err := w.drive(c, in, warmBase, min(window/warmShare, warmMax)); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	// The timed window. A traced run spends the first half untraced so
	// the two halves' qps give the tracing overhead.
	var tr *tracer
	untracedQPS := math.NaN()
	base := windowBase
	if traced {
		window /= 2
		ph, err := w.drive(c, in, base, window)
		if err != nil {
			return nil, fmt.Errorf("untraced half: %w", err)
		}
		untracedQPS = float64(countOK(&ph)) / ph.elapsed.Seconds()
		tr = newTracer()
		c.tr, base = tr, tracedBase
	}
	runtime.GC() // start every window from the same heap state
	before := h.counters(w.routed)
	ph, err := w.drive(c, in, base, window)
	if err != nil {
		return nil, fmt.Errorf("timed window: %w", err)
	}
	after := h.counters(w.routed)
	c.tr = nil

	v := o.check(&ph)
	res.Attempted, res.Failed, res.Failure = v.attempted, v.failed, v.first
	res.Correct = v.wrong == 0

	lat := make([]float64, 0, len(ph.ex))
	var cells float64
	for i := range ph.ex {
		if e := &ph.ex[i]; e.ok() {
			lat = append(lat, ms(e.latency()))
			if e.req.Exhaustive {
				cells += float64(len(e.req.Query)) * float64(in.db.TotalResidues())
			}
		}
	}
	sort.Float64s(lat)
	ok := float64(len(lat))
	m := &res.Metrics
	if !traced {
		m.addN("setup_s", median(setupS), "s", len(setupS))
		m.addN("qps", ok/ph.elapsed.Seconds(), "1/s", len(lat))
		m.addN("p50_ms", quantile(lat, 0.50), "ms", len(lat))
		m.addN("p95_ms", quantile(lat, 0.95), "ms", len(lat))
		m.addN("cpu_ms_per_req", ms(ph.cpu)/ok, "ms", len(lat))
		m.addN("recall_at_10", v.recall, "ratio", v.recallN)
		m.addN("failed_frac", float64(v.failed)/float64(max(v.attempted, 1)), "ratio", v.attempted)
		return res, nil
	}

	lad, err := runLadder(h, tr, dir, m)
	if err != nil {
		return nil, fmt.Errorf("layer ladder: %w", err)
	}
	res.ladder = lad
	w.windowLayers(m, h, &ph, lat, cells, before, after, untracedQPS)
	m.add("client.slo_rate_qps", sloRate(h, nproc), "1/s")
	if err := tr.write(cfg.traceOut, w.name, *m); err != nil {
		return nil, err
	}
	return res, nil
}

// The warm-up lasts a sixth of the window, at most warmMax: connections
// open, scratch buffers grow and the heap reaches its working size
// within the first second.
const (
	warmShare = 6
	warmMax   = 1500 * time.Millisecond
)

// prime sends each query once, so a following phase finds them cached.
func (c *client) prime(queries []string) {
	for _, q := range queries {
		e := exchange{req: server.SearchRequest{Query: q}}
		c.post(time.Now(), &e)
	}
}

func countOK(ph *phase) int {
	n := 0
	for i := range ph.ex {
		if ph.ex[i].ok() {
			n++
		}
	}
	return n
}

// windowLayers adds the per-layer numbers that describe the timed
// window itself: counter differences across it, the client's own tail,
// and the runtime's.
func (w workload) windowLayers(m *metrics, h *host, ph *phase, lat []float64, cells float64, before, after counters, untracedQPS float64) {
	ok := float64(len(lat))
	achieved := cells / ph.elapsed.Seconds() / 1e6
	m.add("server.achieved_mcells_per_s", achieved, "Mcells/s")
	m.add("server.achieved_over_peak", achieved/(float64(runtime.GOMAXPROCS(0))*m.get("align.kernel_swar_mcells_per_s")), "ratio")

	var hits, misses, coalesced, batches, shed, timeouts int64
	var jobs float64
	for i := range after.stats {
		a, b := after.stats[i], before.stats[i]
		hits += a.Cache.Hits - b.Cache.Hits
		misses += a.Cache.Misses - b.Cache.Misses
		coalesced += a.Cache.Coalesced - b.Cache.Coalesced
		batches += a.Batches - b.Batches
		jobs += a.MeanBatch*float64(a.Batches) - b.MeanBatch*float64(b.Batches)
		shed += a.ShedTotal - b.ShedTotal
		timeouts += a.TimeoutTotal - b.TimeoutTotal
	}
	m.add("server.cache_hit_rate", ratio(float64(hits), float64(hits+misses)), "ratio")
	m.add("server.coalesced", float64(coalesced), "count")
	m.add("server.mean_batch", ratio(jobs, float64(batches)), "count")
	m.add("server.shed_total", float64(shed), "count")
	m.add("server.timeout_total", float64(timeouts), "count")
	// Stage histograms are cumulative since the server started; the
	// warm-up they include is the same traffic.
	for _, st := range []string{"queue", "seed", "scan", "rank"} {
		m.add("server.stage_"+st+"_p50_us", float64(after.stats[0].Stages[st].P50Us), "us")
	}

	m.add("cluster.partial_responses", float64(after.partial-before.partial), "count")
	m.add("cluster.errors", float64(after.errors-before.errors), "count")
	m.add("cluster.retries", float64(after.retries-before.retries), "count")
	m.add("cluster.hedges", float64(after.hedges-before.hedges), "count")

	late := make([]float64, len(ph.ex))
	for i := range ph.ex {
		late[i] = ms(ph.ex[i].sent - ph.ex[i].due)
	}
	sort.Float64s(late)
	m.add("client.sent", float64(len(ph.ex)), "count")
	m.add("client.ok", ok, "count")
	m.add("client.failed", float64(len(ph.ex))-ok, "count")
	m.addN("client.p99_ms", quantile(lat, 0.99), "ms", len(lat))
	m.addN("client.max_ms", quantile(lat, 1), "ms", len(lat))
	m.addN("client.gen_late_p99_ms", quantile(late, 0.99), "ms", len(late))
	m.add("client.trace_overhead", ok/ph.elapsed.Seconds()/untracedQPS, "ratio")

	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	m.add("runtime.gc_pause_ms", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6, "ms")
	m.add("runtime.gc_cycles", float64(after.mem.NumGC-before.mem.NumGC), "count")
	m.add("runtime.heap_peak_mb", float64(after.mem.HeapSys)/(1<<20), "MB")
	m.add("runtime.peak_rss_mb", float64(ru.Maxrss)/1024, "MB") // Linux reports KiB
	m.add("runtime.allocs_per_req", ratio(float64(after.mem.Mallocs-before.mem.Mallocs), ok), "count")
	m.add("runtime.sched_latency_p99_us", schedP99(before.sched, after.sched)*1e6, "us")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// schedP99 is the 99th percentile of goroutine scheduling latency, in
// seconds, over the window between two readings of the runtime's
// histogram (upper bucket bound).
func schedP99(before, after *rtmetrics.Float64Histogram) float64 {
	if before == nil || after == nil || len(before.Counts) != len(after.Counts) {
		return 0
	}
	var total uint64
	for i := range after.Counts {
		total += after.Counts[i] - before.Counts[i]
	}
	var seen uint64
	for i := range after.Counts {
		seen += after.Counts[i] - before.Counts[i]
		if float64(seen) >= 0.99*float64(total) && total > 0 {
			if up := after.Buckets[i+1]; !math.IsInf(up, 1) {
				return up
			}
			return after.Buckets[i]
		}
	}
	return 0
}

// sloLimit is the latency limit the rate search holds p95 to.
const sloLimit = 50 * time.Millisecond

// sloRate offers the hotmix traffic open-loop to the full server at
// each of the scale's rates for a short window and returns the highest
// one that kept p95 within sloLimit, failed nothing, and left no
// backlog behind when arrivals stopped.
func sloRate(h *host, conns int) float64 {
	c := newClient(h.full.url, conns, nil)
	defer c.close()
	c.prime(h.in.hot)
	best := 0.0
	for k, rate := range h.in.sc.sloRates {
		s := &schedule{in: h.in, base: sloBase + k<<16}
		dur := h.in.sc.sloWindow
		s.at(int(rate*dur.Seconds()) + 1)
		ph := c.run(dur, rate, s.at)
		lat := make([]float64, 0, len(ph.ex))
		for i := range ph.ex {
			if ph.ex[i].ok() {
				lat = append(lat, ms(ph.ex[i].latency()))
			}
		}
		sort.Float64s(lat)
		if len(lat) == len(ph.ex) && quantile(lat, 0.95) <= ms(sloLimit) && ph.elapsed <= dur+sloLimit {
			best = rate
		}
	}
	return best
}
