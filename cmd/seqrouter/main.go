// Command seqrouter is the scatter-gather coordinator over a fleet of
// seqserve shards: it owns the shard map, fans every /search and
// /search/stream query out to the shard backends, merges the per-shard
// top-Ks into the single-node answer (bit-identical when every shard
// responds), and degrades gracefully — retries with backoff, hedged
// tries, circuit breakers, health-gated selection, and partial results
// with complete:false accounting — when shards misbehave.
//
// Usage:
//
//	seqserve -db synthetic:300 -shard 0:100   -addr :8061 &
//	seqserve -db synthetic:300 -shard 100:200 -addr :8062 &
//	seqserve -db synthetic:300 -shard 200:300 -addr :8063 &
//	seqrouter -backends '0:100@127.0.0.1:8061;100:200@127.0.0.1:8062;200:300@127.0.0.1:8063' -addr :8060
//	curl -s -d '{"query":"MTDKL...","k":5}' localhost:8060/search
//	curl -s localhost:8060/statsz
//
// The endpoint surface matches seqserve (plus GET /shardmap to read
// the serving map and PUT /shardmap to rebalance it live, without
// dropping in-flight fan-outs), so seqclient and the bench/ client
// point at a router unchanged.
// DESIGN.md's "Sharded serving & failure handling" section documents
// the architecture.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/server"
)

func main() {
	var (
		backends = flag.String("backends", "",
			"shard map: lo:hi@addr[,addr...][;lo:hi@addr...] — contiguous global target ranges, each with one or more replica backends (required)")
		mapVersion = flag.Int64("map-version", 1, "shard map version stamped into every response and /shardmap")
		addr       = flag.String("addr", ":8060", "listen address")

		tryTimeout = flag.Duration("try-timeout", cluster.DefaultTryTimeout, "per-backend-try timeout")
		retries    = flag.Int("retries", cluster.DefaultRetries,
			"per-shard budget of extra tries beyond the first (backoff retries and hedges both draw from it; negative disables)")
		retryBase = flag.Duration("retry-base-wait", cluster.DefaultRetryBaseWait, "base of the exponential retry backoff (full jitter)")
		retryMax  = flag.Duration("retry-max-wait", cluster.DefaultRetryMaxWait, "cap on one retry backoff wait")
		hedgeQ    = flag.Float64("hedge-quantile", cluster.DefaultHedgeQuantile,
			"shard latency quantile a try must outlive before a hedged second try launches (negative disables hedging)")
		hedgeMin = flag.Duration("hedge-min-wait", cluster.DefaultHedgeMinWait, "floor on the hedge delay")
		probeIvl = flag.Duration("probe-interval", cluster.DefaultProbeInterval, "backend health probe period (negative disables probing)")
		probeTO  = flag.Duration("probe-timeout", cluster.DefaultProbeTimeout, "per-probe timeout")
		eject    = flag.Int("eject-after", cluster.DefaultEjectAfter, "consecutive failed probes before a backend is ejected")
		recover_ = flag.Int("recover-after", cluster.DefaultRecoverAfter, "consecutive successful probes before an ejected backend returns")
		brkTrip  = flag.Int("breaker-threshold", cluster.DefaultBreakerTrip, "consecutive failed tries that trip a backend's circuit breaker (negative disables)")
		brkCool  = flag.Duration("breaker-cooldown", cluster.DefaultBreakerCool, "how long a tripped breaker stays open before its half-open trial")
		reqTO    = flag.Duration("request-timeout", 0, "cap on every routed request's deadline (0 = none)")
		verSkew  = flag.String("version-skew", cluster.VersionSkewAllow,
			"what to do when shards answer one query from different snapshot versions mid rolling reload: 'allow' merges and reports the mix in snapshot_versions; 'fence' drops disagreeing shards (complete:false, shards_skewed) and turns require_complete into 503 versions_skewed")
		streamWin  = flag.Int("stream-window", server.DefaultStreamWindow, "per-connection /search/stream fan-out window")
		drainWait  = flag.Duration("drain-timeout", 30*time.Second, "max time to finish in-flight requests on shutdown")
		drainGrace = flag.Duration("drain-grace", 0,
			"after SIGTERM, keep answering with 503/draining this long before closing the listener")

		faultsSpec = flag.String("faults", "",
			"deterministic fault injection spec, site:key=val,...[;site:...] (sites: "+faults.SiteList()+") — chaos testing only")
		faultsSeed = flag.Uint64("faults-seed", 1, "seed for -faults rate schedules")
		debugAddr  = flag.String("debug-addr", "",
			"serve net/http/pprof plus /metrics and /debug/traces on this separate address; empty disables the debug listener")
		traceRing = flag.Int("trace-ring", 0, "per-request trace ring capacity behind /debug/traces (0 = default)")
	)
	flag.Parse()

	if *backends == "" {
		fatal(fmt.Errorf("-backends is required (e.g. '0:100@127.0.0.1:8061;100:200@127.0.0.1:8062')"))
	}
	smap, err := cluster.ParseShardMap(*backends, *mapVersion)
	if err != nil {
		fatal(err)
	}
	reg, err := faults.ParseSpec(*faultsSpec, *faultsSeed)
	if err != nil {
		fatal(err)
	}
	if reg != nil {
		fmt.Printf("seqrouter: FAULT INJECTION ARMED: %s (seed %d)\n", *faultsSpec, *faultsSeed)
	}

	coord, err := cluster.New(smap, cluster.Config{
		TryTimeout:       *tryTimeout,
		Retries:          *retries,
		RetryBaseWait:    *retryBase,
		RetryMaxWait:     *retryMax,
		HedgeQuantile:    *hedgeQ,
		HedgeMinWait:     *hedgeMin,
		ProbeInterval:    *probeIvl,
		ProbeTimeout:     *probeTO,
		EjectAfter:       *eject,
		RecoverAfter:     *recover_,
		BreakerThreshold: *brkTrip,
		BreakerCooldown:  *brkCool,
		RequestTimeout:   *reqTO,
		VersionSkew:      *verSkew,
		StreamWindow:     *streamWin,
		Faults:           reg,
		TraceRing:        *traceRing,
	})
	if err != nil {
		fatal(err)
	}
	router := cluster.NewRouter(coord)

	if *debugAddr != "" {
		go func() { fatal(fmt.Errorf("debug listener: %w", coord.ServeDebug(*debugAddr))) }()
		fmt.Printf("seqrouter: debug listener (pprof, /metrics, /debug/traces) on %s\n", *debugAddr)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           router,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Printf("seqrouter: routing %d sequences over %d shards (%d backends) on %s\n",
		smap.NumSeqs, len(smap.Shards), smap.NumBackends(), *addr)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigCh:
		fmt.Printf("seqrouter: %v, draining\n", sig)
	case err := <-errCh:
		fatal(err)
	}

	// Same drain choreography as seqserve: refuse new work with
	// 503/draining (readyz goes unhealthy too), optionally keep the
	// listener up so balancers observe the drain, then stop accepting
	// and wait for in-flight fan-outs.
	router.BeginDrain()
	if *drainGrace > 0 {
		time.Sleep(*drainGrace)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fatal(fmt.Errorf("drain timed out after %v: %w", *drainWait, err))
	}
	coord.Close()

	st := coord.StatsSnapshot()
	fmt.Printf("seqrouter: drained: %d requests, %d errors, %d partial responses\n",
		st.Requests, st.Errors, st.Partials)
	for _, b := range st.Backends {
		fmt.Printf("seqrouter: backend %s\n", b.String())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "seqrouter:", err)
	os.Exit(1)
}
