package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
)

// Backend is the search a Frontend serves: everything behind "one
// decoded request in, one response out". The Server's local pipeline
// is one Backend, cluster.Coordinator's scatter-gather over remote
// Servers is the other — the network twin of align.SearchDB sharding
// over workers and merging with MergeRanked.
type Backend interface {
	// NewQuery returns a zeroed Query for one POST /search body (stream
	// false) or one /search/stream line (stream true).
	NewQuery(stream bool) Query
	// Health reports readiness — notReady is empty when the backend
	// wants traffic, else the reason /readyz gives — and the facts the
	// backend adds to the /healthz and /readyz bodies, in a map the
	// caller may write to.
	Health() (notReady string, facts map[string]any)
	// Statsz returns the /statsz body.
	Statsz() any
}

// Query is one request on its way through the Frontend. The Frontend
// strictly decodes the request's JSON into Target, calls Prepare, arms
// the deadline, and calls Search — which therefore runs exactly once
// per successful Prepare.
type Query interface {
	// Target returns the value the request's JSON object is decoded
	// into: the backend's wire request.
	Target() any
	// Prepare validates the decoded request and pins whatever the
	// search needs, before the Frontend counts the request or commits a
	// goroutine to it. It returns the stream line's client tag ("" on a
	// POST; echoed on the line's answer even when err is set) and the
	// request's timeout_ms. Trace facts known this early (kernel, query
	// length) are the backend's to stamp on tr.
	Prepare(tr *obs.Trace) (id string, timeoutMs int64, err *APIError)
	// Search answers the prepared query with the value to encode: the
	// POST body, or for a stream query the result line — the same
	// fields behind the client's id. It releases whatever Prepare
	// pinned. A backend qualifies a success by pre-stamping tr.Outcome
	// (the router's "partial"); left empty it publishes as "ok".
	Search(ctx context.Context, tr *obs.Trace) (any, *APIError)
}

// Frontend is the serving contract, implemented once: the mux, the
// POST /search shell, the NDJSON /search/stream engine (stream.go),
// the /healthz /readyz /statsz shells, the drain flag, the error
// renderer, the trace ring and the instruments every serving binary
// shares — all in front of a Backend. seqserve and seqrouter differ
// only in the Backend behind it.
type Frontend struct {
	b        Backend
	cfg      Config // the front-end knobs, defaults applied (stall 0: no cutoff)
	mux      *http.ServeMux
	draining atomic.Bool
	start    time.Time
	reg      *obs.Registry
	ring     *obs.Ring

	requests *obs.Counter   // requests past Prepare (POST and stream lines)
	errored  *obs.Counter   // requests answered with an error response
	timeouts *obs.Counter   // requests that hit their deadline
	inFlight *obs.Gauge     // requests between Prepare and their answer
	totalH   *obs.Histogram // Prepare -> answer ready, successes only

	streamsOpen    *obs.Gauge   // connections currently streaming
	streamsTotal   *obs.Counter // connections accepted over the uptime
	streamLines    *obs.Counter // request lines decoded (valid or not)
	streamResults  *obs.Counter // result lines written
	streamErrors   *obs.Counter // per-line error lines written
	streamInFlight *obs.Gauge   // window slots held across all streams
}

// NewFrontend builds the front-end over b, registering its instruments
// as <name>_* on a fresh registry that b then adds its own families
// to. Of cfg it reads the front-end knobs only — StreamWindow,
// StreamStallTimeout, RequestTimeout, Faults (the client.stall site),
// TraceRing, AccessLog — with the defaults Config documents.
func NewFrontend(b Backend, name string, cfg Config) *Frontend {
	if cfg.StreamWindow <= 0 {
		cfg.StreamWindow = DefaultStreamWindow
	}
	switch {
	case cfg.StreamStallTimeout == 0:
		cfg.StreamStallTimeout = DefaultStreamStall
	case cfg.StreamStallTimeout < 0:
		cfg.StreamStallTimeout = 0
	}
	f := &Frontend{
		b:     b,
		cfg:   cfg,
		mux:   http.NewServeMux(),
		start: time.Now(),
		reg:   obs.NewRegistry(),
		ring:  obs.NewRing(cfg.TraceRing),

		requests:       obs.NewCounter(),
		errored:        obs.NewCounter(),
		timeouts:       obs.NewCounter(),
		inFlight:       obs.NewGauge(),
		totalH:         obs.NewHistogram(),
		streamsOpen:    obs.NewGauge(),
		streamsTotal:   obs.NewCounter(),
		streamLines:    obs.NewCounter(),
		streamResults:  obs.NewCounter(),
		streamErrors:   obs.NewCounter(),
		streamInFlight: obs.NewGauge(),
	}

	r := f.reg
	r.RegisterGaugeFunc(name+"_uptime_seconds", "Seconds since the process started serving.",
		func() float64 { return time.Since(f.start).Seconds() })
	r.RegisterCounter(name+"_requests_total", "Search requests admitted past validation (POST and stream lines).", f.requests)
	r.RegisterCounter(name+"_errors_total", "Requests answered with an error response.", f.errored)
	r.RegisterCounter(name+"_timeouts_total", "Requests that hit their deadline.", f.timeouts)
	r.RegisterGauge(name+"_in_flight", "Search requests currently being served.", f.inFlight)
	r.RegisterHistogram(name+"_request_latency_us", "End-to-end request latency in microseconds (validation to response ready).", f.totalH)
	r.RegisterGaugeFunc(name+"_draining", "1 when the process is draining for shutdown.",
		func() float64 { return boolGauge(f.draining.Load()) })
	r.RegisterGauge(name+"_streams_open", "Streaming connections open now.", f.streamsOpen)
	r.RegisterCounter(name+"_streams_total", "Streaming connections accepted over the uptime.", f.streamsTotal)
	r.RegisterCounter(name+"_stream_lines_total", "Stream request lines decoded (valid or not).", f.streamLines)
	r.RegisterCounter(name+"_stream_results_total", "Stream result lines written.", f.streamResults)
	r.RegisterCounter(name+"_stream_errors_total", "Stream per-line error lines written.", f.streamErrors)
	r.RegisterGauge(name+"_stream_window_inflight", "Flow-control window slots held across all streams.", f.streamInFlight)

	f.mux.HandleFunc("/search", f.handleSearch)
	f.mux.HandleFunc("/search/stream", f.handleStream)
	f.mux.HandleFunc("/healthz", f.handleHealthz)
	f.mux.HandleFunc("/readyz", f.handleReadyz)
	f.mux.HandleFunc("/statsz", func(w http.ResponseWriter, _ *http.Request) {
		WriteJSON(w, http.StatusOK, b.Statsz())
	})
	f.mux.Handle("/metrics", f.reg.Handler())
	f.mux.Handle("/debug/traces", f.ring)
	return f
}

// ServeHTTP serves POST /search, POST /search/stream, GET /healthz,
// /readyz, /statsz, /metrics and /debug/traces.
func (f *Frontend) ServeHTTP(w http.ResponseWriter, r *http.Request) { f.mux.ServeHTTP(w, r) }

// BeginDrain flips the front-end to draining: new requests and streams
// are refused with 503/draining, live streams end with a terminal
// draining line after flushing what completed, and /healthz + /readyz
// go unhealthy so load balancers stop sending work. Idempotent.
func (f *Frontend) BeginDrain() { f.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (f *Frontend) Draining() bool { return f.draining.Load() }

// Registry returns the metric registry GET /metrics renders, for the
// backend to register its own families next to the front-end's.
func (f *Frontend) Registry() *obs.Registry { return f.reg }

// ServeDebug serves the operator-only listener behind a binary's
// -debug-addr until it fails: net/http/pprof, plus mirrors of /metrics
// and /debug/traces so a scraper needs only the debug port. A separate
// address on purpose — profiles and raw trace dumps are operator tools,
// and binding them to (say) localhost keeps them off the serving port
// without any auth machinery.
func (f *Frontend) ServeDebug(addr string) error {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/metrics", f.reg.Handler())
	mux.Handle("/debug/traces", f.ring)
	return (&http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}).ListenAndServe()
}

// Counts reports the front-end's request accounting — the part of a
// /statsz body every backend shares.
func (f *Frontend) Counts() (requests, errors, inFlight int64) {
	return f.requests.Value(), f.errored.Value(), f.inFlight.Value()
}

// errTrailingData is decodeStrict's verdict on bytes after the object.
var errTrailingData = errors.New("trailing data after the JSON object")

// decodeStrict is the one decode rule of the serving contract, for
// POST bodies and stream lines alike: exactly one JSON object, no
// unknown fields, nothing after it. A typo like "exhuastive" is a 400,
// not a silently different search.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errTrailingData
	}
	return nil
}

// deadline arms a request's effective deadline on ctx: the tighter of
// its timeout_ms and Config.RequestTimeout, either alone applying when
// the other is unset. WithTimeout allocates, so the common no-deadline
// path returns ctx as is.
func (f *Frontend) deadline(ctx context.Context, timeoutMs int64) (context.Context, context.CancelFunc) {
	d := time.Duration(timeoutMs) * time.Millisecond
	if lim := f.cfg.RequestTimeout; lim > 0 && (d <= 0 || d > lim) {
		d = lim
	}
	if d <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, d)
}

// open starts a request's trace — the client's X-Request-Id or a
// generated one, echoed in the response header so the caller can find
// its request in /debug/traces and the logs — and applies the two
// refusals every entry point shares. A false return means the request
// has been answered.
func (f *Frontend) open(w http.ResponseWriter, r *http.Request, path, usage string) (*obs.Trace, bool) {
	tr := obs.StartTrace(r.Header.Get("X-Request-Id"))
	tr.Path = path
	w.Header().Set("X-Request-Id", tr.ID)
	switch {
	case f.draining.Load():
		f.failRequest(w, tr, errDraining)
	case r.Method != http.MethodPost:
		f.failRequest(w, tr, &APIError{Status: http.StatusMethodNotAllowed, Code: ErrBadMethod, Detail: usage})
	default:
		return tr, true
	}
	return tr, false
}

func (f *Frontend) handleSearch(w http.ResponseWriter, r *http.Request) {
	tr, ok := f.open(w, r, "search", "use POST with a JSON body")
	if !ok {
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		f.failRequest(w, tr, badRequest(ErrBadRequest, "reading body: %v", err))
		return
	}
	if len(body) > maxBodyBytes {
		f.failRequest(w, tr, badRequest(ErrBadRequest, "body exceeds %d bytes", maxBodyBytes))
		return
	}
	q := f.b.NewQuery(false)
	if err := decodeStrict(body, q.Target()); err != nil {
		f.failRequest(w, tr, badRequest(ErrBadRequest, "decoding JSON: %v", err))
		return
	}
	_, timeoutMs, aerr := q.Prepare(tr)
	if aerr != nil {
		f.failRequest(w, tr, aerr)
		return
	}
	start := time.Now()
	f.requests.Add(1)
	f.inFlight.Add(1)
	defer f.inFlight.Add(-1)

	// The request context carries client disconnects; the deadline
	// stacks on top.
	ctx, cancel := f.deadline(r.Context(), timeoutMs)
	defer cancel()
	// client.stall fault site: the client "reads and writes slowly"
	// from here on — the deadline is armed, so a stalled request is
	// cut off like any other slow one.
	if d := f.cfg.Faults.Delay(faults.ClientStall); d > 0 {
		faults.Sleep(ctx, d)
	}
	resp, aerr := q.Search(ctx, tr)
	if aerr != nil {
		f.failRequest(w, tr, aerr)
		return
	}
	f.totalH.Observe(time.Since(start))
	respondStart := time.Now()
	WriteJSON(w, http.StatusOK, resp)
	tr.SpanSince(obs.StageRespond, respondStart)
	f.finishTrace(tr, okOutcome(tr))
}

// okOutcome is a successful request's published outcome: "ok" unless
// the backend qualified it.
func okOutcome(tr *obs.Trace) string {
	if tr.Outcome != "" {
		return tr.Outcome
	}
	return obs.OutcomeOK
}

func (f *Frontend) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status, body := http.StatusServiceUnavailable, map[string]any{"status": "draining"}
	if !f.draining.Load() {
		status = http.StatusOK
		_, body = f.b.Health()
		body["status"] = "ok"
	}
	body["uptime_s"] = time.Since(f.start).Seconds()
	WriteJSON(w, status, body)
}

// handleReadyz is readiness, distinct from /healthz's liveness: a
// draining process is still alive (it is finishing in-flight work) and
// a router missing a shard still answers, but neither should receive
// new traffic, so /readyz is what coordinators (internal/cluster) and
// load balancers gate on. The startup not-ready phase is cmd/seqserve's
// holding handler, which answers 503/starting on every path until the
// Server exists.
func (f *Frontend) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	notReady, body := f.b.Health()
	if f.draining.Load() {
		notReady = "draining"
	}
	if notReady != "" {
		WriteJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": notReady})
		return
	}
	body["ready"] = true
	WriteJSON(w, http.StatusOK, body)
}

// WriteJSON writes v as a JSON response body with the given status —
// the one JSON renderer of the serving binaries.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) // the client hanging up is its problem, not ours
}

// failRequest writes an error response carrying the request's trace ID
// and publishes the trace with the sentinel code as its outcome — so a
// client holding a request_id can look its failure up in
// /debug/traces.
func (f *Frontend) failRequest(w http.ResponseWriter, tr *obs.Trace, e *APIError) {
	f.errored.Add(1)
	if e.Code == ErrDeadline {
		f.timeouts.Add(1)
	}
	if e.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.RetryAfter))
	}
	WriteJSON(w, e.Status, &ErrorResponse{Error: e.Code, Detail: e.Detail, RequestID: tr.ID})
	f.finishTrace(tr, e.Code)
}

// finishTrace stamps the trace's outcome, publishes it to the ring
// (after which it is immutable), and emits the structured access-log
// line when one is configured.
func (f *Frontend) finishTrace(tr *obs.Trace, outcome string) {
	tr.Finish(outcome)
	f.ring.Publish(tr)
	if f.cfg.AccessLog != nil {
		f.cfg.AccessLog.Info("request",
			"id", tr.ID,
			"path", tr.Path,
			"outcome", outcome,
			"total_us", tr.TotalUs,
			"kernel", tr.Kernel,
			"query_len", tr.QueryLen,
			"cached", tr.CacheHit,
			"batch", tr.BatchSize)
	}
}
