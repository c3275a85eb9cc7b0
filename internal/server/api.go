// Package server is the long-lived alignment search service, in two
// halves. The HTTP front-end (Frontend: frontend.go, stream.go) is the
// one serving contract of the repo — the mux, the POST /search shell,
// the NDJSON /search/stream engine, the /healthz /readyz /statsz
// shells, the drain flag, the error renderer, the trace ring and the
// common instruments — and it drives a small Backend interface:
// prepare and search one decoded request, report readiness, report
// stats. The Server in this package is one Backend, the local pipeline
//
//	validate -> cache -> single-flight -> admission -> micro-batch -> shard -> rescore -> rank
//
// with a bounded worker pool owning all DP state (per-worker
// align.Scratch and index.Searcher clones) and an LRU result cache
// with single-flight deduplication of identical in-flight queries;
// cluster.Coordinator's scatter-gather over remote Servers is the
// other, behind the very same Frontend. Results are deterministic: the
// same query and knobs return bit-identical hits across restarts,
// worker counts, batch compositions, and cache hit/miss — only the
// `cached` flag and timings vary. DESIGN.md's "Search service" and
// "Streaming bulk-query protocol" sections walk through the
// architecture.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/align"
	"repro/internal/bio"
	"repro/internal/index"
)

// SearchRequest is the POST /search body. Only `query` is required;
// the zero value of every knob selects the server default.
type SearchRequest struct {
	// Query is the ASCII protein sequence to search with.
	Query string `json:"query"`
	// Kernel names the exact scoring kernel (align.KernelNames);
	// empty selects the server's default (swar).
	Kernel string `json:"kernel,omitempty"`
	// K is how many top hits to return; 0 selects DefaultTopK.
	K int `json:"k,omitempty"`
	// MaxCandidates bounds the seed filter's candidate set on the
	// indexed path; 0 selects the index default, >= database size
	// degrades to the exact scan.
	MaxCandidates int `json:"max_candidates,omitempty"`
	// Exhaustive forces a full database scan, bypassing the seed
	// index. Servers started without an index always scan
	// exhaustively.
	Exhaustive bool `json:"exhaustive,omitempty"`
	// MinScore drops hits scoring below it; 0 selects 1.
	MinScore int `json:"min_score,omitempty"`
	// TimeoutMs is the per-request deadline in milliseconds; past it
	// the request fails with 408/deadline_exceeded and its job is
	// cancelled or abandoned. 0 means the server's -request-timeout
	// (none when that is unset); the server timeout also caps an
	// explicit value. TimeoutMs never affects the hit list, so it is
	// not part of the cache key.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// StreamRequest is one NDJSON line of a POST /search/stream body: a
// SearchRequest plus the client's reassembly tag and the bulk mode.
// Results stream back as they complete — out of order — so ID is how
// the client matches answers to questions.
type StreamRequest struct {
	// ID tags this line's result; echoed verbatim (capped at
	// MaxStreamIDLen). Optional but strongly recommended: without it
	// an out-of-order stream is unmatchable.
	ID string `json:"id,omitempty"`
	// Mode selects the bulk treatment: "" serves the line exactly like
	// a single POST /search, "all_vs_all" forces an exhaustive scan
	// and coalesces the stream's whole in-flight window into shared
	// sharded passes (every target block scored against all resident
	// queries while its residues are hot) — the clustering stress
	// case. Results are bit-identical either way; only the schedule
	// changes.
	Mode string `json:"mode,omitempty"`
	SearchRequest
}

// StreamModeAllVsAll is the StreamRequest.Mode spelling of the
// coalesced bulk mode.
const StreamModeAllVsAll = "all_vs_all"

// StreamResult is one decoded NDJSON line of a /search/stream
// response. Exactly one of three kinds arrives per line:
//
//   - a result line: the embedded SearchResponse fields are set (the
//     hits bit-identical to a single POST /search of the same
//     request), Error empty, Terminal false;
//   - an error line: Error holds a sentinel code (the same Err* table
//     as single POSTs), the stream stays alive, Terminal false;
//   - the terminal line, exactly once, last: Terminal true, with the
//     stream's line accounting; Error is empty on a clean EOF or a
//     terminal sentinel (draining, client_stall, client_gone) when
//     the server ended the stream early.
//
// The server writes result and error lines with only their own kind's
// fields; this merged struct is the client-side decode target
// (cmd/seqclient and the tests use it).
type StreamResult struct {
	ID string `json:"id,omitempty"`
	SearchResponse
	Error    string `json:"error,omitempty"`
	Detail   string `json:"detail,omitempty"`
	Terminal bool   `json:"terminal,omitempty"`
	Lines    int64  `json:"lines,omitempty"`   // terminal: request lines decoded
	Results  int64  `json:"results,omitempty"` // terminal: result lines written
	Errors   int64  `json:"errors,omitempty"`  // terminal: error lines written
	// RequestID appears on error lines only: the line's trace ID
	// (connection trace ID + "#" + line number), the handle for
	// /debug/traces. Result lines stay free of it so a streamed answer
	// is byte-comparable to the equivalent single POST.
	RequestID string `json:"request_id,omitempty"`
}

// streamErrLine is the wire form of a per-line error: the sentinel
// and detail alone, none of the zeroed search fields.
type streamErrLine struct {
	ID        string `json:"id,omitempty"`
	Error     string `json:"error"`
	Detail    string `json:"detail,omitempty"`
	RequestID string `json:"request_id,omitempty"`
}

// streamEndLine is the wire form of the terminal line.
type streamEndLine struct {
	Terminal bool   `json:"terminal"`
	Error    string `json:"error,omitempty"`
	Detail   string `json:"detail,omitempty"`
	Lines    int64  `json:"lines"`
	Results  int64  `json:"results"`
	Errors   int64  `json:"errors"`
}

// Hit is one reported database hit, the wire form of align.Hit. It
// round-trips through JSON without loss (api_test.go pins that).
type Hit struct {
	Index int    `json:"index"` // database sequence position
	ID    string `json:"id"`
	Desc  string `json:"desc,omitempty"`
	Len   int    `json:"len"`
	Score int    `json:"score"`
}

// SearchResponse is the POST /search success body. Hits is always
// present (possibly empty) and bit-identical for identical requests;
// Cached and TookUs are the only fields that vary between a computed
// and a cache- or flight-served response.
type SearchResponse struct {
	QueryLen   int    `json:"query_len"`
	Kernel     string `json:"kernel"`
	K          int    `json:"k"`
	Exhaustive bool   `json:"exhaustive"`
	Cached     bool   `json:"cached"`
	Hits       []Hit  `json:"hits"`
	TookUs     int64  `json:"took_us"`
	// SnapshotVersion is the version label of the snapshot epoch that
	// answered — the field rolling-reload choreography watches to see a
	// fleet converge. Empty (and omitted) when the server's data was
	// loaded outside a snapshot, so unversioned responses are
	// byte-identical to the pre-snapshot wire format.
	SnapshotVersion string `json:"snapshot_version,omitempty"`
}

// ErrorResponse is the body of every non-2xx /search reply: a stable
// sentinel code machines can switch on plus a human-readable detail.
// Client errors are always 4xx with one of the Err* codes — the
// handler has no 500 path for bad input.
type ErrorResponse struct {
	Error  string `json:"error"`
	Detail string `json:"detail"`
	// RequestID is the request's trace ID (also echoed in the
	// X-Request-Id response header): the handle for looking the failure
	// up in /debug/traces and the server's structured logs.
	RequestID string `json:"request_id,omitempty"`
}

// The sentinel error codes of ErrorResponse.Error, in the spirit of
// the trace/index packages' sentinel errors: stable identifiers a
// client can match without parsing prose.
const (
	ErrBadRequest    = "bad_request"    // malformed or oversized JSON body
	ErrEmptyQuery    = "empty_query"    // query is empty
	ErrQueryTooLong  = "query_too_long" // query exceeds MaxQueryLen
	ErrBadResidue    = "bad_residue"    // query has a non-protein letter
	ErrUnknownKernel = "unknown_kernel" // kernel not in align.KernelNames
	ErrBadK          = "k_out_of_range" // k outside [1, MaxTopK]
	ErrBadCandidates = "bad_candidates" // max_candidates negative
	ErrBadMinScore   = "bad_min_score"  // min_score negative
	ErrBadTimeout    = "bad_timeout"    // timeout_ms negative
	ErrBadMode       = "bad_mode"       // stream mode not "" or all_vs_all
	ErrBadID         = "bad_id"         // stream line id exceeds MaxStreamIDLen
	ErrBadMethod     = "method_not_allowed"

	// The resilience sentinels (DESIGN.md "Resilience"): unlike the
	// 400 family these describe the server's state, not the request's.
	ErrDeadline   = "deadline_exceeded" // 408: per-request deadline hit
	ErrClientGone = "client_gone"       // 408: client disconnected mid-request
	ErrOverloaded = "overloaded"        // 429: admission queue full, request shed
	ErrDraining   = "draining"          // 503: server is shutting down
	ErrInternal   = "internal"          // 500: a scoring panic was isolated to this request

	// ErrClientStall is stream-only: the client stopped feeding (or
	// reading) the stream past Config.StreamStallTimeout, so the
	// server cut the connection off after flushing what had completed.
	// It appears on the terminal NDJSON line, never as an HTTP status.
	ErrClientStall = "client_stall"
)

// APIError is the one sentinel-coded error of the serving contract: a
// stable Code (one of the Err* constants, or a Backend's own) with its
// human-readable Detail and the HTTP Status a single POST answers
// with. The Frontend renders it as an ErrorResponse body, a stream
// error line, or the terminal line's error; Backends return it.
// RetryAfter > 0 adds a Retry-After header — shed responses tell the
// client when the queue is worth another try. Deliberately not an
// `error`: it travels as *APIError so a nil one stays nil.
type APIError struct {
	Status     int
	Code       string
	Detail     string
	RetryAfter int // seconds; 0 omits the header
}

func badRequest(code, format string, args ...any) *APIError {
	return &APIError{Status: http.StatusBadRequest, Code: code, Detail: fmt.Sprintf(format, args...)}
}

// The resilience errors, shared by the front-end and the pipeline.
var (
	errDeadline   = &APIError{Status: http.StatusRequestTimeout, Code: ErrDeadline, Detail: "request deadline exceeded before the search completed"}
	errClientGone = &APIError{Status: http.StatusRequestTimeout, Code: ErrClientGone, Detail: "client disconnected before the search completed"}
	errOverloaded = &APIError{Status: http.StatusTooManyRequests, Code: ErrOverloaded, Detail: "admission queue is full; retry after backoff", RetryAfter: 1}
	errDraining   = &APIError{Status: http.StatusServiceUnavailable, Code: ErrDraining, Detail: "server is draining for shutdown"}
	errInternal   = &APIError{Status: http.StatusInternalServerError, Code: ErrInternal, Detail: "scoring failed for this request; the failure was isolated and the server is healthy"}
)

// CtxError maps a dead request context to its sentinel: a deadline
// that fired is deadline_exceeded, anything else means the client went
// away.
func CtxError(ctx context.Context) *APIError {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return errDeadline
	}
	return errClientGone
}

// Request-size limits. Generous for real proteins (titin is ~35k
// residues) while keeping a single request from occupying the pipeline
// indefinitely.
const (
	MaxQueryLen  = 100_000
	MaxTopK      = 1_000
	DefaultTopK  = 10
	maxBodyBytes = 1 << 20

	// MaxStreamIDLen caps a stream line's client tag: long enough for
	// any sane reassembly scheme, short enough that echoing it back
	// cannot be used to balloon response lines.
	MaxStreamIDLen = 256
	// maxStreamLineBytes caps one NDJSON request line — the same
	// budget as a whole single-POST body, since a line carries the
	// same payload. An oversized line is consumed and answered with a
	// per-line error; the stream lives on.
	maxStreamLineBytes = maxBodyBytes
)

// normalized is a validated SearchRequest with every default applied,
// the form the cache key and the job are built from — two requests
// that normalize identically share a cache entry. timeout_ms is not in
// it: a deadline changes whether an answer arrives, never what it is
// (the front-end arms it).
type normalized struct {
	residues   []uint8
	kernel     align.Kernel
	topK       int
	maxCand    int
	exhaustive bool
	minScore   int
	// coalesce marks an all_vs_all stream job: the dispatcher may
	// batch it past MaxBatch so the whole stream window shares one
	// scan's group units. Scheduling only — results are unchanged, so
	// it stays out of the cache key.
	coalesce bool
}

// validate checks req against the server's limits and resolves
// defaults against the pinned epoch — the caller pins ep before
// validating and holds the pin through scoring, so the database the
// clamps were computed from is the database the job scans. Every
// failure maps to a 400 with a sentinel code; a nil error means the
// request is serviceable as returned.
func (s *Server) validate(ep *epoch, req *SearchRequest) (normalized, *APIError) {
	var n normalized
	if len(req.Query) == 0 {
		return n, badRequest(ErrEmptyQuery, "query is empty")
	}
	if len(req.Query) > MaxQueryLen {
		return n, badRequest(ErrQueryTooLong, "query is %d residues, limit %d", len(req.Query), MaxQueryLen)
	}
	for i := 0; i < len(req.Query); i++ {
		if !bio.ValidLetter(req.Query[i]) {
			return n, badRequest(ErrBadResidue, "query position %d: %q is not a protein residue", i, string(req.Query[i]))
		}
	}
	n.residues = bio.Encode(req.Query)

	n.kernel = s.kernel
	if req.Kernel != "" {
		k, err := align.KernelByName(req.Kernel)
		if err != nil {
			return n, badRequest(ErrUnknownKernel, "unknown kernel %q (valid: %s)", req.Kernel, strings.Join(align.KernelNames(), ", "))
		}
		n.kernel = k
	}

	n.topK = req.K
	if n.topK == 0 {
		n.topK = DefaultTopK
	}
	if n.topK < 1 || n.topK > MaxTopK {
		return n, badRequest(ErrBadK, "k %d outside [1, %d]", req.K, MaxTopK)
	}

	// Without an index every scan is exhaustive, and a degraded epoch
	// (index failed validation at load or a lookup error surfaced
	// mid-flight) stops trusting its index the same way; normalizing
	// here means the two spellings of the same scan share a cache entry.
	n.exhaustive = req.Exhaustive || ep.searchers == nil || ep.degraded.Load()

	if req.MaxCandidates < 0 {
		return n, badRequest(ErrBadCandidates, "max_candidates %d is negative", req.MaxCandidates)
	}
	// Normalize max_candidates all the way so every equivalent
	// spelling shares one cache/single-flight key: it is meaningless
	// on the exhaustive path (zeroed), 0 means the index default, and
	// anything past the database size degrades to the same full
	// candidate set (clamped).
	n.maxCand = req.MaxCandidates
	if n.exhaustive {
		n.maxCand = 0
	} else {
		if n.maxCand == 0 {
			n.maxCand = index.DefaultMaxCandidates
		}
		if n.maxCand > ep.db.NumSeqs() {
			n.maxCand = ep.db.NumSeqs()
		}
	}

	if req.MinScore < 0 {
		return n, badRequest(ErrBadMinScore, "min_score %d is negative", req.MinScore)
	}
	n.minScore = req.MinScore
	if n.minScore == 0 {
		n.minScore = 1
	}

	if req.TimeoutMs < 0 {
		return n, badRequest(ErrBadTimeout, "timeout_ms %d is negative", req.TimeoutMs)
	}
	return n, nil
}

// CheckLine validates a stream line's envelope — the client tag and the
// bulk mode — the same way for every Backend, and reports whether the
// line asked for all_vs_all (which every Backend serves as an
// exhaustive scan).
func CheckLine(id, mode string) (allVsAll bool, err *APIError) {
	if len(id) > MaxStreamIDLen {
		return false, badRequest(ErrBadID, "id is %d bytes, limit %d", len(id), MaxStreamIDLen)
	}
	switch mode {
	case "":
		return false, nil
	case StreamModeAllVsAll:
		return true, nil
	}
	return false, badRequest(ErrBadMode, "unknown mode %q (valid: %q)", mode, StreamModeAllVsAll)
}

// validateStream is validate for one decoded stream line (a POST is the
// line with no envelope): the same checks and defaults, plus CheckLine.
// all_vs_all is normalized as "exhaustive, coalescible" BEFORE the
// shared validation so it lands on the same cache key as an explicit
// exhaustive POST of the same query — the results are identical.
func (s *Server) validateStream(ep *epoch, req *StreamRequest) (normalized, *APIError) {
	allVsAll, aerr := CheckLine(req.ID, req.Mode)
	if aerr != nil {
		return normalized{}, aerr
	}
	req.Exhaustive = req.Exhaustive || allVsAll
	n, aerr := s.validate(ep, &req.SearchRequest)
	n.coalesce = allVsAll
	return n, aerr
}

// wireHits converts ranked align.Hits to their wire form.
func wireHits(hits []align.Hit) []Hit {
	out := make([]Hit, len(hits))
	for i, h := range hits {
		out[i] = Hit{Index: h.Index, ID: h.Seq.ID, Desc: h.Seq.Desc, Len: h.Seq.Len(), Score: h.Score}
	}
	return out
}
