package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
)

// The streaming bulk-query path. POST /search/stream reads NDJSON
// request lines (StreamRequest) from one connection and writes NDJSON
// result lines back as they complete — out of order, tagged with the
// client's id — so a bulk client ships thousands of queries at the
// batch pipeline's rate instead of one HTTP round trip each. Four
// roles share the connection:
//
//	pump    — reads lines, claims a window slot, decodes, has the
//	          Backend Prepare (validate) the query, and spawns one
//	          waiter per query;
//	waiters — one goroutine per in-flight query: each runs the
//	          Backend's Search (the local pipeline with BLOCKING
//	          admission, or the router's scatter-gather) and hands
//	          the finished line to the writer;
//	writer  — owns the ResponseWriter: encodes lines, releases the
//	          window slot a line held, and flushes when the pipeline
//	          goes idle (or on the supervisor's tick), so a flood of
//	          small results coalesces into few syscalls;
//	handler — the supervising goroutine: watches for drain and stall
//	          cutoffs on a coarse tick, settles every in-flight line,
//	          and writes the one terminal line.
//
// Flow control is the slot channel: Config.StreamWindow slots bound
// how many lines are read but not yet written back. A full window
// pauses the PUMP — per-connection backpressure — instead of
// 429-shedding mid-stream, and because slots are released only after
// the result line is written, a client that stops reading freezes its
// own stream at a bounded memory footprint. (The Server's admission
// gate is still consulted per query — blocking, not shedding — so
// streams and single POSTs compete for the same bounded pipeline.)
//
// The pump reads with NO deadline. This is deliberate: net/http
// cancels the whole request context when any connection read fails,
// including an expired poll deadline, which would kill every waiter
// mid-search with a spurious client_gone. Instead the handler watches
// drain and stall on its own ticker and ends the stream from outside;
// the pump's blocked read then resolves when the handler returns and
// the server closes the body.
//
// Failure is per line: malformed JSON, unknown fields, trailing data,
// oversized lines, and every Prepare or Search error produce an error
// line with the same sentinel codes as single POSTs and the stream
// lives on (an undecodable line's answer carries no id). The
// stream itself ends with exactly one terminal line: clean EOF, or a
// terminal sentinel — draining (BeginDrain mid-stream), client_stall
// (the connection idled past Config.StreamStallTimeout, injected or
// real), client_gone (the peer vanished) — after flushing every
// result that completed.

// errLineTooLong is lineReader's sentinel for an oversized request
// line; the line is fully consumed, so the stream can continue.
var errLineTooLong = errors.New("stream: line exceeds the per-line budget")

// streamDrainPoll is the handler's supervision tick: BeginDrain and
// the stall cutoff are noticed within one tick.
const streamDrainPoll = 250 * time.Millisecond

// lineReader pulls newline-delimited lines out of a request body with
// a hard per-line budget: an oversized line is consumed to its newline
// and reported as errLineTooLong, not a stream-fatal error.
type lineReader struct {
	br       *bufio.Reader
	buf      []byte
	over     bool // discarding the remainder of an oversized line
	complete bool // buf holds a returned line; reset on next call
	sawEOF   bool
}

// next returns the next complete line without its newline. Errors:
// errLineTooLong (line over budget, fully consumed — recoverable),
// io.EOF (clean end), transport errors (pass through).
func (lr *lineReader) next() ([]byte, error) {
	if lr.complete {
		lr.buf = lr.buf[:0]
		lr.complete = false
	}
	if lr.sawEOF {
		return nil, io.EOF
	}
	for {
		frag, err := lr.br.ReadSlice('\n')
		if !lr.over {
			lr.buf = append(lr.buf, frag...)
		}
		switch {
		case err == nil: // frag ended the line (trailing '\n' included)
			if lr.over || len(lr.buf)-1 > maxStreamLineBytes {
				lr.over = false
				lr.buf = lr.buf[:0]
				return nil, errLineTooLong
			}
			lr.complete = true
			return bytes.TrimSuffix(lr.buf[:len(lr.buf)-1], []byte{'\r'}), nil
		case err == bufio.ErrBufferFull:
			if !lr.over && len(lr.buf) > maxStreamLineBytes {
				lr.over = true // stop accumulating; discard to the newline
				lr.buf = lr.buf[:0]
			}
		case err == io.EOF:
			lr.sawEOF = true
			if lr.over || len(lr.buf) > maxStreamLineBytes {
				lr.over = false
				lr.buf = lr.buf[:0]
				return nil, errLineTooLong
			}
			if len(lr.buf) > 0 {
				// A final line without a trailing newline is a line.
				lr.complete = true
				return bytes.TrimSuffix(lr.buf, []byte{'\r'}), nil
			}
			return nil, io.EOF
		default:
			return nil, err
		}
	}
}

// outLine is one result or error line queued for the writer, carrying
// its trace so the writer — the last goroutine to touch the line — can
// record the write span and publish. The hand-off through the out
// channel is the ownership transfer: the producer stops touching the
// trace once it sends. A nil *outLine in the queue is the supervisor's
// liveness tick: it asks the writer for a flush and holds no window
// slot.
type outLine struct {
	v       any // the Backend's result line or a *streamErrLine
	tr      *obs.Trace
	outcome string
	handoff time.Time // when the producer queued the line
}

// stream is one /search/stream connection's shared state.
type stream struct {
	lines    atomic.Int64 // request lines decoded
	results  atomic.Int64 // result lines handed to the writer
	errs     atomic.Int64 // error lines handed to the writer
	lastLine atomic.Int64 // UnixNano of the last line (or stream start)
}

func (f *Frontend) handleStream(w http.ResponseWriter, r *http.Request) {
	// The connection gets a trace of its own; each decoded line then
	// gets a per-line trace whose ID is "<connection id>#<line no>", so
	// one /debug/traces?id= prefix query surfaces a whole stream.
	tr, ok := f.open(w, r, "stream", "use POST with an NDJSON body")
	if !ok {
		return
	}
	connID := tr.ID

	f.streamsTotal.Add(1)
	f.streamsOpen.Add(1)
	defer f.streamsOpen.Add(-1)

	// HTTP/1.x is half-duplex by default: the server closes the request
	// body as soon as the handler writes. Streaming is exactly the
	// read-while-writing case, so opt in (a best-effort call: transports
	// that don't support the switch, like test recorders, serve the
	// whole body up front anyway).
	ctl := http.NewResponseController(w)
	_ = ctl.EnableFullDuplex()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	_ = ctl.Flush() // commit headers so the client can start its reader

	stall := f.cfg.StreamStallTimeout
	st := &stream{}
	st.lastLine.Store(time.Now().UnixNano())
	slots := make(chan struct{}, f.cfg.StreamWindow) // held from read to written line
	out := make(chan *outLine, f.cfg.StreamWindow)   // finished lines awaiting the writer
	stopCh := make(chan struct{})                    // closed when the handler ends the stream
	writerDone := make(chan struct{})
	pumpDone := make(chan struct{})
	pumpEnd := (*APIError)(nil) // pump's verdict; read after <-pumpDone
	var writeFailed atomic.Bool
	var mu sync.Mutex // guards stopped against late claims
	stopped := false
	var wg sync.WaitGroup // one count per claimed, unwritten line

	go func() {
		defer close(writerDone)
		enc := json.NewEncoder(w)
		var lastArm time.Time // write deadline re-armed at stall/8 granularity
		for ol := range out {
			if ol == nil { // liveness tick
				if !writeFailed.Load() {
					_ = ctl.Flush()
				}
				continue
			}
			if !writeFailed.Load() {
				// Arming a write deadline is a syscall; at thousands of
				// tiny lines per second it would rival the encode itself.
				// Re-arm at stall/8 granularity instead: every write still
				// starts with at least 7/8 of the stall budget.
				if stall > 0 && time.Since(lastArm) > stall/8 {
					lastArm = time.Now()
					_ = ctl.SetWriteDeadline(lastArm.Add(stall))
				}
				if err := enc.Encode(ol.v); err != nil {
					// The connection is gone (or stalled past the write
					// budget): keep draining so waiters finish and slots
					// free, but stop touching the wire.
					writeFailed.Store(true)
				} else {
					// A delivered line is proof of life: a client
					// draining slow results is not stalled, even if it
					// has nothing new to feed.
					st.lastLine.Store(time.Now().UnixNano())
				}
			}
			// The writer is the line's last owner: record how long the
			// line waited from hand-off to the wire, then publish.
			ol.tr.SpanSince(obs.StageWrite, ol.handoff)
			f.finishTrace(ol.tr, ol.outcome)
			f.streamInFlight.Add(-1)
			<-slots
			// Flush only when the whole pipeline is idle — nothing queued
			// behind this line and no query still holding a slot. Under a
			// bulk flood that batches thousands of tiny result lines into
			// few wire writes (the syscall per line would otherwise rival
			// the alignment itself); the moment the stream goes quiet the
			// last line is flushed immediately, and mid-flood liveness is
			// the supervisor's liveness tick. The racy len() reads are safe:
			// a misread only defers the flush to the next line or tick.
			if !writeFailed.Load() && len(out) == 0 && len(slots) == 0 {
				_ = ctl.Flush()
			}
		}
	}()

	// claim reserves the right to emit one line: a window slot plus a
	// WaitGroup count, refused once the handler has ended the stream.
	// Every line sent to the writer — result or error — holds exactly
	// one claim from read until the writer retires it, so the slot
	// arithmetic is uniform, and wg.Wait() below settles every line
	// before out closes. A full window parks the pump HERE: that pause
	// is the per-connection backpressure. Claiming before Prepare means
	// a prepared query always reaches Search, which releases its pins.
	claim := func() bool {
		select {
		case slots <- struct{}{}:
		case <-stopCh:
			return false
		}
		mu.Lock()
		if stopped {
			mu.Unlock()
			<-slots // undo: nothing will be emitted for this claim
			return false
		}
		wg.Add(1)
		mu.Unlock()
		f.streamInFlight.Add(1)
		return true
	}
	emitErr := func(id string, aerr *APIError, ltr *obs.Trace) { // consumes one claim
		st.errs.Add(1)
		f.streamErrors.Add(1)
		if aerr.Code == ErrDeadline {
			f.timeouts.Add(1)
		}
		if len(id) > MaxStreamIDLen {
			id = "" // the cap exists so an echoed tag cannot balloon a line
		}
		line := &streamErrLine{ID: id, Error: aerr.Code, Detail: aerr.Detail, RequestID: ltr.ID}
		out <- &outLine{v: line, tr: ltr, outcome: aerr.Code, handoff: time.Now()}
		wg.Done()
	}

	go func() { // the pump
		defer close(pumpDone)
		lr := &lineReader{br: bufio.NewReaderSize(r.Body, 64<<10)}
		for {
			// client.stall fault site: the injected delay is the CLIENT
			// going quiet mid-stream. The pump just sleeps — not
			// touching lastLine — so the handler's idle accounting sees
			// a real stall and cuts the stream off with the completed
			// results flushed.
			if d := f.cfg.Faults.Delay(faults.ClientStall); d > 0 {
				faults.Sleep(r.Context(), d)
			}
			line, err := lr.next()
			switch {
			case err == nil && len(bytes.TrimSpace(line)) == 0:
				// Blank lines are NDJSON keep-alives: they reset the
				// stall budget without being request lines.
				st.lastLine.Store(time.Now().UnixNano())
				continue
			case err == nil || errors.Is(err, errLineTooLong):
				// a request line: fall through to answer it below
			case errors.Is(err, io.EOF):
				return // clean end: the client sent everything
			default:
				// A dead connection — or the handler already returned
				// and closed the body under us; the verdict is only
				// read when the pump ends the stream, so the confusion
				// is harmless.
				pumpEnd = errClientGone
				return
			}
			lineNo := st.lines.Add(1)
			st.lastLine.Store(time.Now().UnixNano())
			f.streamLines.Add(1)
			if !claim() {
				return
			}

			// The per-line trace starts at decode: its span sequence is
			// decode -> (the backend's stages inside search) -> search
			// -> write, the stream analogue of the POST path.
			ltr := obs.StartTrace(fmt.Sprintf("%s#%d", connID, lineNo))
			ltr.Path = "stream_line"
			if err != nil {
				emitErr("", badRequest(ErrBadRequest, "request line exceeds %d bytes", maxStreamLineBytes), ltr)
				continue
			}
			q := f.b.NewQuery(true)
			if derr := decodeStrict(line, q.Target()); derr != nil {
				emitErr("", badRequest(ErrBadRequest, "decoding line %d: %v", lineNo, derr), ltr)
				continue
			}
			id, timeoutMs, aerr := q.Prepare(ltr)
			ltr.SpanSince(obs.StageDecode, ltr.Start)
			if aerr != nil {
				emitErr(id, aerr, ltr)
				continue
			}
			f.requests.Add(1)

			go func() { // the waiter owns the claim
				start := time.Now()
				f.inFlight.Add(1)
				defer f.inFlight.Add(-1)
				ctx, cancel := f.deadline(r.Context(), timeoutMs)
				defer cancel()
				resp, aerr := q.Search(ctx, ltr)
				if aerr != nil {
					emitErr(id, aerr, ltr)
					return
				}
				f.totalH.Observe(time.Since(start))
				ltr.SpanSince(obs.StageSearch, start)
				st.results.Add(1)
				f.streamResults.Add(1)
				out <- &outLine{v: resp, tr: ltr, outcome: okOutcome(ltr), handoff: time.Now()}
				wg.Done()
			}()
		}
	}()

	// Supervision: the pump ending (EOF or a dead peer) ends the
	// stream, and so do the two conditions the pump cannot see from
	// inside a blocked read — BeginDrain, and a client idle past the
	// stall budget.
	end := (*APIError)(nil) // nil: clean EOF
	ticker := time.NewTicker(streamDrainPoll)
	defer ticker.Stop()
supervising:
	for {
		select {
		case <-pumpDone:
			end = pumpEnd
			break supervising
		case <-ticker.C:
			if f.draining.Load() {
				end = errDraining
				break supervising
			}
			if stall > 0 && time.Since(time.Unix(0, st.lastLine.Load())) > stall {
				end = &APIError{Code: ErrClientStall,
					Detail: "client stalled past the stream stall timeout; stream cut off"}
				break supervising
			}
			// Liveness: results the writer batched for throughput reach
			// the client within one tick even while slower queries keep
			// the pipeline busy. Non-blocking — a full queue means the
			// writer has plenty to do and will flush on its own.
			select {
			case out <- nil:
			default:
			}
		}
	}

	// Settle, in strict order: no new claims, every claimed line
	// resolved (a waiter finishes with its result, or with the
	// draining/deadline error its search failed with), the writer
	// retires every queued line, and only then the one terminal line.
	// Partial results are flushed no matter how the stream ended.
	mu.Lock()
	stopped = true
	mu.Unlock()
	close(stopCh)
	wg.Wait()
	close(out)
	<-writerDone
	outcome := obs.OutcomeOK
	endLine := streamEndLine{
		Terminal: true,
		Lines:    st.lines.Load(),
		Results:  st.results.Load(),
		Errors:   st.errs.Load(),
	}
	if end != nil {
		outcome, endLine.Error, endLine.Detail = end.Code, end.Code, end.Detail
	}
	if !writeFailed.Load() {
		if stall > 0 {
			_ = ctl.SetWriteDeadline(time.Now().Add(stall))
		}
		_ = json.NewEncoder(w).Encode(&endLine)
		_ = ctl.Flush()
	}
	f.finishTrace(tr, outcome)
}
