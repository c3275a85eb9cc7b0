//go:build !race

package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// endlessLines is the worst client's request body: distinct valid
// lines for as long as anyone reads.
type endlessLines struct {
	buf []byte
	n   int
}

func (e *endlessLines) Read(p []byte) (int, error) {
	if len(e.buf) == 0 {
		e.n++
		e.buf = fmt.Appendf(e.buf, `{"id":"%d","query":"ACDEFGHIKLMNPQRSTVWY"}`+"\n", e.n)
	}
	n := copy(p, e.buf)
	e.buf = e.buf[:copy(e.buf, e.buf[n:])]
	return n, nil
}

// gatedWriter is that client's read side: a ResponseWriter whose Write
// blocks until the test grants it a token, and which samples the
// flow-control invariant at every line it lets through.
type gatedWriter struct {
	f       *Frontend
	allow   chan struct{} // one token per result line let through
	written atomic.Int64  // completed line writes

	maxAhead    int64 // max over samples of lines decoded - lines written
	maxInFlight int64 // max over samples of window slots held
}

func (g *gatedWriter) Header() http.Header { return http.Header{} }
func (g *gatedWriter) WriteHeader(int)     {}
func (g *gatedWriter) Write(p []byte) (int, error) {
	<-g.allow
	g.written.Add(1)
	if ahead := g.f.streamLines.Value() - g.written.Load(); ahead > g.maxAhead {
		g.maxAhead = ahead
	}
	if inFlight := g.f.streamInFlight.Value(); inFlight > g.maxInFlight {
		g.maxInFlight = inFlight
	}
	return len(p), nil
}

// TestStreamBackpressureBoundsMemory is the flow-control invariant
// under the worst client: one that feeds queries forever and reads
// only when the test lets it. The window must pin the whole pipeline —
// lines decoded never more than StreamWindow (+1 for the line the pump
// holds at the gate) ahead of lines written, in flight never above
// StreamWindow, heap flat — instead of buffering results without
// bound. The engine is driven directly, no socket: nothing here depends
// on how much a kernel buffer absorbs. Excluded from -race builds: the
// race detector's allocation overhead makes the heap ceiling
// meaningless.
func TestStreamBackpressureBoundsMemory(t *testing.T) {
	const window = 4
	// 150 hits per answer: fat result lines, so unbounded buffering
	// would show on the heap within a few hundred lines.
	f := stubFrontend(&stubBackend{hits: 150}, Config{StreamWindow: window, StreamStallTimeout: -1})
	w := &gatedWriter{f: f, allow: make(chan struct{})}
	pr, pw := io.Pipe() // the pump's reads end when the test closes pw
	go func() { _, _ = io.Copy(pw, &endlessLines{}) }()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/search/stream", pr))
	}()

	// parked waits for the pump to run into the window: with `written`
	// lines let through it may decode exactly window+1 more, and then
	// must sit at the gate however long the writer stays blocked.
	parked := func() {
		t.Helper()
		want := w.written.Load() + window + 1
		for deadline := time.Now().Add(10 * time.Second); f.streamLines.Value() < want; {
			if time.Now().After(deadline) {
				t.Fatalf("pump decoded %d lines, never reached the window's edge at %d", f.streamLines.Value(), want)
			}
			runtime.Gosched()
		}
	}

	parked()
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	for i := 0; i < 2000; i++ {
		w.allow <- struct{}{}
	}
	parked()
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	if got, want := f.streamLines.Value(), w.written.Load()+window+1; got != want {
		t.Errorf("against a blocked writer the pump decoded %d lines with %d written, want it parked at exactly %d", got, w.written.Load(), want)
	}
	if got := f.streamInFlight.Value(); got != window {
		t.Errorf("in flight %d against a blocked writer, want the full window %d", got, window)
	}
	if grew := int64(after.HeapAlloc) - int64(base.HeapAlloc); grew > 4<<20 {
		t.Errorf("heap grew %d bytes over 2000 lines against a gated reader, want pinned (< 4MiB)", grew)
	}

	// End the stream: the body closes, every claimed line drains through
	// the now-open writer, and the terminal line follows.
	pw.Close()
	close(w.allow)
	<-done
	if w.maxAhead > window+1 {
		t.Errorf("lines decoded ran %d ahead of lines written, limit %d — flow control leaked", w.maxAhead, window+1)
	}
	if w.maxInFlight > window {
		t.Errorf("in-flight window reached %d, limit %d — flow control leaked", w.maxInFlight, window)
	}
}
