package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/server"
)

// The load generator. It is the benchmark's own rather than
// internal/loadgen because it has to keep every response for the
// oracle, hold itself to nproc connections, and stay the same yardstick
// when a later change edits loadgen.

// requestTimeout bounds one round trip; a request past it is a failure.
const requestTimeout = 30 * time.Second

// exchange is one request the client made and what came back. Times
// are offsets from the phase start.
type exchange struct {
	req   server.SearchRequest
	hot   int // hot-corpus index, -1 for a new family query
	due   time.Duration
	sent  time.Duration
	first time.Duration // first response byte; traced runs only
	done  time.Duration

	status int    // 0: no HTTP response
	err    string // transport error or stream error line
	body   []byte // POST: the response body; stream: the result line
}

// latency is what the user waited: from when the request was due.
func (e *exchange) latency() time.Duration { return e.done - e.due }

// ok reports a 200 answer with no transport or per-line error.
func (e *exchange) ok() bool { return e.status == http.StatusOK && e.err == "" }

// phase is one timed window of client traffic.
type phase struct {
	ex      []exchange
	elapsed time.Duration // start to last completion
	cpu     time.Duration // process user+sys over the window, client included
}

type client struct {
	http  *http.Client
	url   string
	conns int
	tr    *tracer // nil: record no spans
	label string  // prefix of the span query ids
}

// newClient makes a client limited to conns keep-alive connections.
func newClient(url string, conns int, tr *tracer) *client {
	return &client{
		http: &http.Client{
			Timeout: requestTimeout,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
		url: url, conns: conns, tr: tr,
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// post sends one POST /search and fills in e's outcome. t0 is the
// phase start. Nothing cancels a request; requestTimeout bounds it.
func (c *client) post(t0 time.Time, e *exchange) {
	body, err := json.Marshal(&e.req)
	if err != nil {
		e.err = err.Error()
		return
	}
	hr, err := http.NewRequest(http.MethodPost, c.url+"/search", bytes.NewReader(body))
	if err != nil {
		e.err = err.Error()
		return
	}
	var first time.Time
	if c.tr != nil {
		hr = hr.WithContext(httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
			GotFirstResponseByte: func() { first = time.Now() },
		}))
	}
	hr.Header.Set("Content-Type", "application/json")
	e.sent = time.Since(t0)
	resp, err := c.http.Do(hr)
	if err != nil {
		e.done = time.Since(t0)
		e.err = err.Error()
		return
	}
	e.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	e.done = time.Since(t0)
	e.status = resp.StatusCode
	if err != nil {
		e.status, e.err = 0, err.Error()
	}
	if !first.IsZero() {
		e.first = first.Sub(t0)
	}
}

// record writes e's spans: the request as the user saw it (due to
// done), the wait before it could be sent, and the exchange itself
// with its time to first byte.
func (c *client) record(i int, t0 time.Time, e *exchange) {
	if c.tr == nil {
		return
	}
	qid := c.label + "/" + strconv.Itoa(i)
	at := func(d time.Duration) time.Time { return t0.Add(d) }
	root := c.tr.add(0, qid, "client.request", at(e.due), at(e.done))
	c.tr.add(root, qid, "client.late", at(e.due), at(e.sent))
	x := c.tr.add(root, qid, "client.exchange", at(e.sent), at(e.done))
	if e.first > 0 {
		c.tr.add(x, qid, "client.first_byte", at(e.sent), at(e.first))
	}
}

// run drives POST traffic for dur and waits for every request it
// issued. gen names request i; rate > 0 makes the loop open — request
// i is due at i/rate whatever the server does, and is timed from then —
// while rate 0 is a closed loop of c.conns callers, each sending its
// next request when its last one returns. Either way at most c.conns
// requests are in flight: an open-loop arrival that finds every
// connection busy waits for one, and that wait is in its latency.
func (c *client) run(dur time.Duration, rate float64, gen func(i int) (server.SearchRequest, int)) phase {
	var (
		next atomic.Int64
		mu   sync.Mutex
		out  []exchange
		wg   sync.WaitGroup
	)
	cpu0, t0 := processCPU(), time.Now()
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []exchange
			for {
				i := int(next.Add(1) - 1)
				var e exchange
				if rate > 0 {
					e.due = time.Duration(float64(i) / rate * float64(time.Second))
					if e.due >= dur {
						sleepUntil(t0.Add(dur)) // the window lasts dur even when its last arrival is answered early
						break
					}
					sleepUntil(t0.Add(e.due))
				} else {
					if e.due = time.Since(t0); e.due >= dur {
						break
					}
				}
				e.req, e.hot = gen(i)
				c.post(t0, &e)
				c.record(i, t0, &e)
				mine = append(mine, e)
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	ph := phase{ex: out, elapsed: time.Since(t0), cpu: processCPU() - cpu0}
	sort.Slice(ph.ex, func(a, b int) bool { return ph.ex[a].due < ph.ex[b].due })
	return ph
}

// timerSlack is how late this machine's timers fire: the median
// overshoot of a few short sleeps plus a quarter, measured once. On a
// kernel without high-resolution timers it is a whole tick (about a
// millisecond here), ten times a cache hit. The median, not the worst:
// one descheduled sleep must not double every later spin, and with it
// cpu_ms_per_req.
var timerSlack = sync.OnceValue(func() time.Duration {
	const nap = 50 * time.Microsecond
	over := make([]time.Duration, 15)
	for i := range over {
		t := time.Now()
		time.Sleep(nap)
		over[i] = time.Since(t) - nap
	}
	sort.Slice(over, func(a, b int) bool { return over[a] < over[b] })
	return over[len(over)/2]*5/4 + nap
})

// sleepUntil sleeps to timerSlack short of t and spins the rest,
// yielding on every turn so that runnable server goroutines go first.
// The spin is the price of arrivals that are on time to within
// microseconds; it is client work and is counted in cpu_ms_per_req.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - timerSlack(); d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// stream drives one POST /search/stream connection, keeping at most
// outstanding lines unanswered. next names line i given the time since
// the stream began and says whether to send it; the first false ends
// the request body, after which stream reads to the terminal line.
// Each line is timed from when it was written to when its result line
// was read.
func (c *client) stream(mode string, outstanding int, next func(i int, elapsed time.Duration) (string, bool)) (phase, error) {
	pr, pw := io.Pipe()
	hr, err := http.NewRequest(http.MethodPost, c.url+"/search/stream", pr)
	if err != nil {
		return phase{}, err
	}
	hr.Header.Set("Content-Type", "application/x-ndjson")
	var (
		mu      sync.Mutex
		ex      []exchange
		slots   = make(chan struct{}, outstanding) // one token per unanswered line
		stopped = make(chan struct{})              // the reader gave up; unblocks the writer
	)
	cpu0, t0 := processCPU(), time.Now()
	writerDone := make(chan error, 1)
	go func() {
		defer pw.Close()
		bw := bufio.NewWriter(pw)
		for i := 0; ; i++ {
			select {
			case slots <- struct{}{}:
			case <-stopped:
				writerDone <- nil
				return
			}
			req := server.StreamRequest{ID: strconv.Itoa(i), Mode: mode}
			var more bool
			if req.Query, more = next(i, time.Since(t0)); !more {
				writerDone <- nil
				return
			}
			b, err := json.Marshal(&req)
			if err != nil {
				writerDone <- err
				return
			}
			e := exchange{req: req.SearchRequest, hot: -1, due: time.Since(t0)}
			// all_vs_all normalizes to an exhaustive scan; the oracle reads the flag.
			e.req.Exhaustive = mode == server.StreamModeAllVsAll
			e.sent = e.due
			mu.Lock()
			ex = append(ex, e)
			mu.Unlock()
			bw.Write(b)
			bw.WriteByte('\n')
			if err := bw.Flush(); err != nil {
				writerDone <- fmt.Errorf("writing stream line %d: %w", i, err)
				return
			}
		}
	}()

	// The stream outlives requestTimeout by design, so it gets a client
	// without one; the transport, and so the connection limit, is shared.
	resp, err := (&http.Client{Transport: c.http.Transport}).Do(hr)
	if err != nil {
		close(stopped)
		pr.CloseWithError(err)
		<-writerDone
		return phase{}, fmt.Errorf("opening stream: %w", err)
	}
	defer resp.Body.Close()
	var terminal *server.StreamResult
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		now := time.Since(t0)
		var res server.StreamResult
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			break
		}
		if res.Terminal {
			terminal = &res
			break
		}
		i, err := strconv.Atoi(res.ID)
		mu.Lock()
		if err == nil && i >= 0 && i < len(ex) && ex[i].done == 0 {
			e := &ex[i]
			e.done = now
			e.body = append([]byte(nil), sc.Bytes()...)
			e.status = http.StatusOK
			e.err = res.Error
			c.record(i, t0, e)
		}
		mu.Unlock()
		<-slots
	}
	close(stopped)
	pr.CloseWithError(io.ErrClosedPipe) // no-op after a clean end of body
	werr := <-writerDone
	ph := phase{ex: ex, elapsed: time.Since(t0), cpu: processCPU() - cpu0}
	for i := range ph.ex {
		if ph.ex[i].done == 0 {
			ph.ex[i].done = ph.elapsed
			ph.ex[i].err = "no result line"
		}
	}
	switch {
	case werr != nil:
		return ph, werr
	case terminal == nil:
		return ph, fmt.Errorf("stream ended without a terminal line: %v", sc.Err())
	case terminal.Error != "":
		return ph, fmt.Errorf("server ended the stream: %s", terminal.Error)
	}
	return ph, nil
}
