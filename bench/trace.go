package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share qid; parent is the id of the span that caused this one, 0 for a
// root. Times are microseconds since the tracer was made.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	QID     string `json:"qid"`
	Name    string `json:"name"`
	StartUs int64  `json:"start_us"`
	EndUs   int64  `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per request.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	// Sized for a full hotmix window so appends do not reallocate mid-run.
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<15)}
}

// add records one span and returns its id for children to name.
func (t *tracer) add(parent int, qid, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, QID: qid, Name: name,
		StartUs: start.Sub(t.t0).Microseconds(), EndUs: end.Sub(t.t0).Microseconds(),
	})
	return id
}

// write dumps the spans and the run's per-layer metrics to path.
func (t *tracer) write(path string, workload string, metrics []metric) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating trace file: %w", err)
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string   `json:"workload"`
		Metrics  []metric `json:"metrics"`
		Spans    []span   `json:"spans"`
	}{workload, metrics, t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing trace file: %w", err)
	}
	return nil
}
