package obs

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"
)

func testRegistry() (*Registry, *Counter, *Gauge, *CounterVec, *Histogram) {
	r := NewRegistry()
	c := NewCounter()
	g := NewGauge()
	vec := NewCounterVec("kernel", "scalar", "swar")
	h := NewHistogram()
	r.RegisterCounter("test_requests_total", "Requests handled.", c)
	r.RegisterGauge("test_inflight", "Requests in flight.", g)
	r.RegisterGaugeFunc("test_uptime_seconds", "Uptime.", func() float64 { return 12.5 })
	r.RegisterCounterVec("test_kernel_requests_total", "Per-kernel requests.", vec)
	r.RegisterHistogram("test_latency_us", "Latency in microseconds.", h)
	return r, c, g, vec, h
}

func TestRegistryRenderParseRoundTrip(t *testing.T) {
	r, c, g, vec, h := testRegistry()
	c.Add(7)
	g.Set(3)
	vec.With("swar").Add(5)
	vec.With("unknown-kernel").Add(2) // lands in "other"
	h.ObserveUs(100)
	h.ObserveUs(2000)
	h.ObserveUs(2000)

	var buf strings.Builder
	if err := r.WriteText(&buf); err != nil {
		t.Fatalf("render: %v", err)
	}
	e, err := ParseExposition(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("rendered exposition does not parse:\n%s\nerr: %v", buf.String(), err)
	}

	if v, err := e.Value("test_requests_total"); err != nil || v != 7 {
		t.Fatalf("counter = %v, %v", v, err)
	}
	if v, err := e.Value("test_inflight"); err != nil || v != 3 {
		t.Fatalf("gauge = %v, %v", v, err)
	}
	if v, err := e.Value("test_uptime_seconds"); err != nil || v != 12.5 {
		t.Fatalf("gauge func = %v, %v", v, err)
	}
	if v, err := e.Value("test_kernel_requests_total", "kernel", "swar"); err != nil || v != 5 {
		t.Fatalf("vec[swar] = %v, %v", v, err)
	}
	if v, err := e.Value("test_kernel_requests_total", "kernel", "other"); err != nil || v != 2 {
		t.Fatalf("vec[other] = %v, %v", v, err)
	}
	if v, err := e.Value("test_kernel_requests_total", "kernel", "scalar"); err != nil || v != 0 {
		t.Fatalf("vec[scalar] = %v, %v", v, err)
	}
	if v, err := e.Value("test_latency_us_count"); err != nil || v != 3 {
		t.Fatalf("hist count = %v, %v", v, err)
	}
	if v, err := e.Value("test_latency_us_sum"); err != nil || v != 4100 {
		t.Fatalf("hist sum = %v, %v", v, err)
	}
	if typ := e.Types["test_latency_us"]; typ != "histogram" {
		t.Fatalf("TYPE = %q, want histogram", typ)
	}

	// Bucket lines are cumulative and end at +Inf == count.
	buckets := e.Find("test_latency_us_bucket")
	if len(buckets) == 0 {
		t.Fatal("no bucket samples")
	}
	var prev float64 = -1
	for _, b := range buckets {
		if b.Value < prev {
			t.Fatalf("bucket counts not cumulative: %v after %v", b.Value, prev)
		}
		prev = b.Value
	}
	last := buckets[len(buckets)-1]
	if last.Label("le") != "+Inf" || last.Value != 3 {
		t.Fatalf("final bucket = %+v, want le=+Inf value=3", last)
	}
}

func TestRegistryHandler(t *testing.T) {
	r, c, _, _, _ := testRegistry()
	c.Add(1)
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "test_requests_total 1") {
		t.Fatalf("body missing counter:\n%s", rec.Body.String())
	}
	rec = httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/metrics", nil))
	if rec.Code != 405 {
		t.Fatalf("POST status %d, want 405", rec.Code)
	}
}

func TestRegistryPanicsOnBadRegistration(t *testing.T) {
	r := NewRegistry()
	r.RegisterCounter("ok_name", "x", NewCounter())
	for name, f := range map[string]func(){
		"duplicate name": func() { r.RegisterCounter("ok_name", "x", NewCounter()) },
		"invalid name":   func() { r.RegisterCounter("bad name!", "x", NewCounter()) },
		"invalid label":  func() { r.RegisterCounterVec("v_total", "x", NewCounterVec("bad label!", "a")) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestHistogramVecUndeclaredPanics(t *testing.T) {
	v := NewHistogramVec("stage", "scan", "rank")
	v.With("scan").ObserveUs(5)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on undeclared histogram label")
		}
	}()
	v.With("mystery")
}

func TestParseExpositionRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"metric_no_value\n",
		"bad name{} 1\n",
		"m{le=unquoted} 1\n",
		"m{x=\"unterminated} 1\n",
		"m 1 2 3\n",
		"# TYPE m weird\n",
	} {
		if _, err := ParseExposition(strings.NewReader(bad)); err == nil {
			t.Errorf("parse accepted %q", bad)
		}
	}
}

func TestParseLabelsEscapes(t *testing.T) {
	e, err := ParseExposition(strings.NewReader("m{a=\"x\\\"y\\\\z\",b=\"w\"} 4\n"))
	if err != nil {
		t.Fatal(err)
	}
	s := e.Samples[0]
	if s.Labels["a"] != `x"y\z` || s.Labels["b"] != "w" {
		t.Fatalf("labels = %+v", s.Labels)
	}
}

// TestGaugeVecExposition: per-label gauges render one line per
// declared value and With panics on undeclared ones.
func TestGaugeVecExposition(t *testing.T) {
	v := NewGaugeVec("backend", "a:1", "b:2")
	v.With("a:1").Set(2)
	v.With("b:2").Set(-1)
	reg := NewRegistry()
	reg.RegisterGaugeVec("router_backend_up", "per-backend health", v)
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`router_backend_up{backend="a:1"} 2`,
		`router_backend_up{backend="b:2"} -1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("With on undeclared label did not panic")
		}
	}()
	v.With("nope")
}
