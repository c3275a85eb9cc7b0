package main

import (
	"math"
	"path/filepath"
	"regexp"
	"testing"
)

// TestSmoke runs every workload at tiny scale, untraced and traced, and
// holds the output to BENCHMARK.json: every metric it names is emitted
// exactly once with its unit and a finite value, nothing unnamed is
// emitted beside failed_frac, and nothing fails. It asserts no timing.
func TestSmoke(t *testing.T) {
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	dir := t.TempDir()
	for _, wl := range spec.Workloads {
		w, ok := workloadByName(wl.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json names workload %q, which the benchmark does not have", wl.Name)
		}
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			res, err := w.run(runConfig{
				sc: tinyScale, seed: 1, window: tinyScale.window, traced: traced,
				dir: dir, traceOut: filepath.Join(dir, "trace.json"),
			})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct %v, failed %d of %d: %s", wl.Name, traced, res.Correct, res.Failed, res.Attempted, res.Failure)
			}
			seen := make(map[string]metric)
			for _, m := range res.Metrics {
				if _, dup := seen[m.Name]; dup {
					t.Errorf("%s traced=%v: %s emitted twice", wl.Name, traced, m.Name)
				}
				seen[m.Name] = m
				if !nameOK.MatchString(m.Name) {
					t.Errorf("%s: metric name %q outside the contract's alphabet", wl.Name, m.Name)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: %s = %v", wl.Name, traced, m.Name, m.Value)
				}
			}
			for _, m := range want {
				got, ok := seen[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: %s not emitted", wl.Name, traced, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", wl.Name, m.Name, got.Unit, m.Unit)
				}
				delete(seen, m.Name)
			}
			if ff, ok := seen["failed_frac"]; ok && ff.Value != 0 {
				t.Errorf("%s: failed_frac = %v", wl.Name, ff.Value)
			}
			delete(seen, "failed_frac")
			for name := range seen {
				t.Errorf("%s traced=%v: %s emitted but not in BENCHMARK.json", wl.Name, traced, name)
			}
		}
	}
}
