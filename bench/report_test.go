package main

import "testing"

// TestQuartilesMatchPython pins the arithmetic to
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25], the
// driver's, and the verdicts to the rules judge documents.
func TestQuartilesMatchPython(t *testing.T) {
	got := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if want := [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Fatalf("quartiles = %v, want %v", got, want)
	}
}

func TestJudge(t *testing.T) {
	lower := specMetric{Name: "p50_ms", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "qps", Better: "higher", Bound: 0.10}
	tight := func(mid float64) [3]float64 { return [3]float64{mid * 0.99, mid, mid * 1.01} }
	for _, c := range []struct {
		name string
		a, b [3]float64
		m    specMetric
		want string
	}{
		{"slower latency", tight(100), tight(115), lower, verdictWorse},
		{"faster latency", tight(100), tight(90), lower, verdictBetter},
		{"lower throughput", tight(100), tight(85), higher, verdictWorse},
		{"within noise", tight(100), tight(101), lower, verdictUnchanged},
		{"too noisy to say", [3]float64{90, 100, 110}, tight(100), lower, verdictUnresolved},
	} {
		if _, _, got := judge(c.a, c.b, c.m); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
