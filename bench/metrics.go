package main

import (
	"math"
	"sort"
	"time"
)

// metric is one reported number. N, when set, is the sample count the
// value was taken over.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// endToEnd lists the end-to-end metric names in report order; every
// workload emits all of them on an untraced run, and BENCHMARK.json
// gives each its bound. failed_frac is printed beside them but lives in
// the result line's attempted/failed counts, because a metric that is 0
// on every healthy run has no spread to hold a bound against.
var endToEnd = []string{"setup_s", "qps", "p50_ms", "p95_ms", "cpu_ms_per_req", "recall_at_10"}

// metrics accumulates a run's numbers in emission order.
type metrics []metric

func (m *metrics) add(name string, v float64, unit string) { m.addN(name, v, unit, 0) }

func (m *metrics) addN(name string, v float64, unit string, n int) {
	*m = append(*m, metric{Name: name, Value: v, Unit: unit, N: n})
}

func (m metrics) get(name string) float64 {
	for _, x := range m {
		if x.Name == name {
			return x.Value
		}
	}
	return math.NaN()
}

// quantile returns the q-quantile of sorted by nearest rank.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
