package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// print writes a run's metrics for a reader: name, value, unit, and the
// sample count where one applies.
func (r *runResult) print(w io.Writer) {
	kind := "end-to-end, tracing off"
	if r.Traced {
		kind = "per-layer, traced"
	}
	fmt.Fprintf(w, "\n== %s  seed %d  (%s)  attempted %d  failed %d  correct %v\n", r.Workload, r.Seed, kind, r.Attempted, r.Failed, r.Correct)
	if r.Failure != "" {
		fmt.Fprintf(w, "   first failure: %s\n", r.Failure)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, m := range r.Metrics {
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf("n=%d", m.N)
		}
		fmt.Fprintf(tw, "   %s\t%.6g\t%s\t%s\n", m.Name, m.Value, m.Unit, n)
	}
	tw.Flush()
	if len(r.ladder) > 0 {
		fmt.Fprintf(w, "   layer ladder (median us per query; self = duration - rung below):\n")
		tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		for _, g := range r.ladder {
			below := g.below
			if below == "" {
				below = "-"
			}
			fmt.Fprintf(tw, "   %s\t%.1f\tself %.1f\twraps %s\n", g.name, g.dur, g.self, below)
		}
		tw.Flush()
	}
}

// resultLine is the object the contract wants as the last output line.
// failed_frac stays out of it: attempted and failed already say it.
func (r *runResult) resultLine() any {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.Metrics))
	for _, m := range r.Metrics {
		if m.Name != "failed_frac" {
			ms[m.Name] = value{m.Value, m.Unit}
		}
	}
	return struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms}
}

// runSet is what -repeat writes and -compare reads.
type runSet struct {
	Go         string       `json:"go"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	NumCPU     int          `json:"num_cpu"`
	Scale      string       `json:"scale"`
	Seconds    float64      `json:"seconds"`
	Runs       []*runResult `json:"runs"`
}

func (s *runSet) write(path string) error {
	b, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readRunSet(path string) (*runSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s runSet
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// values collects one metric's value from every run of one workload.
func (s *runSet) values(workload, name string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if r.Workload != workload {
			continue
		}
		if v := r.Metrics.get(name); !math.IsNaN(v) {
			out = append(out, v)
		}
	}
	return out
}

// quartiles returns the first quartile, median and third quartile of xs
// the way Python's statistics.quantiles(xs, n=4) does (the driver's
// arithmetic), so a spread computed here is the spread the driver sees.
// It needs two values or more.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return [3]float64{cut(1), cut(2), cut(3)}
}

// specMetric is one end_to_end entry of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// Verdicts of one workload x metric comparison.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
)

// judge compares run set B with A on one metric, given each side's
// quartiles. Worse by more than the bound is worse; a spread (quartile
// distance over median, either side) wider than the bound means the
// data cannot say, which is unresolved rather than unchanged; an
// improvement beyond A's own spread is better.
func judge(a, b [3]float64, m specMetric) (delta, spread float64, verdict string) {
	spreadA, spreadB := (a[2]-a[0])/a[1], (b[2]-b[0])/b[1]
	spread = math.Max(spreadA, spreadB)
	delta = (b[1] - a[1]) / a[1]
	worse := delta
	if m.Better == "higher" {
		worse = -delta
	}
	switch {
	case worse > m.Bound:
		verdict = verdictWorse
	case spread > m.Bound:
		verdict = verdictUnresolved
	case -worse > spreadA && -worse > 0:
		verdict = verdictBetter
	default:
		verdict = verdictUnchanged
	}
	return delta, spread, verdict
}

// compareFiles prints the comparison table of two run sets and returns
// an error when any row is worse or unresolved.
func compareFiles(w io.Writer, pathA, pathB, specPath string) error {
	a, err := readRunSet(pathA)
	if err != nil {
		return err
	}
	b, err := readRunSet(pathB)
	if err != nil {
		return err
	}
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\tA q1/median/q3 (n)\tB q1/median/q3 (n)\tdelta\tspread\tbound\tverdict\n")
	bad := 0
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a.values(wl.Name, m.Name), b.values(wl.Name, m.Name)
			if len(va) < 2 || len(vb) < 2 {
				fmt.Fprintf(tw, "%s\t%s\t%s\t(n=%d)\t(n=%d)\t\t\t\ttoo few runs\n", wl.Name, m.Name, m.Unit, len(va), len(vb))
				bad++
				continue
			}
			qa, qb := quartiles(va), quartiles(vb)
			delta, spread, verdict := judge(qa, qb, m)
			if verdict == verdictWorse || verdict == verdictUnresolved {
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g/%.4g/%.4g (%d)\t%.4g/%.4g/%.4g (%d)\t%+.1f%%\t%.1f%%\t%.0f%%\t%s\n",
				wl.Name, m.Name, m.Unit, qa[0], qa[1], qa[2], len(va), qb[0], qb[1], qb[2], len(vb), 100*delta, 100*spread, 100*m.Bound, verdict)
		}
	}
	tw.Flush()
	if bad > 0 {
		return fmt.Errorf("%d rows worse, unresolved or missing", bad)
	}
	return nil
}
