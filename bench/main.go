// Command bench is the repository's benchmark: the fixed yardstick that
// later changes are measured against.
//
// One invocation generates its inputs from -seed, hosts the handlers
// cmd/seqserve and cmd/seqrouter mount (server.Handler, cluster.NewRouter)
// in-process on loopback listeners with their production-default
// configuration, drives one of five serving workloads from at most nproc
// client goroutines and connections, verifies the answers against the
// align library called in-process, and prints every metric by name with
// its unit. The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"qps":{"value":..,"unit":"1/s"},...}}
//
// With -trace 0 the metrics are the end-to-end ones (setup_s, qps,
// p50_ms, p95_ms, cpu_ms_per_req, recall_at_10), taken with tracing
// off. With -trace 1 they are the per-layer ones: a second kind of run
// that records client spans in memory, times each layer's public entry
// points from outside (the layer ladder), reads the servers' own
// counters across the window, and writes the spans to
// .bench_build/trace-<workload>.json.
//
// Two more modes make run sets and compare them:
//
//	bench -repeat 5 -o A.json        every workload five times, seeds 1..5
//	bench -compare A.json B.json     per workload x metric: medians,
//	                                 quartiles, delta, bound, verdict
//
// README.md in this directory is the glossary of workload and metric
// names and records how each size and rate was chosen.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// buildDir is where everything the benchmark writes goes: scratch
// snapshots (removed at exit) and trace files. The root .gitignore
// names it.
const buildDir = ".bench_build"

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	scale    string
	repeat   int
	out      string
	compare  bool
	spec     string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&o.seconds, "seconds", 0, "measured window in seconds; 0 selects the scale's default")
	flag.IntVar(&o.trace, "trace", 0, "1 runs traced and reports the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&o.scale, "scale", "full", "full is the benchmark; tiny is the smoke test's")
	flag.IntVar(&o.repeat, "repeat", 1, "run each selected workload this many times, on seeds seed, seed+1, ...")
	flag.StringVar(&o.out, "o", "", "with -repeat: write the run set to this file")
	flag.BoolVar(&o.compare, "compare", false, "compare two run sets: bench -compare A.json B.json")
	flag.StringVar(&o.spec, "spec", "BENCHMARK.json", "with -compare: where the bounds are read from")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func run(o options) error {
	if o.compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two run-set files")
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1), o.spec)
	}
	var sc scale
	switch o.scale {
	case "full":
		sc = fullScale
	case "tiny":
		sc = tinyScale
	default:
		return fmt.Errorf("unknown -scale %q", o.scale)
	}
	selected := workloads
	if o.workload != "all" {
		w, ok := workloadByName(o.workload)
		if !ok {
			return fmt.Errorf("unknown -workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
		}
		selected = []workload{w}
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace is 0 or 1")
	}
	if o.repeat < 1 {
		return fmt.Errorf("-repeat must be at least 1")
	}
	window := sc.window
	if o.seconds > 0 {
		window = time.Duration(o.seconds * float64(time.Second))
	}

	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	set := runSet{Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Scale: sc.name, Seconds: window.Seconds()}
	fmt.Printf("bench: scale %s, window %.1fs, GOMAXPROCS %d of %d CPUs, %s; clients and connections: %d\n",
		sc.name, window.Seconds(), set.GOMAXPROCS, set.NumCPU, set.Go, set.GOMAXPROCS)
	var last *runResult
	for r := 0; r < o.repeat; r++ {
		for _, w := range selected {
			res, err := w.run(runConfig{
				sc: sc, seed: o.seed + int64(r), window: window, traced: o.trace == 1, dir: dir,
				traceOut: filepath.Join(buildDir, "trace-"+w.name+".json"),
			})
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			res.print(os.Stdout)
			set.Runs = append(set.Runs, res)
			last = res
		}
	}
	if o.out != "" {
		if err := set.write(o.out); err != nil {
			return err
		}
	}
	// The contract's result line, last: the final run's.
	line, err := json.Marshal(last.resultLine())
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
