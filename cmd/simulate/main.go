// Command simulate runs one workload trace through the out-of-order
// processor model and reports the paper's per-run metrics: IPC, cache
// and branch statistics, the trauma distribution, and queue
// occupancies.
//
// It can sweep several machine widths in one invocation (-widths); the
// trace is then generated exactly once and broadcast to all
// simulations concurrently.
//
// Usage:
//
//	simulate -app blast -width 4 -mem 0
//	simulate -app ssearch34 -bp perfect -seqs 16 -cap 1000000
//	simulate -app fasta34 -widths 4,8,16            # one capture pass, three machines
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"

	"repro/internal/trace"
	"repro/internal/uarch"
	"repro/internal/uarch/bpred"
	"repro/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, validates every
// configuration before any simulation starts, and returns the exit
// code (0 ok, 1 bad configuration or failed run, 2 flag syntax).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		app      = fs.String("app", "ssearch34", "workload: "+strings.Join(workloads.Names, " | "))
		seqs     = fs.Int("seqs", 16, "database sequences")
		traceCap = fs.Uint64("cap", 2_000_000, "max trace instructions simulated (0 = all)")
		width    = fs.Int("width", 4, "machine width: 4, 8, 12 or 16 (Table IV)")
		widths   = fs.String("widths", "", "comma-separated width sweep (e.g. 4,8,16); overrides -width")
		memIdx   = fs.Int("mem", 0, "memory configuration index into Table V (0=me1 .. 4=meinf)")
		bp       = fs.String("bp", "gp", "branch predictor: gp | gshare | bimodal | perfect")
		bpSize   = fs.Int("bpentries", 16384, "predictor table entries")
		dl1lat   = fs.Int("dl1lat", 1, "DL1 hit latency (Figure 7 sweeps this)")
		traumas  = fs.Int("traumas", 10, "number of trauma classes to print")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "simulate:", err)
		return 1
	}

	mems := uarch.MemoryConfigs()
	switch {
	case *memIdx < 0 || *memIdx >= len(mems):
		return fail(errors.New("-mem must be 0..4"))
	case *seqs < 0:
		return fail(errors.New("-seqs must be >= 0"))
	case *traumas < 0:
		return fail(errors.New("-traumas must be >= 0"))
	}
	// -width is a one-entry -widths: both go through the same check,
	// so uarch.ConfigByWidth never sees a width it would panic on.
	widthFlag, widthSpec := "-width", strconv.Itoa(*width)
	if *widths != "" {
		widthFlag, widthSpec = "-widths", *widths
	}
	var widthList []int
	for _, s := range strings.Split(widthSpec, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || (w != 4 && w != 8 && w != 12 && w != 16) {
			return fail(fmt.Errorf("bad %s entry %q (want 4, 8, 12 or 16)", widthFlag, s))
		}
		widthList = append(widthList, w)
	}
	cfgs := make([]uarch.Config, len(widthList))
	for i, w := range widthList {
		cfg := uarch.ConfigByWidth(w).WithMemory(mems[*memIdx]).WithPredictor(*bp, *bpSize)
		cfg.Mem.DL1.Latency = *dl1lat
		cfgs[i] = cfg
	}
	// uarch.New panics on a predictor it cannot build; ask bpred first,
	// while no simulation goroutine is running.
	if _, err := bpred.New(cfgs[0].Predictor, cfgs[0].PredictorEntries); err != nil {
		return fail(err)
	}

	results, err := simulateGenerated(*app, *seqs, *traceCap, cfgs)
	if err != nil {
		return fail(err)
	}
	for i, res := range results {
		report(stdout, *app, cfgs[i], mems[*memIdx].Name, *bp, *bpSize, res, *traumas)
		if i < len(results)-1 {
			fmt.Fprintln(stdout)
		}
	}
	return 0
}

// simulateGenerated captures the workload once and broadcasts the
// stream to every configuration's pipeline concurrently — the paper's
// capture-once, simulate-many workflow in a single process, without
// ever materializing the trace.
func simulateGenerated(app string, seqs int, traceCap uint64, cfgs []uarch.Config) ([]*uarch.Result, error) {
	spec := workloads.PaperSpec(seqs)
	w, err := workloads.New(app, spec)
	if err != nil {
		return nil, err
	}
	bc := trace.NewBroadcast(len(cfgs))
	results := make([]*uarch.Result, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i, src := range bc.Sources() {
		wg.Add(1)
		go func(i int, src *trace.BroadcastCursor) {
			defer wg.Done()
			defer src.Close() // unblock the generator if this sim dies early
			results[i], errs[i] = uarch.New(cfgs[i]).Run(src)
		}(i, src)
	}
	w.Trace(&trace.LimitSink{Inner: bc, Limit: traceCap})
	bc.CloseSend()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

func report(out io.Writer, label string, cfg uarch.Config, memName, bp string, bpSize int, res *uarch.Result, traumas int) {
	fmt.Fprintf(out, "%s on %s / %s / %s(%d entries)\n", label, cfg.Name, memName, bp, bpSize)
	fmt.Fprintf(out, "  instructions  %12d\n", res.Retired)
	fmt.Fprintf(out, "  cycles        %12d\n", res.Cycles)
	fmt.Fprintf(out, "  IPC           %12.3f\n", res.IPC)
	fmt.Fprintf(out, "  DL1 miss rate %11.2f%%  (%d / %d)\n", 100*res.DL1MissRate, res.DL1Misses, res.DL1Accesses)
	fmt.Fprintf(out, "  L2 misses     %12d\n", res.L2Misses)
	fmt.Fprintf(out, "  BP accuracy   %11.2f%%  (%d mispredicts / %d cond branches)\n",
		100*res.PredAccuracy, res.Mispredicts, res.CondBranches)
	fmt.Fprintf(out, "  mean in-flight %10.1f instructions\n", uarch.MeanOccupancy(res.InflightOcc))
	fmt.Fprintf(out, "top traumas (of %d total stall cycles):\n", res.Cycles-res.ProgressCycles)
	for _, tc := range res.TopTraumas(traumas) {
		fmt.Fprintf(out, "  %-10v %10d  %5.1f%%\n", tc.Trauma, tc.Cycles, 100*float64(tc.Cycles)/float64(res.Cycles))
	}
	fmt.Fprintln(out, "issue queue mean occupancy:")
	for q := uarch.UnitClass(0); q < uarch.NumUnitClasses; q++ {
		occ := uarch.MeanOccupancy(res.QueueOcc[q])
		if occ > 0.005 {
			fmt.Fprintf(out, "  %-7v %6.2f\n", q, occ)
		}
	}
}
