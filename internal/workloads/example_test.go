package workloads_test

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Capture the traces of a scalar and a SIMD Smith-Waterman kernel over
// the same input, compare their instruction mixes (the paper's Figure
// 1), and decode a steady-state window of each. The contrast the paper
// builds on: the scalar kernel is ~25% branches with data-dependent
// outcomes; the SIMD kernel is almost branch-free and lives on the
// vector units.
func Example_instructionMix() {
	spec := workloads.PaperSpec(4)
	for _, name := range []string{"ssearch34", "sw_vmx128"} {
		w, err := workloads.New(name, spec)
		if err != nil {
			panic(err)
		}
		// Record only up to the end of the window: a full ssearch34
		// recording is 4.5M instructions and ~300 MB of peak RSS.
		const start = 200_000 // well past the setup prologue
		var cs trace.CountingSink
		var rec trace.Recorder
		w.Trace(trace.TeeSink{&cs, &trace.LimitSink{Inner: &rec, Limit: start + 12}})

		fmt.Printf("=== %s: %d instructions ===\n", name, cs.Total)
		bd := cs.Breakdown()
		for c := isa.Breakdown(0); c < isa.NumBreakdowns; c++ {
			if bd[c] > 0 {
				fmt.Printf("  %-8v %6.2f%%\n", c, 100*float64(bd[c])/float64(cs.Total))
			}
		}
		fmt.Println("  steady-state window:")
		for _, in := range rec.Insts[start:] {
			fmt.Println("   ", in)
		}
	}
	// Output:
	// === ssearch34: 4522249 instructions ===
	//   ctrl      26.06%
	//   iload     15.28%
	//   istore    10.19%
	//   ialu      48.47%
	//   steady-state window:
	//     0001009c fix dst=r6 src=r6,-
	//     000100a0 fix dst=r6 src=r6,-
	//     000100a4 store addr=10002ff4 size=4 dst=- src=r5,r2
	//     000100a8 fix dst=r2 src=r2,-
	//     000100ac fix dst=r1 src=r1,-
	//     000100b0 fix dst=r8 src=r8,-
	//     000100b4 br cond->00010044 (taken) src=r8
	//     00010044 load addr=100012d6 size=2 dst=r7 src=r1,-
	//     00010048 fix dst=r3 src=r4,r7
	//     0001004c load addr=10002ff8 size=4 dst=r4 src=r2,-
	//     00010050 load addr=10002ffc size=4 dst=r5 src=r2,-
	//     00010054 br cond->00010058 (not-taken) src=r3
	// === sw_vmx128: 981712 instructions ===
	//   ctrl       3.06%
	//   vperm     21.16%
	//   vsimple   36.43%
	//   vload      9.10%
	//   iload      6.07%
	//   istore     5.91%
	//   ialu      18.27%
	//   steady-state window:
	//     00010078 vsimple dst=v5 src=v3,v14
	//     0001007c vsimple dst=v15 src=v4,v14
	//     00010080 vsimple dst=v5 src=v5,v15
	//     00010084 vsimple dst=v7 src=v10,v14
	//     00010088 vsimple dst=v15 src=v12,v14
	//     0001008c vsimple dst=v7 src=v7,v15
	//     00010090 vsimple dst=v7 src=v7,v14
	//     00010094 vsimple dst=v1 src=v9,v8
	//     00010098 vsimple dst=v1 src=v1,v5
	//     0001009c vsimple dst=v1 src=v1,v7
	//     000100a0 vsimple dst=v1 src=v1,v14
	//     000100a4 vsimple dst=v11 src=v11,v1
}
