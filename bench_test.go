// Benchmark harness: one benchmark per table and figure of the paper
// (regenerating its rows/series and reporting its headline numbers as
// custom metrics), plus kernel throughput benchmarks and the ablations
// DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/align"
	"repro/internal/bio"
	"repro/internal/blast"
	"repro/internal/experiments"
	"repro/internal/fasta"
	"repro/internal/isa"
	"repro/internal/trace"
	"repro/internal/uarch"
	"repro/internal/uarch/bpred"
	"repro/internal/workloads"
)

// benchLab is shared across figure benchmarks so trace generation is
// paid once; simulation work dominates each figure's cost.
var (
	benchLabOnce sync.Once
	benchLab     *experiments.Lab
)

func lab() *experiments.Lab {
	benchLabOnce.Do(func() {
		benchLab = experiments.NewLab(experiments.Scale{Seqs: 10, TraceCap: 250_000})
	})
	return benchLab
}

// --- Tables and figures (E0-E12 in DESIGN.md's index) ---

func BenchmarkTableIII_TraceSizes(b *testing.B) {
	l := lab()
	var r *experiments.TableIIIResult
	for i := 0; i < b.N; i++ {
		r = experiments.TableIII(l)
	}
	b.ReportMetric(r.Ratio("ssearch34", "sw_vmx128"), "ssearch/vmx128")
	b.ReportMetric(r.Ratio("sw_vmx256", "sw_vmx128"), "vmx256/vmx128")
}

func BenchmarkFig1_InstructionBreakdown(b *testing.B) {
	l := lab()
	var r *experiments.Fig1Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig1(l)
	}
	b.ReportMetric(100*r.Fraction("ssearch34", isa.BkCtrl), "ssearch-ctrl-%")
	b.ReportMetric(100*r.Fraction("sw_vmx128", isa.BkCtrl), "vmx128-ctrl-%")
}

func BenchmarkFig2_Traumas(b *testing.B) {
	l := lab()
	var r *experiments.Fig2Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig2(l)
	}
	ss := r.Traumas("ssearch34")
	b.ReportMetric(float64(ss[uarch.IfPred]), "ssearch-if_pred-cycles")
	v := r.Traumas("sw_vmx128")
	b.ReportMetric(float64(v[uarch.RgVi]), "vmx128-rg_vi-cycles")
}

func BenchmarkFig3And4_CyclesAndIPCvsMemory(b *testing.B) {
	l := lab()
	var g *experiments.FigMemGrid
	for i := 0; i < b.N; i++ {
		g = experiments.Fig3And4(l)
	}
	b.ReportMetric(g.IPC["blast"][4]["INF/INF/INF"], "blast-IPC-meinf")
	b.ReportMetric(g.IPC["blast"][4]["32k/32k/1M"], "blast-IPC-me1")
}

func BenchmarkFig5_CacheSize(b *testing.B) {
	l := lab()
	var f *experiments.Fig5Result
	for i := 0; i < b.N; i++ {
		f = experiments.Fig5(l)
	}
	b.ReportMetric(100*f.MissRate["blast"][32], "blast-missrate-32K-%")
	b.ReportMetric(100*f.MissRate["ssearch34"][32], "ssearch-missrate-32K-%")
}

func BenchmarkFig6_Associativity(b *testing.B) {
	l := lab()
	var f *experiments.Fig6Result
	for i := 0; i < b.N; i++ {
		f = experiments.Fig6(l)
	}
	b.ReportMetric(100*f.MissRate["blast"][1], "blast-missrate-1way-%")
	b.ReportMetric(100*f.MissRate["blast"][8], "blast-missrate-8way-%")
}

func BenchmarkFig7_L1Latency(b *testing.B) {
	l := lab()
	var f *experiments.Fig7Result
	for i := 0; i < b.N; i++ {
		f = experiments.Fig7(l)
	}
	b.ReportMetric(f.IPC["sw_vmx128"][1], "vmx128-IPC-lat1")
	b.ReportMetric(f.IPC["sw_vmx128"][10], "vmx128-IPC-lat10")
}

func BenchmarkFig8_WideSIMD(b *testing.B) {
	l := lab()
	var f *experiments.Fig8Result
	for i := 0; i < b.N; i++ {
		f = experiments.Fig8(l)
	}
	b.ReportMetric(f.Speedup["sw_vmx256"][4], "vmx256-speedup-4W")
	b.ReportMetric(f.Speedup["sw_vmx256"][16], "vmx256-speedup-16W")
	b.ReportMetric(f.Speedup["sw_vmx256+1lat"][4], "vmx256+1lat-speedup-4W")
}

func BenchmarkFig9_BranchImpact(b *testing.B) {
	l := lab()
	var f *experiments.Fig9Result
	for i := 0; i < b.N; i++ {
		f = experiments.Fig9(l)
	}
	b.ReportMetric(f.Perfect["ssearch34"][4]/f.Real["ssearch34"][4], "ssearch-perfectBP-gain")
	b.ReportMetric(f.Perfect["sw_vmx128"][4]/f.Real["sw_vmx128"][4], "vmx128-perfectBP-gain")
}

func BenchmarkFig10_QueueUtilization(b *testing.B) {
	l := lab()
	var f *experiments.Fig10Result
	for i := 0; i < b.N; i++ {
		f = experiments.Fig10(l)
	}
	b.ReportMetric(f.MeanQueueOcc("sw_vmx128", uarch.UVi), "vmx128-VI-occupancy")
	b.ReportMetric(f.MeanInflight("fasta34"), "fasta-inflight")
}

func BenchmarkFig11_PredictorAccuracy(b *testing.B) {
	l := lab()
	var f *experiments.Fig11Result
	for i := 0; i < b.N; i++ {
		f = experiments.Fig11(l)
	}
	b.ReportMetric(100*f.Accuracy["ssearch34"]["gp"][16384], "ssearch-GP-accuracy-%")
	b.ReportMetric(100*f.Accuracy["blast"]["gp"][16384], "blast-GP-accuracy-%")
}

// --- Kernel throughput (cells/second of dynamic programming) ---

func kernelInput() (*align.Profile, []uint8, align.Params) {
	p := align.PaperParams()
	q := bio.GlutathioneQuery()
	subject := bio.RandomSequence("S", 360, 99)
	return align.NewProfile(q.Residues, p), subject.Residues, p
}

// reportCellRate attaches the DP throughput metrics (Mcells/s and
// GCUPS — giga cell updates per second, the field's standard figure)
// to a kernel benchmark.
func reportCellRate(b *testing.B, cells float64) {
	rate := cells * float64(b.N) / b.Elapsed().Seconds()
	b.ReportMetric(rate/1e6, "Mcells/s")
	b.ReportMetric(rate/1e9, "GCUPS")
}

func BenchmarkKernelSWScore(b *testing.B) {
	prof, subject, p := kernelInput()
	cells := float64(len(prof.Query) * len(subject))
	scr := align.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scr.SWScore(p, prof.Query, subject)
	}
	reportCellRate(b, cells)
}

func BenchmarkKernelSSEARCH(b *testing.B) {
	prof, subject, _ := kernelInput()
	cells := float64(len(prof.Query) * len(subject))
	scr := align.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scr.SSEARCHScore(prof, subject)
	}
	reportCellRate(b, cells)
}

func BenchmarkKernelGotoh(b *testing.B) {
	prof, subject, _ := kernelInput()
	cells := float64(len(prof.Query) * len(subject))
	scr := align.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scr.GotohScore(prof, subject)
	}
	reportCellRate(b, cells)
}

func BenchmarkKernelVMX128(b *testing.B) {
	prof, subject, _ := kernelInput()
	cells := float64(len(prof.Query) * len(subject))
	scr := align.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scr.SWScoreVMX128(prof, subject)
	}
	reportCellRate(b, cells)
}

func BenchmarkKernelVMX256(b *testing.B) {
	prof, subject, _ := kernelInput()
	cells := float64(len(prof.Query) * len(subject))
	scr := align.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scr.SWScoreVMX256(prof, subject)
	}
	reportCellRate(b, cells)
}

func BenchmarkKernelSWAR(b *testing.B) {
	p := align.PaperParams()
	q := bio.GlutathioneQuery()
	subject := bio.RandomSequence("S", 360, 99).Residues
	sp := align.NewSWARProfile(q.Residues, p)
	cells := float64(q.Len() * len(subject))
	scr := align.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scr.SWScoreSWAR(sp, subject)
	}
	reportCellRate(b, cells)
}

func BenchmarkKernelStriped(b *testing.B) {
	p := align.PaperParams()
	q := bio.GlutathioneQuery()
	subject := bio.RandomSequence("S", 360, 99).Residues
	sp := align.NewStripedProfile(q.Residues, p, 8)
	cells := float64(q.Len() * len(subject))
	scr := align.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scr.SWScoreStriped(sp, subject)
	}
	reportCellRate(b, cells)
}

// BenchmarkSearchDB measures the parallel sharded scan end to end:
// the same database scored with 1..N workers. Hits are bit-identical
// across worker counts (equiv tests assert it); this shows the
// wall-clock scaling.
func BenchmarkSearchDB(b *testing.B) {
	q := bio.GlutathioneQuery()
	spec := bio.DefaultDBSpec(200)
	spec.Related = 10
	spec.RelatedTo = q
	db := bio.SyntheticDB(spec)
	p := align.PaperParams()
	cells := float64(q.Len() * db.TotalResidues())
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("ssearch-w%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				align.SearchDB(p, q.Residues, db, align.SearchConfig{
					Kernel: align.KernelSSEARCH, Workers: workers, TopK: 20,
				})
			}
			reportCellRate(b, cells)
		})
	}
	b.Run("vmx128-w4", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			align.SearchDB(p, q.Residues, db, align.SearchConfig{
				Kernel: align.KernelVMX128, Workers: 4, TopK: 20,
			})
		}
		reportCellRate(b, cells)
	})
}

func searchDB() (*bio.Database, *bio.Sequence) {
	q := bio.GlutathioneQuery()
	spec := bio.DefaultDBSpec(60)
	spec.Related = 6
	spec.RelatedTo = q
	return bio.SyntheticDB(spec), q
}

func BenchmarkSearchBLAST(b *testing.B) {
	db, q := searchDB()
	p := blast.DefaultParams()
	b.ResetTimer()
	var stats blast.SearchStats
	for i := 0; i < b.N; i++ {
		_, stats = blast.Search(db, q, p)
	}
	b.ReportMetric(float64(stats.WordHits), "word-hits")
}

func BenchmarkSearchFASTA(b *testing.B) {
	db, q := searchDB()
	p := fasta.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fasta.Search(db, q, p)
	}
}

// --- Simulator throughput ---

func BenchmarkSimulatorThroughput(b *testing.B) {
	r := lab().Trace("ssearch34")
	b.ResetTimer()
	var res *uarch.Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = uarch.New(uarch.Config4Way()).Run(r.Source())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.Retired)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// --- Ablations (DESIGN.md) ---

// BenchmarkAblationTwoHit quantifies what the two-hit rule buys: the
// extension work with and without it.
func BenchmarkAblationTwoHit(b *testing.B) {
	db, q := searchDB()
	for _, twoHit := range []bool{true, false} {
		name := "two-hit"
		if !twoHit {
			name = "one-hit"
		}
		b.Run(name, func(b *testing.B) {
			p := blast.DefaultParams()
			p.TwoHit = twoHit
			var stats blast.SearchStats
			for i := 0; i < b.N; i++ {
				_, stats = blast.Search(db, q, p)
			}
			b.ReportMetric(float64(stats.SeedsExtended), "seeds")
		})
	}
}

// BenchmarkAblationSWAT compares the computation-avoiding SWAT kernel
// against the branch-free Gotoh loop: the paper attributes SSEARCH's
// branch-boundness to exactly this optimization.
func BenchmarkAblationSWAT(b *testing.B) {
	prof, subject, _ := kernelInput()
	b.Run("swat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			align.SSEARCHScore(prof, subject)
		}
	})
	b.Run("gotoh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			align.GotohScore(prof, subject)
		}
	})
}

// BenchmarkAblationLaneWidth sweeps the anti-diagonal kernel across
// register widths beyond the paper's two design points.
func BenchmarkAblationLaneWidth(b *testing.B) {
	prof, subject, _ := kernelInput()
	for _, lanes := range []int{4, 8, 16, 32} {
		b.Run(map[int]string{4: "64bit", 8: "128bit", 16: "256bit", 32: "512bit"}[lanes],
			func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					align.SWScoreSIMD(prof, subject, lanes)
				}
			})
	}
}

// BenchmarkAblationSeedThreshold sweeps BLAST's neighborhood threshold
// T, the knob trading index size (memory pressure) for seed rate.
func BenchmarkAblationSeedThreshold(b *testing.B) {
	q := bio.GlutathioneQuery()
	for _, T := range []int{10, 11, 12, 13} {
		b.Run(map[int]string{10: "T10", 11: "T11", 12: "T12", 13: "T13"}[T],
			func(b *testing.B) {
				p := blast.DefaultParams()
				p.Threshold = T
				var idx *blast.Index
				for i := 0; i < b.N; i++ {
					idx = blast.NewIndex(q.Residues, p)
				}
				b.ReportMetric(float64(idx.FootprintBytes())/1024, "KB")
				b.ReportMetric(float64(idx.NumEntries()), "entries")
			})
	}
}

// BenchmarkTraceGeneration measures the substrate itself: pseudo-
// assembly emission rate of the heaviest kernel.
func BenchmarkTraceGeneration(b *testing.B) {
	spec := workloads.PaperSpec(4)
	w, err := workloads.New("ssearch34", spec)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var cs trace.CountingSink
	for i := 0; i < b.N; i++ {
		cs = trace.CountingSink{}
		w.Trace(&cs)
	}
	b.ReportMetric(float64(cs.Total)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkPredictors measures raw predictor throughput on a mixed
// branch stream (supports Figure 11's sweep).
func BenchmarkPredictors(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 1 << 16
	pcs := make([]uint32, n)
	outs := make([]bool, n)
	for i := range pcs {
		pcs[i] = uint32(0x1000 + 4*(i%509))
		outs[i] = rng.Intn(3) > 0
	}
	for _, strat := range []string{"bimodal", "gshare", "gp"} {
		b.Run(strat, func(b *testing.B) {
			p, err := bpredNew(strat, 4096)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				pc := pcs[i%n]
				p.Update(pc, outs[i%n])
				_ = p.Predict(pc)
			}
		})
	}
}

// bpredNew keeps the bpred import local to the predictor benchmark.
func bpredNew(strategy string, entries int) (bpred.Predictor, error) {
	return bpred.New(strategy, entries)
}

// BenchmarkAblationSIMDLayout compares the two SIMD dataflow layouts
// the 2000s implementations chose between: the paper's anti-diagonal
// (Wozniak) kernel versus the striped (Farrar) layout with lazy-F.
func BenchmarkAblationSIMDLayout(b *testing.B) {
	p := align.PaperParams()
	q := bio.GlutathioneQuery()
	subject := bio.RandomSequence("S", 360, 99).Residues
	cells := float64(q.Len() * len(subject))
	b.Run("antidiagonal", func(b *testing.B) {
		prof := align.NewProfile(q.Residues, p)
		for i := 0; i < b.N; i++ {
			align.SWScoreVMX128(prof, subject)
		}
		b.ReportMetric(cells*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mcells/s")
	})
	b.Run("striped", func(b *testing.B) {
		sp := align.NewStripedProfile(q.Residues, p, 8)
		for i := 0; i < b.N; i++ {
			align.SWScoreStriped(sp, subject)
		}
		b.ReportMetric(cells*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mcells/s")
	})
}

// BenchmarkAblationAccounting compares the two trauma attribution
// policies on the same trace: zero-retire-only (the default,
// Moreno-style) versus charging every cycle.
func BenchmarkAblationAccounting(b *testing.B) {
	r := lab().Trace("blast")
	for _, policy := range []uarch.AccountingPolicy{uarch.AccountZeroRetire, uarch.AccountEveryCycle} {
		name := "zero-retire"
		if policy == uarch.AccountEveryCycle {
			name = "every-cycle"
		}
		b.Run(name, func(b *testing.B) {
			var res *uarch.Result
			for i := 0; i < b.N; i++ {
				cfg := uarch.Config4Way()
				cfg.Accounting = policy
				var err error
				res, err = uarch.New(cfg).Run(r.Source())
				if err != nil {
					b.Fatal(err)
				}
			}
			var total uint64
			for _, n := range res.Traumas {
				total += n
			}
			b.ReportMetric(100*float64(total)/float64(res.Cycles), "charged-%")
		})
	}
}

// BenchmarkQuerySweep extends the evaluation across the full Table II
// query set (the paper ran all queries but reported one).
func BenchmarkQuerySweep(b *testing.B) {
	var s *experiments.QuerySweepResult
	for i := 0; i < b.N; i++ {
		s = experiments.QuerySweep(experiments.Scale{Seqs: 3, TraceCap: 60_000})
	}
	b.ReportMetric(float64(s.Instr["P03435"]["ssearch34"])/float64(s.Instr["P02232"]["ssearch34"]),
		"longest/shortest-query-work")
}
