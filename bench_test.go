package dimmwitted

// One benchmark per table/figure of the paper's evaluation, each
// delegating to the shared driver in internal/experiments (quick
// grids) and reporting the headline shape statistic via
// b.ReportMetric, plus ablation benches for the design knobs called
// out in DESIGN.md. Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// or print the full paper-style tables with cmd/dwbench.

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"dimmwitted/internal/core"
	"dimmwitted/internal/data"
	"dimmwitted/internal/experiments"
	"dimmwitted/internal/factor"
	"dimmwitted/internal/model"
	"dimmwitted/internal/numa"
	"dimmwitted/internal/opt"
)

// benchDriver runs one experiment driver per iteration and reports the
// selected metrics.
func benchDriver(b *testing.B, name string, metrics ...string) {
	drv, ok := experiments.Lookup(name)
	if !ok {
		b.Fatalf("no driver %q", name)
	}
	var res *experiments.Result
	for i := 0; i < b.N; i++ {
		res = drv(true)
	}
	for _, m := range metrics {
		if v, ok := res.Metrics[m]; ok {
			b.ReportMetric(v, strings.ReplaceAll(m, " ", "_"))
		}
	}
}

func BenchmarkFig6CostModel(b *testing.B) {
	benchDriver(b, "fig6", "sumN/rcv1", "sumN2/rcv1")
}

// BenchmarkFig6Executors measures real wall-clock epoch times of the
// simulated and parallel executors on identical plans and writes the
// measurements to BENCH_parallel.json — the CI bench smoke step
// (-bench=BenchmarkFig6 -benchtime=1x) seeds the wall-clock benchmark
// trajectory from it.
func BenchmarkFig6Executors(b *testing.B) {
	var entries []experiments.ExecWallEntry
	for i := 0; i < b.N; i++ {
		entries = experiments.ExecWallEntries(true)
	}
	for _, e := range entries {
		b.ReportMetric(e.WallSecondsPerEpoch*1e3, e.Model+"_"+e.Executor+"_ms/epoch")
	}
	buf, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_parallel.json", buf, 0o644); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkFig7aEpochs(b *testing.B) {
	benchDriver(b, "fig7a", "rowEpochs/SVM1 (rcv1)", "colEpochs/SVM1 (rcv1)")
}

func BenchmarkFig7bCrossover(b *testing.B) {
	benchDriver(b, "fig7b", "rowOverCol/0.10", "rowOverCol/1.00")
}

func BenchmarkFig8aModelRepEpochs(b *testing.B) {
	benchDriver(b, "fig8a", "epochs/PerMachine/10", "epochs/PerNode/10", "epochs/PerCore/10")
}

func BenchmarkFig8bModelRepTime(b *testing.B) {
	benchDriver(b, "fig8b", "perMachineOverPerNode")
}

func BenchmarkFig9aDataRepEpochs(b *testing.B) {
	benchDriver(b, "fig9a", "epochs/Sharding/10", "epochs/FullReplication/10")
}

func BenchmarkFig9bDataRepTime(b *testing.B) {
	benchDriver(b, "fig9b", "ratio/local2", "ratio/local8")
}

func BenchmarkFig11EndToEnd(b *testing.B) {
	benchDriver(b, "fig11", "t50/SVM/Reuters/DimmWitted", "t50/SVM/Reuters/Hogwild!")
}

func BenchmarkFig12aAccess(b *testing.B) {
	benchDriver(b, "fig12a", "row/SVM/RCV1/10", "col/SVM/RCV1/10")
}

func BenchmarkFig12bModelRep(b *testing.B) {
	benchDriver(b, "fig12b", "PerNode/SVM/RCV1/50", "PerMachine/SVM/RCV1/50")
}

func BenchmarkFig13Throughput(b *testing.B) {
	benchDriver(b, "fig13", "gbps/DimmWitted/parallel sum", "gbps/Hogwild!/parallel sum")
}

func BenchmarkFig14Plans(b *testing.B) {
	benchDriver(b, "fig14", "row/SVM/RCV1", "col/LP/Amazon")
}

func BenchmarkFig15AccessArch(b *testing.B) {
	benchDriver(b, "fig15", "svm/local2", "svm/local8")
}

func BenchmarkFig16aArch(b *testing.B) {
	benchDriver(b, "fig16a", "ratio/local2", "ratio/local8")
}

func BenchmarkFig16bSparsity(b *testing.B) {
	benchDriver(b, "fig16b", "ratio/0.01", "ratio/1.00")
}

func BenchmarkFig17aDataRep(b *testing.B) {
	benchDriver(b, "fig17a", "ratio/400", "fullOnly/50")
}

func BenchmarkFig17bExtensions(b *testing.B) {
	benchDriver(b, "fig17b", "gibbsSpeedup", "nnSpeedup")
}

func BenchmarkFig20Speedup(b *testing.B) {
	benchDriver(b, "fig20", "percore/12", "permachine/12")
}

func BenchmarkFig21Scalability(b *testing.B) {
	benchDriver(b, "fig21", "epochTime/0.10", "epochTime/1.00")
}

func BenchmarkFig22Importance(b *testing.B) {
	benchDriver(b, "fig22", "Imp10/50", "Imp100/50")
}

func BenchmarkAppAPlacement(b *testing.B) {
	benchDriver(b, "appA", "collocation", "denseOnDense", "sparseOnSparse")
}

// ---- Ablation benches for DESIGN.md's design choices ----

// BenchmarkAblationSyncInterval sweeps how often the asynchronous
// averaging worker fires (paper: "as frequently as possible" is best).
func BenchmarkAblationSyncInterval(b *testing.B) {
	spec := model.NewSVM()
	ds := data.RCV1()
	for _, rounds := range []int{1, 4, 16, -1} {
		name := "everyRound"
		switch rounds {
		case 4:
			name = "every4"
		case 16:
			name = "every16"
		case -1:
			name = "epochOnly"
		}
		b.Run(name, func(b *testing.B) {
			var epochs int
			for i := 0; i < b.N; i++ {
				eng, err := core.New(spec, ds, core.Plan{
					ModelRep: core.PerNode, DataRep: core.Sharding,
					SyncRounds: rounds, Seed: 3,
				})
				if err != nil {
					b.Fatal(err)
				}
				res := eng.RunToLoss(0.1, 100)
				epochs = res.Epochs
			}
			b.ReportMetric(float64(epochs), "epochs-to-0.1")
		})
	}
}

// BenchmarkAblationChunk sweeps the deterministic interleaver's chunk
// size (the staleness granularity of shared replicas).
func BenchmarkAblationChunk(b *testing.B) {
	spec := model.NewSVM()
	ds := data.RCV1()
	for _, chunk := range []int{1, 16, 256} {
		b.Run(sizeName(chunk), func(b *testing.B) {
			var epochs int
			for i := 0; i < b.N; i++ {
				eng, err := core.New(spec, ds, core.Plan{
					ModelRep: core.PerMachine, DataRep: core.Sharding,
					ChunkSize: chunk, Seed: 3,
				})
				if err != nil {
					b.Fatal(err)
				}
				epochs = eng.RunToLoss(0.1, 100).Epochs
			}
			b.ReportMetric(float64(epochs), "epochs-to-0.1")
		})
	}
}

func sizeName(n int) string {
	switch n {
	case 1:
		return "chunk1"
	case 16:
		return "chunk16"
	default:
		return "chunk256"
	}
}

// BenchmarkAblationAlpha verifies the optimizer's decision is robust
// across the paper's alpha range (Section 3.2: stable for 4x-100x).
func BenchmarkAblationAlpha(b *testing.B) {
	svm := model.NewSVM()
	lp := model.NewLP()
	rcv1, amazon := data.RCV1(), data.AmazonLP()
	stable := 1.0
	for i := 0; i < b.N; i++ {
		for _, top := range numa.Machines() {
			ps, err := core.ChoosePlanModel(core.NewGLM(svm, rcv1), top, core.ExecSimulated, nil)
			if err != nil {
				b.Fatal(err)
			}
			pl, err := core.ChoosePlanModel(core.NewGLM(lp, amazon), top, core.ExecSimulated, nil)
			if err != nil {
				b.Fatal(err)
			}
			if ps.Plan.Access != model.RowWise || pl.Plan.Access == model.RowWise {
				stable = 0
			}
		}
	}
	b.ReportMetric(stable, "decisions-stable")
}

// BenchmarkAblationStorage compares CSR against dense storage for the
// row access method on dense and sparse data (Appendix A).
func BenchmarkAblationStorage(b *testing.B) {
	spec := model.NewSVM()
	cases := []struct {
		name  string
		ds    *data.Dataset
		dense bool
	}{
		{"denseData/csr", data.Music(), false},
		{"denseData/dense", data.Music(), true},
		{"sparseData/csr", data.SubsampleSparsity(data.Music(), 0.05, 1), false},
		{"sparseData/dense", data.SubsampleSparsity(data.Music(), 0.05, 1), true},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var secs float64
			for i := 0; i < b.N; i++ {
				eng, err := core.New(spec, c.ds, core.Plan{
					ModelRep: core.PerNode, DenseStorage: c.dense,
				})
				if err != nil {
					b.Fatal(err)
				}
				secs = eng.RunEpoch().SimTime.Seconds()
			}
			b.ReportMetric(secs*1e6, "sim-us/epoch")
		})
	}
}

// BenchmarkAblationImportanceFraction sweeps the Importance sampling
// fraction (Appendix C.4's error-tolerance knob).
func BenchmarkAblationImportanceFraction(b *testing.B) {
	spec := model.NewLS()
	ds := data.MusicRegression()
	for _, frac := range []float64{0.05, 0.1, 0.5, 1.0} {
		b.Run(fracName(frac), func(b *testing.B) {
			var secs float64
			for i := 0; i < b.N; i++ {
				eng, err := core.New(spec, ds, core.Plan{
					Access: model.RowWise, ModelRep: core.PerNode,
					DataRep: core.Importance, ImportanceFraction: frac, Seed: 6,
				})
				if err != nil {
					b.Fatal(err)
				}
				res := eng.RunToLoss(0.006, 100)
				secs = res.Time.Seconds()
			}
			b.ReportMetric(secs*1e6, "sim-us-to-loss")
		})
	}
}

func fracName(f float64) string {
	switch f {
	case 0.05:
		return "frac05"
	case 0.1:
		return "frac10"
	case 0.5:
		return "frac50"
	default:
		return "frac100"
	}
}

// BenchmarkOptMethods races the first-order methods of internal/opt
// against each other in epochs-to-loss on least squares (the
// statistical-efficiency comparison behind the MLlib analysis).
func BenchmarkOptMethods(b *testing.B) {
	spec := model.NewLS()
	ds := data.MusicRegression()
	target := 0.006
	b.Run("gd", func(b *testing.B) {
		var epochs float64
		for i := 0; i < b.N; i++ {
			res, err := (&opt.GD{Step: 0.5}).Run(spec, ds, 60)
			if err != nil {
				b.Fatal(err)
			}
			if e, ok := res.Curve.EpochsTo(target); ok {
				epochs = float64(e)
			} else {
				epochs = 61
			}
		}
		b.ReportMetric(epochs, "epochs-to-loss")
	})
	b.Run("lbfgs", func(b *testing.B) {
		var epochs float64
		for i := 0; i < b.N; i++ {
			res, err := (&opt.LBFGS{}).Run(spec, ds, 60)
			if err != nil {
				b.Fatal(err)
			}
			if e, ok := res.Curve.EpochsTo(target); ok {
				epochs = float64(e)
			} else {
				epochs = 61
			}
		}
		b.ReportMetric(epochs, "epochs-to-loss")
	})
	b.Run("minibatch", func(b *testing.B) {
		var epochs float64
		for i := 0; i < b.N; i++ {
			res, err := (&opt.MiniBatch{Fraction: 0.1, Step: 0.5, Seed: 2}).Run(spec, ds, 60)
			if err != nil {
				b.Fatal(err)
			}
			if e, ok := res.Curve.EpochsTo(target); ok {
				epochs = float64(e)
			} else {
				epochs = 61
			}
		}
		b.ReportMetric(epochs, "epochs-to-loss")
	})
}

// BenchmarkGibbsThroughput measures the sampler's variables/second
// under both chain placements (Figure 17b's raw metric), through the
// workload engine.
func BenchmarkGibbsThroughput(b *testing.B) {
	g := factor.Paleo()
	plans := []struct {
		name string
		plan core.Plan
	}{
		{"PerMachine", core.Plan{ModelRep: core.PerMachine, DataRep: core.Sharding, Seed: 1}},
		{"PerNode", core.Plan{ModelRep: core.PerNode, DataRep: core.FullReplication, Seed: 1}},
	}
	for _, c := range plans {
		b.Run(c.name, func(b *testing.B) {
			var tp float64
			for i := 0; i < b.N; i++ {
				eng, err := core.NewWorkload(factor.NewWorkload(g), c.plan)
				if err != nil {
					b.Fatal(err)
				}
				steps := 0
				for _, er := range eng.RunEpochs(2) {
					steps += er.Steps
				}
				tp = float64(steps) / eng.SimTime().Seconds()
			}
			b.ReportMetric(tp/1e6, "Msamples/s")
		})
	}
}

// BenchmarkGibbsExecutors measures real wall-clock sweep times of the
// simulated and parallel executors on identical Gibbs plans and writes
// the measurements to BENCH_gibbs.json — the CI bench smoke step
// (-bench='BenchmarkFig6Executors|BenchmarkGibbsExecutors'
// -benchtime=1x) seeds the sampling wall-clock trajectory from it.
func BenchmarkGibbsExecutors(b *testing.B) {
	var entries []experiments.GibbsWallEntry
	for i := 0; i < b.N; i++ {
		entries = experiments.GibbsWallEntries(true)
	}
	for _, e := range entries {
		b.ReportMetric(e.SamplesPerSec/1e6, e.ModelRep+"_"+e.Executor+"_Msamples/s")
	}
	buf, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_gibbs.json", buf, 0o644); err != nil {
		b.Fatal(err)
	}
}
