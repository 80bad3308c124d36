package experiments

import (
	"fmt"
	"time"

	"dimmwitted/internal/core"
	"dimmwitted/internal/data"
	"dimmwitted/internal/factor"
	"dimmwitted/internal/model"
	"dimmwitted/internal/numa"
)

// ExecWallEntry is one executor-comparison measurement, JSON-shaped
// for the benchmark smoke artifact (BENCH_parallel.json, written by
// the BenchmarkFig6Executors smoke step in CI).
type ExecWallEntry struct {
	Model               string  `json:"model"`
	Dataset             string  `json:"dataset"`
	Executor            string  `json:"executor"`
	Plan                string  `json:"plan"`
	Epochs              int     `json:"epochs"`
	WallSecondsPerEpoch float64 `json:"wall_seconds_per_epoch"`
	FinalLoss           float64 `json:"final_loss"`
	// Error records a task/backend combination that failed to plan or
	// build, so the artifact never silently omits coverage.
	Error string `json:"error,omitempty"`
}

// ExecWallEntries runs the same optimizer-chosen row-wise plans on
// both execution backends and measures real wall-clock epoch times.
// Unlike every other experiment in this package, the object of study
// is not the simulated clock: this is the one place the repository
// measures how long an epoch of the engine actually takes, seeding the
// wall-clock benchmark trajectory.
func ExecWallEntries(quick bool) []ExecWallEntry {
	epochs := 8
	if quick {
		epochs = 2
	}
	// The sparse text tasks run at the replicated-Reuters scale: large
	// enough that an epoch's real step work dominates the parallel
	// backend's orchestration (pool wakeup, steal cursors, barrier), so
	// the comparison measures executors rather than fixed overheads.
	tasks := []struct {
		spec model.Spec
		ds   *data.Dataset
	}{
		{model.NewSVM(), data.ReutersReplicated()},
		{model.NewLR(), data.ReutersReplicated()},
		{model.NewLS(), data.MusicRegressionReplicated()},
	}
	var out []ExecWallEntry
	for _, task := range tasks {
		for _, exec := range []core.ExecutorKind{core.ExecSimulated, core.ExecParallel} {
			entry := ExecWallEntry{
				Model:    task.spec.Name(),
				Dataset:  task.ds.Name,
				Executor: exec.String(),
			}
			wl := core.NewGLM(task.spec, task.ds)
			dec, err := core.ChoosePlanModel(wl, numa.Local2, exec, nil)
			var eng *core.Engine
			if err == nil {
				eng, err = core.NewWorkload(wl, dec.Plan)
			}
			if err != nil {
				entry.Error = err.Error()
				out = append(out, entry)
				continue
			}
			start := time.Now()
			res := eng.RunToLoss(0, epochs)
			wall := time.Since(start)
			entry.Plan = dec.Plan.String()
			entry.Epochs = res.Epochs
			entry.WallSecondsPerEpoch = wall.Seconds() / float64(res.Epochs)
			entry.FinalLoss = res.FinalLoss
			out = append(out, entry)
		}
	}
	return out
}

// GibbsWallEntry is one Gibbs executor-comparison measurement,
// JSON-shaped for the benchmark smoke artifact (BENCH_gibbs.json,
// written by the BenchmarkGibbsExecutors smoke step in CI).
type GibbsWallEntry struct {
	Graph         string  `json:"graph"`
	ModelRep      string  `json:"model_rep"`
	Executor      string  `json:"executor"`
	Plan          string  `json:"plan"`
	Sweeps        int     `json:"sweeps"`
	Samples       int     `json:"samples"`
	SamplesPerSec float64 `json:"samples_per_sec"`
	// MaxAbsError is the largest deviation of the pooled marginals
	// from the exact ones, reported only when the graph is small
	// enough for exact inference (it is omitted at benchmark scale).
	MaxAbsError float64 `json:"max_abs_error,omitempty"`
	Error       string  `json:"error,omitempty"`
}

// GibbsWallEntries runs the same Gibbs chain placements on both
// execution backends and measures real wall-clock sampling throughput
// on the benchmark-scale paleo-xl graph (20k variables), where a
// sweep's sampling work amortizes the parallel backend's pool and
// barrier costs. Exact inference is 2^vars, so the marginal-quality
// column is only filled in when the graph happens to be tractable;
// statistical validity at this scale is covered by the sim-vs-parallel
// marginal-parity tests on the small validation graphs.
func GibbsWallEntries(quick bool) []GibbsWallEntry {
	sweeps := 30
	if quick {
		sweeps = 8
	}
	g, err := factor.GraphByName("paleo-xl")
	if err != nil {
		return []GibbsWallEntry{{Graph: "paleo-xl", Error: err.Error()}}
	}
	exact, exactErr := factor.ExactMarginals(g)
	placements := []struct {
		name string
		plan core.Plan
	}{
		{"PerMachine", core.Plan{ModelRep: core.PerMachine, DataRep: core.Sharding, Seed: 1}},
		{"PerNode", core.Plan{ModelRep: core.PerNode, DataRep: core.FullReplication, Seed: 1}},
	}
	var out []GibbsWallEntry
	for _, pl := range placements {
		for _, exec := range []core.ExecutorKind{core.ExecSimulated, core.ExecParallel} {
			entry := GibbsWallEntry{Graph: g.Name, ModelRep: pl.name, Executor: exec.String()}
			plan := pl.plan
			plan.Executor = exec
			eng, err := core.NewWorkload(factor.NewWorkload(g), plan)
			if err != nil {
				entry.Error = err.Error()
				out = append(out, entry)
				continue
			}
			start := time.Now()
			samples := 0
			for _, er := range eng.RunEpochs(sweeps) {
				samples += er.Steps
			}
			wall := time.Since(start)
			if exactErr == nil {
				var maxErr float64
				for v, p := range eng.Model() {
					if d := p - exact[v]; d > maxErr {
						maxErr = d
					} else if -d > maxErr {
						maxErr = -d
					}
				}
				entry.MaxAbsError = maxErr
			}
			entry.Plan = eng.Plan().String()
			entry.Sweeps = sweeps
			entry.Samples = samples
			entry.SamplesPerSec = float64(samples) / wall.Seconds()
			out = append(out, entry)
		}
	}
	return out
}

// ExecWall renders the executor comparison as a paper-style table.
// Metrics report each task's final losses per backend so the harness
// can assert simulated/parallel statistical parity.
func ExecWall(quick bool) *Result {
	return ExecWallResult(ExecWallEntries(quick))
}

// ExecWallResult builds the table/metrics view of measurements taken
// by ExecWallEntries, so callers that also persist the raw entries
// (dwbench -executors -out) measure exactly once and report one
// consistent set of numbers.
func ExecWallResult(entries []ExecWallEntry) *Result {
	t := &Table{
		Name:   "execwall",
		Title:  "simulated vs parallel executor: wall-clock epoch time, identical plans",
		Header: []string{"model", "dataset", "executor", "plan", "epochs", "wall s/epoch", "final loss"},
		Notes:  "both backends share the engine's partition/replication/combine path; losses should agree, wall time is what the parallel backend buys",
	}
	metrics := map[string]float64{}
	for _, e := range entries {
		if e.Error != "" {
			t.Rows = append(t.Rows, []string{e.Model, e.Dataset, e.Executor, "ERROR: " + e.Error, "-", "-", "-"})
			continue
		}
		t.Rows = append(t.Rows, []string{
			e.Model, e.Dataset, e.Executor, e.Plan,
			fmt.Sprintf("%d", e.Epochs),
			fmt.Sprintf("%.4f", e.WallSecondsPerEpoch),
			fmt.Sprintf("%.6g", e.FinalLoss),
		})
		metrics[fmt.Sprintf("%s_%s_loss", e.Model, e.Executor)] = e.FinalLoss
		metrics[fmt.Sprintf("%s_%s_wall_s", e.Model, e.Executor)] = e.WallSecondsPerEpoch
	}
	return &Result{Table: t, Metrics: metrics}
}

// GibbsWallResult builds the table/metrics view of measurements taken
// by GibbsWallEntries, mirroring ExecWallResult for the sampling
// benchmark.
func GibbsWallResult(entries []GibbsWallEntry) *Result {
	t := &Table{
		Name:   "gibbswall",
		Title:  "simulated vs parallel executor: Gibbs sampling throughput, identical plans",
		Header: []string{"graph", "model rep", "executor", "plan", "sweeps", "samples/s", "max abs err"},
		Notes:  "PerMachine shares one chain across workers (Hogwild!-Gibbs); PerNode pools independent chains; samples/s is what the parallel backend buys",
	}
	metrics := map[string]float64{}
	for _, e := range entries {
		if e.Error != "" {
			t.Rows = append(t.Rows, []string{e.Graph, e.ModelRep, e.Executor, "ERROR: " + e.Error, "-", "-", "-"})
			continue
		}
		errCol := "-"
		if e.MaxAbsError != 0 {
			errCol = fmt.Sprintf("%.4f", e.MaxAbsError)
		}
		t.Rows = append(t.Rows, []string{
			e.Graph, e.ModelRep, e.Executor, e.Plan,
			fmt.Sprintf("%d", e.Sweeps),
			fmt.Sprintf("%.0f", e.SamplesPerSec),
			errCol,
		})
		metrics[fmt.Sprintf("gibbs_%s_%s_samples_per_sec", e.ModelRep, e.Executor)] = e.SamplesPerSec
	}
	return &Result{Table: t, Metrics: metrics}
}

// SpeedupRow summarises one task's parallel-vs-simulated comparison.
// Speedup > 1 means the real-concurrency backend won; Metric names the
// quantity the Simulated/Parallel columns carry.
type SpeedupRow struct {
	Task      string  `json:"task"`
	Metric    string  `json:"metric"`
	Simulated float64 `json:"simulated"`
	Parallel  float64 `json:"parallel"`
	Speedup   float64 `json:"speedup"`
}

// ExecSpeedups pairs the GLM wall-clock entries by task and reports
// the parallel backend's epoch-throughput speedup (simulated wall time
// over parallel wall time). Errored or incomplete pairs are skipped.
func ExecSpeedups(entries []ExecWallEntry) []SpeedupRow {
	type pair struct{ sim, par float64 }
	var order []string
	pairs := map[string]*pair{}
	for _, e := range entries {
		if e.Error != "" || e.WallSecondsPerEpoch <= 0 {
			continue
		}
		key := e.Model + "/" + e.Dataset
		p, ok := pairs[key]
		if !ok {
			p = &pair{}
			pairs[key] = p
			order = append(order, key)
		}
		switch e.Executor {
		case core.ExecSimulated.String():
			p.sim = e.WallSecondsPerEpoch
		case core.ExecParallel.String():
			p.par = e.WallSecondsPerEpoch
		}
	}
	var out []SpeedupRow
	for _, key := range order {
		p := pairs[key]
		if p.sim <= 0 || p.par <= 0 {
			continue
		}
		out = append(out, SpeedupRow{
			Task: key, Metric: "wall_s_per_epoch",
			Simulated: p.sim, Parallel: p.par, Speedup: p.sim / p.par,
		})
	}
	return out
}

// GibbsSpeedups pairs the Gibbs throughput entries by placement and
// reports the parallel backend's samples-per-second speedup.
func GibbsSpeedups(entries []GibbsWallEntry) []SpeedupRow {
	type pair struct{ sim, par float64 }
	var order []string
	pairs := map[string]*pair{}
	for _, e := range entries {
		if e.Error != "" || e.SamplesPerSec <= 0 {
			continue
		}
		key := e.Graph + "/" + e.ModelRep
		p, ok := pairs[key]
		if !ok {
			p = &pair{}
			pairs[key] = p
			order = append(order, key)
		}
		switch e.Executor {
		case core.ExecSimulated.String():
			p.sim = e.SamplesPerSec
		case core.ExecParallel.String():
			p.par = e.SamplesPerSec
		}
	}
	var out []SpeedupRow
	for _, key := range order {
		p := pairs[key]
		if p.sim <= 0 || p.par <= 0 {
			continue
		}
		out = append(out, SpeedupRow{
			Task: key, Metric: "samples_per_sec",
			Simulated: p.sim, Parallel: p.par, Speedup: p.par / p.sim,
		})
	}
	return out
}
