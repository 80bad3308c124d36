package experiments

import (
	"fmt"

	"dimmwitted/internal/core"
	"dimmwitted/internal/data"
	"dimmwitted/internal/factor"
	"dimmwitted/internal/model"
	"dimmwitted/internal/numa"
	"dimmwitted/internal/trace"
)

// TraceEntry is one traced run's phase breakdown, JSON-shaped for the
// trace smoke artifact (BENCH_trace.json, written by dwbench -trace in
// CI next to the wall-clock artifacts).
type TraceEntry struct {
	Workload string `json:"workload"`
	Task     string `json:"task"`
	Executor string `json:"executor"`
	Plan     string `json:"plan"`
	Epochs   int    `json:"epochs"`
	// Summary is the recorder's aggregate breakdown: raw per-phase
	// seconds plus the derived step/barrier split and the coverage
	// ratio (named spans over epoch wall clock).
	Summary trace.Summary `json:"summary"`
	Error   string        `json:"error,omitempty"`
}

// TraceEntries runs a sim-vs-parallel pair per workload family with
// the span recorder on — the delta-flush path (SVM on replicated
// Reuters) and the shared-state path (Gibbs on paleo-xl) — and returns
// each run's phase breakdown. This is the engine's time-attribution
// smoke: where the executor comparisons measure *how long* an epoch
// takes, this measures *where the time goes*. The inputs are the same
// benchmark-scale ones the wall-clock comparisons use, so the phase
// split describes the regime where the parallel backend wins.
func TraceEntries(quick bool) []TraceEntry {
	glmEpochs, sweeps := 6, 20
	if quick {
		glmEpochs, sweeps = 2, 5
	}

	var out []TraceEntry
	spec, ds := model.NewSVM(), data.ReutersReplicated()
	for _, exec := range []core.ExecutorKind{core.ExecSimulated, core.ExecParallel} {
		entry := TraceEntry{Workload: "glm", Task: spec.Name() + "/" + ds.Name, Executor: exec.String()}
		wl := core.NewGLM(spec, ds)
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
		out = append(out, traceRun(entry, eng, glmEpochs))
	}

	g, err := factor.GraphByName("paleo-xl")
	if err != nil {
		return append(out, TraceEntry{Workload: "gibbs", Task: "paleo-xl", Error: err.Error()})
	}
	for _, exec := range []core.ExecutorKind{core.ExecSimulated, core.ExecParallel} {
		entry := TraceEntry{Workload: "gibbs", Task: g.Name, Executor: exec.String()}
		plan := core.Plan{ModelRep: core.PerNode, DataRep: core.FullReplication, Seed: 1, Executor: exec}
		eng, err := core.NewWorkload(factor.NewWorkload(g), plan)
		if err != nil {
			entry.Error = err.Error()
			out = append(out, entry)
			continue
		}
		out = append(out, traceRun(entry, eng, sweeps))
	}
	return out
}

// traceRun attaches a fresh recorder, runs the epoch budget and fills
// in the entry's breakdown.
func traceRun(entry TraceEntry, eng *core.Engine, epochs int) TraceEntry {
	eng.SetRecorder(trace.New(trace.Config{}))
	eng.RunEpochs(epochs)
	entry.Plan = eng.Plan().String()
	entry.Epochs = eng.Epoch()
	entry.Summary = eng.Recorder().Summary()
	return entry
}

// TraceResult renders the traced pairs as the step-vs-flush-vs-barrier
// table dwbench -trace prints. Metrics expose each run's coverage so
// the harness can assert the spans account for the epoch wall clock.
func TraceResult(entries []TraceEntry) *Result {
	t := &Table{
		Name:   "tracewall",
		Title:  "traced sim vs parallel pairs: where each epoch-second goes",
		Header: []string{"workload", "task", "executor", "epochs", "epoch s", "step s", "flush s", "steal s", "barrier s", "coverage"},
		Notes:  "step = pure update work; flush = fused delta pushes to shared masters; steal = time spent draining other workers' queues; barrier = pool wakeup lag + straggler wait; coverage = named spans / epoch wall clock",
	}
	metrics := map[string]float64{}
	for _, e := range entries {
		if e.Error != "" {
			t.Rows = append(t.Rows, []string{e.Workload, e.Task, e.Executor, "ERROR: " + e.Error, "-", "-", "-", "-", "-", "-"})
			continue
		}
		s := e.Summary
		t.Rows = append(t.Rows, []string{
			e.Workload, e.Task, e.Executor,
			fmt.Sprintf("%d", e.Epochs),
			fmt.Sprintf("%.4f", s.EpochSeconds),
			fmt.Sprintf("%.4f", s.StepSeconds),
			fmt.Sprintf("%.4f", phaseSeconds(s, "flush")),
			fmt.Sprintf("%.4f", phaseSeconds(s, "steal")),
			fmt.Sprintf("%.4f", s.BarrierSeconds),
			fmt.Sprintf("%.3f", s.Coverage),
		})
		metrics[fmt.Sprintf("%s_%s_coverage", e.Workload, e.Executor)] = s.Coverage
		metrics[fmt.Sprintf("%s_%s_epoch_s", e.Workload, e.Executor)] = s.EpochSeconds
	}
	return &Result{Table: t, Metrics: metrics}
}

// phaseSeconds reads one named phase's summed seconds from a summary
// (zero when the run never recorded the phase).
func phaseSeconds(s trace.Summary, phase string) float64 {
	for _, p := range s.Phases {
		if p.Phase == phase {
			return p.Seconds
		}
	}
	return 0
}
