package experiments

import (
	"fmt"

	"dimmwitted/internal/baseline"
	"dimmwitted/internal/core"
	"dimmwitted/internal/data"
	"dimmwitted/internal/model"
	"dimmwitted/internal/numa"
)

// fig11Task is one row group of the end-to-end comparison.
type fig11Task struct {
	label string
	spec  model.Spec
	ds    *data.Dataset
}

// fig11Tasks returns the paper's task grid (Figure 11): SVM/LR/LS on
// the four supervised datasets, LP/QP on the two graphs.
func fig11Tasks(quick bool) []fig11Task {
	if quick {
		return []fig11Task{
			{"SVM/Reuters", model.NewSVM(), data.Reuters()},
			{"LS/Forest", model.NewLS(), forestRegression()},
			{"LP/Amazon", model.NewLP(), data.AmazonLP()},
		}
	}
	return []fig11Task{
		{"SVM/Reuters", model.NewSVM(), data.Reuters()},
		{"SVM/RCV1", model.NewSVM(), data.RCV1()},
		{"SVM/Music", model.NewSVM(), data.Music()},
		{"SVM/Forest", model.NewSVM(), data.Forest()},
		{"LR/Reuters", model.NewLR(), data.Reuters()},
		{"LR/RCV1", model.NewLR(), data.RCV1()},
		{"LR/Music", model.NewLR(), data.Music()},
		{"LR/Forest", model.NewLR(), data.Forest()},
		{"LS/Reuters", model.NewLS(), reutersRegression()},
		{"LS/Music", model.NewLS(), data.MusicRegression()},
		{"LS/Forest", model.NewLS(), forestRegression()},
		{"LP/Amazon", model.NewLP(), data.AmazonLP()},
		{"LP/Google", model.NewLP(), data.GoogleLP()},
		{"QP/Amazon", model.NewQP(), data.AmazonQP()},
		{"QP/Google", model.NewQP(), data.GoogleQP()},
	}
}

// reutersRegression returns a regression variant of the Reuters shape.
func reutersRegression() *data.Dataset {
	return data.GenerateSparse(data.SparseConfig{
		Name: "reuters", Rows: 800, Cols: 1600, NNZPerRow: 12,
		Noise: 0.1, Regression: true, Seed: 102,
	})
}

// forestRegression returns a regression variant of the Forest shape.
func forestRegression() *data.Dataset {
	return data.GenerateDense(data.DenseConfig{
		Name: "forest", Rows: 2500, Cols: 54, Noise: 0.1,
		Regression: true, Seed: 104,
	})
}

// Fig11 reproduces the end-to-end comparison table (Figure 11): time
// for each of the five systems to reach 50% and 1% of the optimal
// loss on every task, on local2.
func Fig11(quick bool) *Result {
	t := &Table{
		Name:  "fig11",
		Title: "End-to-end: simulated seconds to reach 50% / 1% of optimal loss (local2)",
		Header: []string{"task", "GraphLab 50%", "GraphChi 50%", "MLlib 50%", "Hogwild! 50%", "DW 50%",
			"GraphLab 1%", "GraphChi 1%", "MLlib 1%", "Hogwild! 1%", "DW 1%"},
	}
	metrics := map[string]float64{}
	maxEpochs := epochsArg(quick, 300)
	for _, task := range fig11Tasks(quick) {
		opt := OptimalLoss(task.spec, task.ds)
		row := []string{task.label}
		var cells50, cells1 []string
		for _, sys := range baseline.Systems() {
			res, err := baseline.Run(sys, task.spec, task.ds, numa.Local2, targetFor(opt, 1), maxEpochs)
			if err != nil {
				cells50 = append(cells50, "n/a")
				cells1 = append(cells1, "n/a")
				continue
			}
			t50, _, ok50 := timeToTarget(res.History, targetFor(opt, 50))
			if !ok50 {
				t50 = res.Time
			}
			t1, _, ok1 := timeToTarget(res.History, targetFor(opt, 1))
			if !ok1 {
				t1 = res.Time
			}
			cells50 = append(cells50, fmtSecs(t50, ok50))
			cells1 = append(cells1, fmtSecs(t1, ok1))
			metrics[fmt.Sprintf("t50/%s/%s", task.label, sys)] = t50.Seconds()
			metrics[fmt.Sprintf("t1/%s/%s", task.label, sys)] = t1.Seconds()
			if !ok1 {
				metrics[fmt.Sprintf("timeout1/%s/%s", task.label, sys)] = 1
			}
		}
		row = append(row, cells50...)
		row = append(row, cells1...)
		t.Rows = append(t.Rows, row)
	}
	t.Notes = "paper: DimmWitted converges in less time than every competitor on every task"
	return &Result{Table: t, Metrics: metrics}
}

// Fig12a reproduces Figure 12(a): time to reach each error level under
// forced access methods (best remaining tradeoffs), on local4.
func Fig12a(quick bool) *Result {
	t := &Table{
		Name:   "fig12a",
		Title:  "Access-method selection: simulated seconds to error targets (local4)",
		Header: []string{"task", "error", "row-wise", "column"},
	}
	metrics := map[string]float64{}
	cases := []struct {
		label string
		spec  model.Spec
		ds    *data.Dataset
		// best remaining tradeoffs per access method
		rowRep, colRep core.ModelReplication
	}{
		{"SVM/RCV1", model.NewSVM(), data.RCV1(), core.PerNode, core.PerMachine},
		{"SVM/Music", model.NewSVM(), data.Music(), core.PerNode, core.PerMachine},
		{"LP/Amazon", model.NewLP(), data.AmazonLP(), core.PerNode, core.PerMachine},
		{"LP/Google", model.NewLP(), data.GoogleLP(), core.PerNode, core.PerMachine},
	}
	if quick {
		cases = []struct {
			label          string
			spec           model.Spec
			ds             *data.Dataset
			rowRep, colRep core.ModelReplication
		}{cases[0], cases[2]} // one SVM, one LP
	}
	max := epochsArg(quick, 200)
	for _, c := range cases {
		opt := OptimalLoss(c.spec, c.ds)
		colAccess := c.spec.Supports()[0]
		if colAccess == model.RowWise {
			colAccess = c.spec.Supports()[1]
		}
		rowHist := runEngine(c.spec, c.ds, core.Plan{
			Access: model.RowWise, ModelRep: c.rowRep, DataRep: core.FullReplication,
			Machine: numa.Local4, Seed: 2,
		}).RunEpochs(max)
		colHist := runEngine(c.spec, c.ds, core.Plan{
			Access: colAccess, ModelRep: c.colRep, DataRep: core.FullReplication,
			Machine: numa.Local4, Seed: 2,
		}).RunEpochs(max)
		for _, pct := range []float64{100, 50, 10, 1} {
			target := targetFor(opt, pct)
			rt, _, rok := timeToTarget(rowHist, target)
			ct, _, cok := timeToTarget(colHist, target)
			if !rok {
				rt = rowHist[len(rowHist)-1].CumTime
			}
			if !cok {
				ct = colHist[len(colHist)-1].CumTime
			}
			t.Rows = append(t.Rows, []string{
				c.label, fmt.Sprintf("%.0f%%", pct), fmtSecs(rt, rok), fmtSecs(ct, cok),
			})
			metrics[fmt.Sprintf("row/%s/%.0f", c.label, pct)] = rt.Seconds()
			metrics[fmt.Sprintf("col/%s/%.0f", c.label, pct)] = ct.Seconds()
			if !rok {
				metrics[fmt.Sprintf("rowTimeout/%s/%.0f", c.label, pct)] = 1
			}
		}
	}
	t.Notes = "paper: row-wise dominates SVM; column-wise dominates LP (row-wise times out at 1%)"
	return &Result{Table: t, Metrics: metrics}
}

// Fig12b reproduces Figure 12(b): time to error targets under forced
// model replication, on local4.
func Fig12b(quick bool) *Result {
	t := &Table{
		Name:   "fig12b",
		Title:  "Model replication: simulated seconds to error targets (local4)",
		Header: []string{"task", "error", "PerCore", "PerNode", "PerMachine"},
	}
	metrics := map[string]float64{}
	cases := []struct {
		label  string
		spec   model.Spec
		ds     *data.Dataset
		access model.Access
	}{
		{"SVM/RCV1", model.NewSVM(), data.RCV1(), model.RowWise},
		{"SVM/Music", model.NewSVM(), data.Music(), model.RowWise},
		{"LP/Amazon", model.NewLP(), data.AmazonLP(), model.ColWise},
		{"LP/Google", model.NewLP(), data.GoogleLP(), model.ColWise},
	}
	if quick {
		cases = []struct {
			label  string
			spec   model.Spec
			ds     *data.Dataset
			access model.Access
		}{cases[0], cases[2]}
	}
	max := epochsArg(quick, 200)
	for _, c := range cases {
		opt := OptimalLoss(c.spec, c.ds)
		hists := map[core.ModelReplication][]core.EpochResult{}
		for _, rep := range []core.ModelReplication{core.PerCore, core.PerNode, core.PerMachine} {
			hists[rep] = runEngine(c.spec, c.ds, core.Plan{
				Access: c.access, ModelRep: rep, DataRep: core.FullReplication,
				Machine: numa.Local4, Seed: 2,
			}).RunEpochs(max)
		}
		for _, pct := range []float64{100, 50, 10, 1} {
			target := targetFor(opt, pct)
			row := []string{c.label, fmt.Sprintf("%.0f%%", pct)}
			for _, rep := range []core.ModelReplication{core.PerCore, core.PerNode, core.PerMachine} {
				tt, _, ok := timeToTarget(hists[rep], target)
				if !ok {
					tt = hists[rep][len(hists[rep])-1].CumTime
				}
				row = append(row, fmtSecs(tt, ok))
				metrics[fmt.Sprintf("%v/%s/%.0f", rep, c.label, pct)] = tt.Seconds()
				if !ok {
					metrics[fmt.Sprintf("timeout/%v/%s/%.0f", rep, c.label, pct)] = 1
				}
			}
			t.Rows = append(t.Rows, row)
		}
	}
	t.Notes = "paper: PerNode wins for SVM (12x at 50%); PerMachine wins for LP at 1% (14x)"
	return &Result{Table: t, Metrics: metrics}
}

// Fig13 reproduces Figure 13: throughput (GB/s of dataset processed
// per epoch) of the five systems on parallel sum and the statistical
// models, on local2.
func Fig13(quick bool) *Result {
	t := &Table{
		Name:   "fig13",
		Title:  "Throughput (simulated GB/s) on local2",
		Header: []string{"system", "SVM (RCV1)", "LP (Google)", "parallel sum"},
	}
	metrics := map[string]float64{}
	sumDS := data.ParallelSum(20000, 16)
	if quick {
		sumDS = data.ParallelSum(4000, 16)
	}
	svmDS := data.RCV1()
	lpDS := data.GoogleLP()
	tasks := []struct {
		name string
		spec model.Spec
		ds   *data.Dataset
	}{
		{"SVM (RCV1)", model.NewSVM(), svmDS},
		{"LP (Google)", model.NewLP(), lpDS},
		{"parallel sum", model.NewParallelSum(), sumDS},
	}
	for _, sys := range baseline.Systems() {
		row := []string{string(sys)}
		for _, task := range tasks {
			plan, err := baseline.PlanFor(sys, task.spec, task.ds, numa.Local2)
			if err != nil {
				row = append(row, "n/a")
				continue
			}
			eng := runEngine(task.spec, task.ds, plan)
			er := eng.RunEpoch()
			gbps := float64(task.ds.A.Bytes()) / er.SimTime.Seconds() / 1e9
			row = append(row, fmt.Sprintf("%.3g", gbps))
			metrics[fmt.Sprintf("gbps/%s/%s", sys, task.name)] = gbps
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = "paper: DW tops every column; 1.6x Hogwild! and ~20x GraphLab on parallel sum"
	return &Result{Table: t, Metrics: metrics}
}

// Fig14 reproduces Figure 14: the plans the optimizer chooses per
// dataset on local2.
func Fig14(quick bool) *Result {
	t := &Table{
		Name:   "fig14",
		Title:  "Optimizer plan choices (local2)",
		Header: []string{"task", "access", "model replication", "data replication"},
	}
	metrics := map[string]float64{}
	cases := []struct {
		label string
		spec  model.Spec
		ds    *data.Dataset
	}{
		{"SVM/Reuters", model.NewSVM(), data.Reuters()},
		{"SVM/RCV1", model.NewSVM(), data.RCV1()},
		{"SVM/Music", model.NewSVM(), data.Music()},
		{"LR/RCV1", model.NewLR(), data.RCV1()},
		{"LS/Music", model.NewLS(), data.MusicRegression()},
		{"LP/Amazon", model.NewLP(), data.AmazonLP()},
		{"LP/Google", model.NewLP(), data.GoogleLP()},
		{"QP/Amazon", model.NewQP(), data.AmazonQP()},
		{"QP/Google", model.NewQP(), data.GoogleQP()},
	}
	for _, c := range cases {
		dec, err := core.ChoosePlanModel(core.NewGLM(c.spec, c.ds), numa.Local2, core.ExecSimulated, nil)
		if err != nil {
			panic(err)
		}
		plan := dec.Plan
		t.Rows = append(t.Rows, []string{c.label, plan.Access.String(), plan.ModelRep.String(), plan.DataRep.String()})
		if plan.Access == model.RowWise {
			metrics["row/"+c.label] = 1
		} else {
			metrics["col/"+c.label] = 1
		}
	}
	t.Notes = "paper: row/PerNode/FullRepl for SVM-LR-LS; column/PerMachine/FullRepl for LP-QP"
	return &Result{Table: t, Metrics: metrics}
}
