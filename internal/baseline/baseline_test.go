package baseline

import (
	"testing"

	"dimmwitted/internal/core"
	"dimmwitted/internal/data"
	"dimmwitted/internal/model"
	"dimmwitted/internal/numa"
)

func TestPlanForFixedPoints(t *testing.T) {
	svm := model.NewSVM()
	ds := data.Reuters()
	hw, err := PlanFor(Hogwild, svm, ds, numa.Local2)
	if err != nil {
		t.Fatal(err)
	}
	if hw.Access != model.RowWise || hw.ModelRep != core.PerMachine || hw.DataRep != core.Sharding {
		t.Errorf("Hogwild plan = %v", hw)
	}
	gl, err := PlanFor(GraphLab, svm, ds, numa.Local2)
	if err != nil {
		t.Fatal(err)
	}
	if gl.Access != model.ColToRow || gl.ModelRep != core.PerMachine {
		t.Errorf("GraphLab plan = %v", gl)
	}
	if gl.StepOverheadCycles <= 0 {
		t.Error("GraphLab has no scheduling overhead")
	}
	gc, err := PlanFor(GraphChi, svm, ds, numa.Local2)
	if err != nil {
		t.Fatal(err)
	}
	if gc.StepOverheadCycles >= gl.StepOverheadCycles {
		t.Error("GraphChi overhead should be lighter than GraphLab's")
	}
	ml, err := PlanFor(MLlib, svm, ds, numa.Local2)
	if err != nil {
		t.Fatal(err)
	}
	if ml.ModelRep != core.PerCore || ml.ComputeScale != 3 || ml.EpochOverheadCycles <= 0 {
		t.Errorf("MLlib plan = %+v", ml)
	}
	if _, err := PlanFor(System("nope"), svm, ds, numa.Local2); err == nil {
		t.Error("unknown system accepted")
	}
}

func TestSystemsList(t *testing.T) {
	ss := Systems()
	if len(ss) != 5 || ss[4] != DimmWitted {
		t.Errorf("Systems() = %v", ss)
	}
}

func TestDimmWittedBeatsAllOnSVM(t *testing.T) {
	// Figure 11's headline: DimmWitted converges to the target loss in
	// less simulated time than every competitor.
	spec := model.NewSVM()
	ds := data.Reuters()
	init := spec.Loss(ds, spec.NewReplica(ds).X)
	target := init * 0.3

	times := map[System]float64{}
	for _, sys := range Systems() {
		res, err := Run(sys, spec, ds, numa.Local2, target, 400)
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if !res.Converged {
			// Competitors may time out (the paper's "> 300"); treat
			// the elapsed time as a lower bound.
			t.Logf("%s did not converge in 400 epochs (loss %v)", sys, res.FinalLoss)
		}
		times[sys] = res.Time.Seconds()
	}
	for _, sys := range []System{GraphLab, GraphChi, MLlib, Hogwild} {
		if times[DimmWitted] >= times[sys] {
			t.Errorf("DimmWitted (%.4gs) not faster than %s (%.4gs)", times[DimmWitted], sys, times[sys])
		}
	}
}

func TestDimmWittedBeatsHogwildViaModelReplication(t *testing.T) {
	// On SVM/RCV1 the gap to Hogwild! comes from PerNode vs PerMachine.
	spec := model.NewSVM()
	ds := data.RCV1()
	init := spec.Loss(ds, spec.NewReplica(ds).X)
	target := init * 0.3
	dw, err := Run(DimmWitted, spec, ds, numa.Local2, target, 200)
	if err != nil {
		t.Fatal(err)
	}
	hw, err := Run(Hogwild, spec, ds, numa.Local2, target, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !dw.Converged {
		t.Fatal("DimmWitted did not converge")
	}
	ratio := hw.Time.Seconds() / dw.Time.Seconds()
	if ratio < 2 {
		t.Errorf("Hogwild/DW time ratio = %.1f, want >= 2 (paper: up to 10x)", ratio)
	}
}

func TestMLlibNeedsMoreEpochsThanDW(t *testing.T) {
	// Batch gradient descent vs SGD: the paper measures ~60x more
	// epochs on Forest; shape-wise MLlib must need several times more.
	spec := model.NewSVM()
	ds := data.Forest()
	init := spec.Loss(ds, spec.NewReplica(ds).X)
	target := init * 0.3
	dw, err := Run(DimmWitted, spec, ds, numa.Local2, target, 400)
	if err != nil {
		t.Fatal(err)
	}
	ml, err := Run(MLlib, spec, ds, numa.Local2, target, 400)
	if err != nil {
		t.Fatal(err)
	}
	if !dw.Converged {
		t.Fatal("DimmWitted did not converge on Forest")
	}
	if ml.Converged && ml.Epochs < 3*dw.Epochs {
		t.Errorf("MLlib epochs (%d) not well above DW's (%d)", ml.Epochs, dw.Epochs)
	}
}

func TestGraphLabCompetitiveOnLP(t *testing.T) {
	// Figure 11 LP: GraphLab/GraphChi sit within a small factor of
	// DimmWitted (both use column access), unlike row-wise systems.
	spec := model.NewLP()
	ds := data.AmazonLP()
	optimal := func() float64 {
		wl := core.NewGLM(spec, ds)
		dec, _ := core.ChoosePlanModel(wl, numa.Local2, core.ExecSimulated, nil)
		e, _ := core.NewWorkload(wl, dec.Plan)
		return e.RunEpochs(60)[59].Loss
	}()
	target := optimal * 1.05
	dw, err := Run(DimmWitted, spec, ds, numa.Local2, target, 200)
	if err != nil {
		t.Fatal(err)
	}
	gl, err := Run(GraphLab, spec, ds, numa.Local2, target, 200)
	if err != nil {
		t.Fatal(err)
	}
	hw, err := Run(Hogwild, spec, ds, numa.Local2, target, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !dw.Converged || !gl.Converged {
		t.Fatalf("column systems did not converge: dw=%v gl=%v", dw.Converged, gl.Converged)
	}
	glRatio := gl.Time.Seconds() / dw.Time.Seconds()
	if glRatio < 1 || glRatio > 20 {
		t.Errorf("GraphLab/DW on LP = %.1f, want a small factor > 1", glRatio)
	}
	// Row-wise Hogwild! should be far behind (paper: >120s vs 0.94s).
	if hw.Converged && hw.Time.Seconds() < gl.Time.Seconds() {
		t.Errorf("Hogwild (%v) beat GraphLab (%v) on LP", hw.Time, gl.Time)
	}
}

func TestBatchGradientReducesLoss(t *testing.T) {
	spec := model.NewLR()
	ds := data.Forest()
	plan, err := PlanFor(MLlib, spec, ds, numa.Local2)
	if err != nil {
		t.Fatal(err)
	}
	init := spec.Loss(ds, spec.NewReplica(ds).X)
	res, err := runBatchGradient(spec, ds, plan, 0, 30)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalLoss >= init {
		t.Errorf("batch gradient loss %v -> %v", init, res.FinalLoss)
	}
	// Monotone-ish: loss after 30 epochs well below after 3.
	if res.History[29].Loss >= res.History[2].Loss {
		t.Errorf("batch gradient not progressing: %v vs %v", res.History[29].Loss, res.History[2].Loss)
	}
}

func TestGraphLabRejectsModelsWithoutColumnMethod(t *testing.T) {
	if _, err := PlanFor(GraphLab, model.NewParallelSum(), data.ParallelSum(10, 2), numa.Local2); err != nil {
		// parallel sum supports ColWise, so this should actually work
		t.Fatalf("unexpected: %v", err)
	}
}
