package dimmwitted

import "testing"

// TestQuickstart exercises the documented happy path of the public API.
func TestQuickstart(t *testing.T) {
	ds := Reuters()
	spec := SVM()
	wl := GLMWorkload(spec, ds)
	dec, err := ChoosePlanModel(wl, Local2, ExecSimulated, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan := dec.Plan; plan.Access != RowWise || plan.ModelRep != PerNode {
		t.Errorf("unexpected plan %v", plan)
	}
	eng, err := NewWorkloadEngine(wl, dec.Plan)
	if err != nil {
		t.Fatal(err)
	}
	res := eng.RunToLoss(0.2, 40)
	if !res.Converged {
		t.Fatalf("quickstart did not converge: %v", res.FinalLoss)
	}
	if len(eng.Model()) != ds.Cols() {
		t.Errorf("model dim %d, want %d", len(eng.Model()), ds.Cols())
	}
}

func TestFacadeConstructors(t *testing.T) {
	for _, spec := range []Spec{SVM(), LR(), LS(), LP(), QP(), ParallelSum()} {
		if spec.Name() == "" {
			t.Error("unnamed spec")
		}
	}
	for _, ds := range []*Dataset{RCV1(), Reuters(), Music(), MusicRegression(), Forest(),
		AmazonLP(), GoogleLP(), AmazonQP(), GoogleQP(), ClueWeb(0.02)} {
		if err := ds.Validate(); err != nil {
			t.Errorf("%s: %v", ds.Name, err)
		}
	}
	if _, err := ModelByName("svm"); err != nil {
		t.Error(err)
	}
	if _, err := MachineByName("local8"); err != nil {
		t.Error(err)
	}
	if sub := SubsampleSparsity(Music(), 0.1, 1); sub.NNZ() >= Music().NNZ() {
		t.Error("subsample did not thin")
	}
	if sub := SubsampleRows(Reuters(), 0.5, 1); sub.Rows() != Reuters().Rows()/2 {
		t.Error("row subsample wrong")
	}
}

func TestFacadeExplainAndParallelExecutor(t *testing.T) {
	ests := Explain(SVM(), Reuters(), Local2)
	if len(ests) != 2 {
		t.Fatalf("Explain returned %d estimates", len(ests))
	}
	if _, err := ExecutorByName("bogus"); err == nil {
		t.Error("bogus executor name accepted")
	}
	dec, err := ChoosePlanModel(GLMWorkload(SVM(), Reuters()), Local2, ExecParallel, nil)
	if err != nil {
		t.Fatal(err)
	}
	plan := dec.Plan
	if plan.Access != RowWise || plan.Executor != ExecParallel {
		t.Errorf("parallel plan chose %v/%v", plan.Access, plan.Executor)
	}
	plan.Workers = 4
	eng, err := New(SVM(), Reuters(), plan)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		eng.RunEpoch()
	}
	if x := eng.Model(); len(x) != Reuters().Cols() {
		t.Errorf("parallel model dim %d", len(x))
	}
	if eng.WallTime() <= 0 {
		t.Error("parallel engine reported no wall time")
	}
}
