package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dimmwitted/internal/data"
	"dimmwitted/internal/model"
	"dimmwitted/internal/numa"
)

// choosePlan is the static optimizer's plan for a GLM task.
func choosePlan(t *testing.T, spec model.Spec, ds *data.Dataset, top numa.Topology, exec ExecutorKind) Plan {
	t.Helper()
	dec, err := ChoosePlanModel(NewGLM(spec, ds), top, exec, nil)
	if err != nil {
		t.Fatalf("ChoosePlanModel(%s, %s, %v): %v", spec.Name(), ds.Name, exec, err)
	}
	return dec.Plan
}

// referenceChoose is the standalone GLM optimizer that ChoosePlanModel
// replaced as the planning entry point: the cheapest supported access
// under PaperCost (row-wise only on the parallel backend), the
// replication rules of thumb, spec normalization, and the parallel
// backend's 64-step flush chunk.
func referenceChoose(spec model.Spec, ds *data.Dataset, top numa.Topology, exec ExecutorKind) (Plan, error) {
	supported := spec.Supports()
	if exec == ExecParallel {
		rowOK := false
		for _, a := range supported {
			rowOK = rowOK || a == model.RowWise
		}
		if !rowOK {
			return Plan{}, fmt.Errorf("%s has no row-wise method", spec.Name())
		}
		supported = []model.Access{model.RowWise}
	}
	best := supported[0]
	bestCost := PaperCost(spec, ds, best, top)
	for _, a := range supported[1:] {
		if c := PaperCost(spec, ds, a, top); c < bestCost {
			best, bestCost = a, c
		}
	}
	plan := Plan{Access: best, Machine: top, DataRep: FullReplication, Executor: exec, ModelRep: PerMachine}
	if best == model.RowWise {
		plan.ModelRep = PerNode
	}
	if spec.Aggregate() {
		plan.DataRep, plan.ModelRep = Sharding, PerNode
	}
	plan = plan.Normalize(spec)
	if exec == ExecParallel {
		plan.ChunkSize = 64
	}
	return plan, plan.Validate(spec)
}

// TestChoosePlanModelMatchesReference: with no cost model, the single
// planning entry point returns exactly the plan the standalone GLM
// optimizer did, for every bundled spec, registry dataset and
// executor — so figure reproductions that plan through it are
// unchanged.
func TestChoosePlanModelMatchesReference(t *testing.T) {
	for _, name := range data.Names() {
		if h, err := data.HandleByName(name); err != nil || !h.Frozen() {
			continue // a stream another test created, not a bundled dataset
		}
		ds, err := data.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, specName := range []string{"svm", "lr", "ls", "lp", "qp", "sum"} {
			spec, err := model.ByName(specName)
			if err != nil {
				t.Fatal(err)
			}
			for _, exec := range []ExecutorKind{ExecSimulated, ExecParallel} {
				want, wantErr := referenceChoose(spec, ds, numa.Local2, exec)
				dec, err := ChoosePlanModel(NewGLM(spec, ds), numa.Local2, exec, nil)
				if (err != nil) != (wantErr != nil) {
					t.Errorf("%s/%s/%v: error %v, reference error %v", specName, name, exec, err, wantErr)
					continue
				}
				if err == nil && !reflect.DeepEqual(dec.Plan, want) {
					t.Errorf("%s/%s/%v: plan %+v, reference %+v", specName, name, exec, dec.Plan, want)
				}
			}
		}
	}
}

// corruptCopy returns a copy of ds whose CSR has an out-of-range
// column index, leaving ds itself untouched.
func corruptCopy(ds *data.Dataset) *data.Dataset {
	a := *ds.A
	a.ColIdx = append([]int32(nil), a.ColIdx...)
	a.ColIdx[0] = int32(a.Cols)
	return &data.Dataset{Name: ds.Name, Task: ds.Task, A: &a, Labels: ds.Labels, TrueModel: ds.TrueModel,
		Anchors: ds.Anchors, Version: ds.Version}
}

// TestCorruptCSRRejected: every path that takes a dataset into planning
// or training validates it, even though each view is validated only
// once per workload.
func TestCorruptCSRRejected(t *testing.T) {
	spec := model.NewSVM()
	good := data.Reuters()
	bad := corruptCopy(good)
	plan := Plan{Access: model.RowWise}
	cases := map[string]func() error{
		"NewWorkload": func() error { _, err := NewWorkload(NewGLM(spec, bad), plan); return err },
		"New":         func() error { _, err := New(spec, bad, plan); return err },
		"ChoosePlanModel": func() error {
			_, err := ChoosePlanModel(NewGLM(spec, bad), numa.Local2, ExecSimulated, nil)
			return err
		},
		"Grow": func() error {
			wl := NewGLM(spec, good)
			if _, err := NewWorkload(wl, plan); err != nil {
				return err
			}
			return wl.(Growable).Grow(bad)
		},
	}
	for name, run := range cases {
		err := run()
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("%s accepted a corrupt CSR (err %v)", name, err)
		}
	}
}

// TestPlanThenEngineValidatesOnce: ChoosePlanModel followed by
// NewWorkload on the same workload validates the dataset once. The
// dataset is corrupted after planning; an engine still builds, which
// it could not if NewWorkload validated again — and a fresh workload
// over the same dataset is rejected.
func TestPlanThenEngineValidatesOnce(t *testing.T) {
	ds := *data.Reuters()
	wl := NewGLM(model.NewSVM(), &ds)
	dec, err := ChoosePlanModel(wl, numa.Local2, ExecSimulated, nil)
	if err != nil {
		t.Fatal(err)
	}
	ds.Labels = append(append([]float64(nil), ds.Labels...), 1) // one label too many
	if _, err := NewWorkload(wl, dec.Plan); err != nil {
		t.Fatalf("NewWorkload re-validated a dataset planning already checked: %v", err)
	}
	_, err = NewWorkload(NewGLM(model.NewSVM(), &ds), dec.Plan)
	if err == nil || !strings.Contains(err.Error(), "labels") {
		t.Fatalf("fresh workload over the corrupted dataset: err %v, want a label-count error", err)
	}
}
