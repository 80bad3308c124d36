package core

import (
	"testing"

	"dimmwitted/internal/data"
	"dimmwitted/internal/model"
	"dimmwitted/internal/numa"
)

// mapCostModel is a test CostModel over plan axes.
type mapCostModel map[string]float64

func axesKey(p Plan) string {
	return p.Access.String() + "/" + p.ModelRep.String() + "/" + p.DataRep.String() +
		"/" + p.Executor.String() + "/" + string(rune('0'+p.StealChunk%10))
}

func (m mapCostModel) MeasuredSeconds(p Plan) (float64, bool) {
	sec, ok := m[axesKey(p)]
	return sec, ok
}

func TestCandidatePlansStaticFirst(t *testing.T) {
	wl := NewGLM(model.NewSVM(), data.Reuters())
	cands, err := CandidatePlans(wl, numa.Local2, ExecSimulated)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) < 2 {
		t.Fatalf("candidate space has %d plans; want the static pick plus variants", len(cands))
	}
	static, err := wl.Optimize(numa.Local2, ExecSimulated)
	if err != nil {
		t.Fatal(err)
	}
	if cands[0].ModelRep != static.ModelRep || cands[0].Access != static.Access || cands[0].DataRep != static.DataRep {
		t.Fatalf("candidate 0 = %v, want the static choice %v", cands[0], static)
	}
	seen := map[string]bool{}
	for _, p := range cands {
		if err := validatePlanFor(wl, p); err != nil {
			t.Errorf("candidate %v does not validate: %v", p, err)
		}
		k := axesKey(p)
		if seen[k] {
			t.Errorf("duplicate candidate %v", p)
		}
		seen[k] = true
	}
}

func TestCandidatePlansParallelVariesStealChunk(t *testing.T) {
	wl := NewGLM(model.NewSVM(), data.Reuters())
	cands, err := CandidatePlans(wl, numa.Local2, ExecParallel)
	if err != nil {
		t.Fatal(err)
	}
	chunks := map[int]bool{}
	for _, p := range cands {
		if p.Access != model.RowWise {
			t.Fatalf("parallel candidate %v is not row-wise", p)
		}
		chunks[p.StealChunk] = true
	}
	if len(chunks) < 3 {
		t.Fatalf("parallel candidates cover steal chunks %v; want at least 3 granularities", chunks)
	}
}

func TestChoosePlanModelStaticPrior(t *testing.T) {
	wl := NewGLM(model.NewSVM(), data.Reuters())
	dec, err := ChoosePlanModel(wl, numa.Local2, ExecSimulated, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Source != "static" {
		t.Fatalf("Source = %q with no cost model, want static", dec.Source)
	}
	static, _ := wl.Optimize(numa.Local2, ExecSimulated)
	if dec.Plan.ModelRep != static.ModelRep || dec.Plan.Access != static.Access {
		t.Fatalf("static decision %v differs from the workload's Optimize %v", dec.Plan, static)
	}
	if dec.RunnerUp == nil {
		t.Fatal("decision has no runner-up despite multiple candidates")
	}
	if dec.PredictedSeconds != 0 {
		t.Fatalf("PredictedSeconds = %v under the static prior, want 0", dec.PredictedSeconds)
	}
}

func TestChoosePlanModelMeasuredOverride(t *testing.T) {
	wl := NewGLM(model.NewSVM(), data.Reuters())
	cands, err := CandidatePlans(wl, numa.Local2, ExecSimulated)
	if err != nil {
		t.Fatal(err)
	}
	// Measure every candidate; make a non-static one the cheapest.
	cm := mapCostModel{}
	for i, p := range cands {
		sec := 1.0 + float64(i)
		if i == len(cands)-1 {
			sec = 0.25
		}
		cm[axesKey(p)] = sec
	}
	dec, err := ChoosePlanModel(wl, numa.Local2, ExecSimulated, cm)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Source != "measured" {
		t.Fatalf("Source = %q with a warmed cost model, want measured", dec.Source)
	}
	want := cands[len(cands)-1]
	if axesKey(dec.Plan) != axesKey(want) {
		t.Fatalf("measured winner = %v, want %v", dec.Plan, want)
	}
	if dec.PredictedSeconds != 0.25 {
		t.Fatalf("PredictedSeconds = %v, want 0.25", dec.PredictedSeconds)
	}
	// With every candidate measured, the runner-up is the cheapest
	// non-winner.
	if dec.RunnerUp == nil {
		t.Fatal("no runner-up")
	}
	if axesKey(*dec.RunnerUp) != axesKey(cands[0]) {
		t.Fatalf("runner-up = %v, want the next-cheapest %v", *dec.RunnerUp, cands[0])
	}
}

// A partially warmed store: the measured candidates decide the winner,
// and the runner-up is an unmeasured candidate (discovery beats
// re-measuring).
func TestChoosePlanModelRunnerUpPrefersUnmeasured(t *testing.T) {
	wl := NewGLM(model.NewSVM(), data.Reuters())
	cands, err := CandidatePlans(wl, numa.Local2, ExecSimulated)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) < 3 {
		t.Skipf("need 3 candidates, have %d", len(cands))
	}
	cm := mapCostModel{axesKey(cands[0]): 1.0, axesKey(cands[1]): 0.5}
	dec, err := ChoosePlanModel(wl, numa.Local2, ExecSimulated, cm)
	if err != nil {
		t.Fatal(err)
	}
	if axesKey(dec.Plan) != axesKey(cands[1]) {
		t.Fatalf("winner = %v, want the cheapest measured %v", dec.Plan, cands[1])
	}
	if dec.RunnerUp == nil || axesKey(*dec.RunnerUp) != axesKey(cands[2]) {
		t.Fatalf("runner-up = %v, want the unmeasured %v", dec.RunnerUp, cands[2])
	}
}
