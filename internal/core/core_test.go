package core

import (
	"math"
	"testing"

	"dimmwitted/internal/data"
	"dimmwitted/internal/model"
	"dimmwitted/internal/numa"
)

// mustEngine builds an engine or fails the test.
func mustEngine(t *testing.T, spec model.Spec, ds *data.Dataset, plan Plan) *Engine {
	t.Helper()
	e, err := New(spec, ds, plan)
	if err != nil {
		t.Fatalf("New(%s on %s): %v", spec.Name(), ds.Name, err)
	}
	return e
}

// epochsToLoss runs until the loss target is reached and returns the
// epoch count, failing if it never converges.
func epochsToLoss(t *testing.T, e *Engine, target float64, maxEpochs int) RunResult {
	t.Helper()
	res := e.RunToLoss(target, maxEpochs)
	if !res.Converged {
		t.Fatalf("%v did not reach loss %v in %d epochs (final %v)", e.Plan(), target, maxEpochs, res.FinalLoss)
	}
	return res
}

func TestPlanNormalizeDefaults(t *testing.T) {
	p := Plan{}.Normalize(model.NewSVM())
	if p.Machine.Name != "local2" {
		t.Errorf("default machine = %s", p.Machine.Name)
	}
	if p.Workers != numa.Local2.TotalCores() {
		t.Errorf("default workers = %d", p.Workers)
	}
	if p.Step != 0.1 || p.StepDecay != 0.95 {
		t.Errorf("default SGD step = %v decay %v", p.Step, p.StepDecay)
	}
	pc := Plan{Access: model.ColWise}.Normalize(model.NewLS())
	if pc.Step != 1.0 || pc.StepDecay != 1.0 {
		t.Errorf("default CD step = %v decay %v", pc.Step, pc.StepDecay)
	}
}

func TestPlanValidateRejectsUnsupportedAccess(t *testing.T) {
	p := Plan{Access: model.ColWise}.Normalize(model.NewSVM())
	if err := p.Validate(model.NewSVM()); err == nil {
		t.Error("SVM column-wise plan validated")
	}
}

func TestEngineRejectsBadPlans(t *testing.T) {
	if _, err := New(model.NewSVM(), data.Reuters(), Plan{Access: model.ColWise}); err == nil {
		t.Error("unsupported access accepted")
	}
	if _, err := New(model.NewLS(), data.MusicRegression(), Plan{Access: model.ColWise, DataRep: Importance}); err == nil {
		t.Error("Importance with column access accepted")
	}
}

func TestWorkerSpreadAcrossNodes(t *testing.T) {
	e := mustEngine(t, model.NewSVM(), data.Reuters(), Plan{Workers: 4, Machine: numa.Local2})
	counts := map[int]int{}
	for _, w := range e.workers {
		counts[w.core.Node]++
	}
	if counts[0] != 2 || counts[1] != 2 {
		t.Errorf("workers not spread: %v", counts)
	}
}

func TestReplicaCountsPerStrategy(t *testing.T) {
	ds := data.Reuters()
	cases := []struct {
		rep  ModelReplication
		want int
	}{
		{PerMachine, 1},
		{PerNode, 2},
		{PerCore, 12},
	}
	for _, c := range cases {
		e := mustEngine(t, model.NewSVM(), ds, Plan{ModelRep: c.rep, Machine: numa.Local2})
		if len(e.replicas) != c.want {
			t.Errorf("%v: %d replicas, want %d", c.rep, len(e.replicas), c.want)
		}
	}
}

func TestSVMConvergesUnderDefaultPlan(t *testing.T) {
	ds := data.Reuters()
	spec := model.NewSVM()
	e := mustEngine(t, spec, ds, Plan{ModelRep: PerNode, DataRep: FullReplication})
	init := spec.Loss(ds, spec.NewReplica(ds).X)
	res := e.RunToLoss(init/4, 30)
	if !res.Converged {
		t.Fatalf("SVM did not converge: final loss %v vs init %v", res.FinalLoss, init)
	}
	if res.Time <= 0 {
		t.Error("no simulated time accumulated")
	}
	if e.Epoch() != res.Epochs {
		t.Errorf("epoch bookkeeping: %d vs %d", e.Epoch(), res.Epochs)
	}
}

func TestDeterminismUnderSeed(t *testing.T) {
	run := func() []float64 {
		e := mustEngine(t, model.NewSVM(), data.Reuters(), Plan{ModelRep: PerNode, Seed: 42})
		var losses []float64
		for _, er := range e.RunEpochs(5) {
			losses = append(losses, er.Loss)
		}
		return losses
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("epoch %d loss differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestModelReplicationStatisticalOrdering(t *testing.T) {
	// Figure 8(a): PerMachine needs the fewest epochs to a given loss,
	// PerCore the most, PerNode in between (allowing ties).
	ds := data.RCV1()
	spec := model.NewSVM()
	target := spec.Loss(ds, spec.NewReplica(ds).X) * 0.25
	epochs := map[ModelReplication]int{}
	for _, rep := range []ModelReplication{PerMachine, PerNode, PerCore} {
		e := mustEngine(t, spec, ds, Plan{ModelRep: rep, DataRep: Sharding, Seed: 3})
		epochs[rep] = epochsToLoss(t, e, target, 80).Epochs
	}
	if epochs[PerMachine] > epochs[PerNode] {
		t.Errorf("PerMachine epochs (%d) > PerNode (%d)", epochs[PerMachine], epochs[PerNode])
	}
	if epochs[PerNode] > epochs[PerCore] {
		t.Errorf("PerNode epochs (%d) > PerCore (%d)", epochs[PerNode], epochs[PerCore])
	}
}

func TestModelReplicationHardwareOrdering(t *testing.T) {
	// Figure 8(b): PerNode finishes an epoch much faster than
	// PerMachine on a dense-update workload; PerCore is slightly
	// faster than PerNode.
	ds := data.RCV1()
	spec := model.NewSVM()
	times := map[ModelReplication]float64{}
	for _, rep := range []ModelReplication{PerMachine, PerNode, PerCore} {
		e := mustEngine(t, spec, ds, Plan{ModelRep: rep, DataRep: Sharding})
		er := e.RunEpoch()
		times[rep] = er.SimTime.Seconds()
	}
	if ratio := times[PerMachine] / times[PerNode]; ratio < 5 {
		t.Errorf("PerMachine/PerNode epoch-time ratio = %.1f, want >= 5 (paper: ~23)", ratio)
	}
	if times[PerCore] >= times[PerNode] {
		t.Errorf("PerCore (%v) not faster than PerNode (%v)", times[PerCore], times[PerNode])
	}
}

func TestPerMachineIncursMoreInvalidations(t *testing.T) {
	ds := data.RCV1()
	run := func(rep ModelReplication) numa.Counters {
		e := mustEngine(t, model.NewSVM(), ds, Plan{ModelRep: rep, DataRep: Sharding})
		e.RunEpoch()
		return e.Counters()
	}
	pm, pn := run(PerMachine), run(PerNode)
	if pm.Invalidations <= pn.Invalidations {
		t.Errorf("PerMachine invalidations (%d) not above PerNode (%d)", pm.Invalidations, pn.Invalidations)
	}
}

func TestDataReplicationEpochCost(t *testing.T) {
	// Figure 9(b): FullReplication's epoch is ~Nodes x Sharding's.
	ds := data.Reuters()
	spec := model.NewSVM()
	shard := mustEngine(t, spec, ds, Plan{ModelRep: PerNode, DataRep: Sharding}).RunEpoch()
	full := mustEngine(t, spec, ds, Plan{ModelRep: PerNode, DataRep: FullReplication}).RunEpoch()
	ratio := full.SimTime.Seconds() / shard.SimTime.Seconds()
	if ratio < 1.5 || ratio > 3.0 {
		t.Errorf("FullRepl/Sharding epoch-time ratio on 2 nodes = %.2f, want ~2", ratio)
	}
	if full.Steps != 2*shard.Steps {
		t.Errorf("FullRepl steps = %d, want 2x sharding's %d", full.Steps, shard.Steps)
	}
}

func TestFullReplicationNeedsNoMoreEpochs(t *testing.T) {
	// Figure 9(a): to a low loss, FullReplication converges in no more
	// epochs than Sharding (usually fewer).
	ds := data.Reuters()
	spec := model.NewSVM()
	target := spec.Loss(ds, spec.NewReplica(ds).X) * 0.3
	full := epochsToLoss(t, mustEngine(t, spec, ds,
		Plan{ModelRep: PerCore, DataRep: FullReplication, Seed: 5}), target, 120)
	shard := epochsToLoss(t, mustEngine(t, spec, ds,
		Plan{ModelRep: PerCore, DataRep: Sharding, Seed: 5}), target, 120)
	if full.Epochs > shard.Epochs {
		t.Errorf("FullRepl epochs (%d) > Sharding (%d) at low loss", full.Epochs, shard.Epochs)
	}
}

func TestLPColumnBeatsRowEndToEnd(t *testing.T) {
	// Figure 12(a) LP: column-wise converges to 1%-grade losses that
	// row-wise cannot reach in comparable epochs.
	ds := data.AmazonLP()
	spec := model.NewLP()
	col := mustEngine(t, spec, ds, Plan{Access: model.ColWise, ModelRep: PerMachine, DataRep: Sharding})
	colLoss := col.RunEpochs(10)[9].Loss
	row := mustEngine(t, spec, ds, Plan{Access: model.RowWise, ModelRep: PerNode, DataRep: Sharding})
	rowLoss := row.RunEpochs(10)[9].Loss
	if colLoss >= rowLoss {
		t.Errorf("LP: column-wise loss %v not below row-wise %v after 10 epochs", colLoss, rowLoss)
	}
}

func TestLPPerMachineBeatsPerNodeOverall(t *testing.T) {
	// Figure 12(b) LP: with sparse single-component updates,
	// PerMachine reaches a low loss faster in simulated time because
	// its epochs are barely slower and far fewer.
	ds := data.AmazonLP()
	spec := model.NewLP()
	optimal := func() float64 {
		e := mustEngine(t, spec, ds, Plan{Access: model.ColWise, ModelRep: PerMachine})
		return e.RunEpochs(60)[59].Loss
	}()
	target := optimal * 1.05
	pm := epochsToLoss(t, mustEngine(t, spec, ds,
		Plan{Access: model.ColWise, ModelRep: PerMachine, Seed: 2}), target, 120)
	pn := epochsToLoss(t, mustEngine(t, spec, ds,
		Plan{Access: model.ColWise, ModelRep: PerNode, Seed: 2}), target, 400)
	if pm.Time >= pn.Time {
		t.Errorf("LP: PerMachine time %v not below PerNode %v", pm.Time, pn.Time)
	}
}

func TestOptimizerChoosesPaperPlans(t *testing.T) {
	// Figure 14: row-wise/PerNode for SVM-LR-LS, column/PerMachine for
	// LP and QP, FullReplication everywhere.
	cases := []struct {
		spec model.Spec
		ds   *data.Dataset
		want model.Access
		rep  ModelReplication
	}{
		{model.NewSVM(), data.RCV1(), model.RowWise, PerNode},
		{model.NewSVM(), data.Music(), model.RowWise, PerNode},
		{model.NewLR(), data.RCV1(), model.RowWise, PerNode},
		{model.NewLS(), data.MusicRegression(), model.RowWise, PerNode},
		{model.NewLP(), data.AmazonLP(), model.ColWise, PerMachine},
		{model.NewLP(), data.GoogleLP(), model.ColWise, PerMachine},
		{model.NewQP(), data.AmazonQP(), model.ColToRow, PerMachine},
		{model.NewQP(), data.GoogleQP(), model.ColToRow, PerMachine},
	}
	for _, c := range cases {
		plan := choosePlan(t, c.spec, c.ds, numa.Local2, ExecSimulated)
		if plan.Access != c.want {
			t.Errorf("%s on %s: chose %v, want %v", c.spec.Name(), c.ds.Name, plan.Access, c.want)
		}
		if plan.ModelRep != c.rep {
			t.Errorf("%s on %s: chose %v, want %v", c.spec.Name(), c.ds.Name, plan.ModelRep, c.rep)
		}
		if plan.DataRep != FullReplication {
			t.Errorf("%s on %s: chose %v, want FullReplication", c.spec.Name(), c.ds.Name, plan.DataRep)
		}
	}
}

func TestOptimizerRobustToAlpha(t *testing.T) {
	// Section 3.2: the decision is stable for write costs 4x-100x the
	// read cost. We sweep alpha by faking topologies.
	ds := data.RCV1()
	for _, alphaNodes := range []int{2, 4, 8} {
		top := numa.Local2
		top.Nodes = alphaNodes
		plan := choosePlan(t, model.NewSVM(), ds, top, ExecSimulated)
		if plan.Access != model.RowWise {
			t.Errorf("alpha(%d nodes): SVM access flipped to %v", alphaNodes, plan.Access)
		}
	}
}

func TestCostRatio(t *testing.T) {
	ds := data.AmazonLP() // n_i = 2 for every row
	var sumN, sumN2 float64
	sumN = 2 * float64(ds.Rows())
	sumN2 = 4 * float64(ds.Rows())
	alpha := 10.0
	want := (1 + alpha) * sumN / (sumN2 + alpha*float64(ds.Cols()))
	if got := CostRatio(ds, alpha); math.Abs(got-want) > 1e-9 {
		t.Errorf("CostRatio = %v, want %v", got, want)
	}
}

func TestImportanceSampling(t *testing.T) {
	ds := data.MusicRegression()
	spec := model.NewLS()
	e := mustEngine(t, spec, ds, Plan{
		Access: model.RowWise, ModelRep: PerNode,
		DataRep: Importance, ImportanceFraction: 0.1,
	})
	er := e.RunEpoch()
	// The quota is per node (Appendix C.4): fraction x rows x nodes.
	wantSteps := int(0.1*float64(ds.Rows())) * numa.Local2.Nodes
	if er.Steps != wantSteps {
		t.Errorf("importance epoch steps = %d, want %d", er.Steps, wantSteps)
	}
	// It should still make progress on the loss.
	init := spec.Loss(ds, spec.NewReplica(ds).X)
	e.RunEpochs(10)
	if e.Loss() >= init/2 {
		t.Errorf("importance sampling failed to converge: %v -> %v", init, e.Loss())
	}
}

func TestImportanceRejectsHugeDimension(t *testing.T) {
	ds := data.GoogleLP() // d = 5000 > leverage limit
	_, err := New(model.NewLP(), ds, Plan{
		Access: model.RowWise, DataRep: Importance,
	})
	if err == nil {
		t.Error("Importance on 5000-dim dataset accepted")
	}
}

func TestPlacementOSSlower(t *testing.T) {
	// Appendix A: NUMA-collocated data beats the OS default.
	ds := data.RCV1()
	spec := model.NewSVM()
	osTime := mustEngine(t, spec, ds, Plan{ModelRep: PerNode, Placement: PlacementOS}).RunEpoch().SimTime
	numaTime := mustEngine(t, spec, ds, Plan{ModelRep: PerNode, Placement: PlacementNUMA}).RunEpoch().SimTime
	ratio := osTime.Seconds() / numaTime.Seconds()
	if ratio < 1.1 {
		t.Errorf("OS/NUMA placement ratio = %.2f, want > 1.1 (paper: up to 2)", ratio)
	}
}

func TestDenseVsSparseStorage(t *testing.T) {
	// Appendix A: dense storage wins on fully dense data; sparse
	// storage wins when data is heavily subsampled.
	spec := model.NewSVM()
	dense := data.Music()
	dTime := mustEngine(t, spec, dense, Plan{ModelRep: PerNode, DenseStorage: true}).RunEpoch().SimTime
	sTime := mustEngine(t, spec, dense, Plan{ModelRep: PerNode}).RunEpoch().SimTime
	if dTime >= sTime {
		t.Errorf("dense storage (%v) not faster than sparse (%v) on dense data", dTime, sTime)
	}
	sub := data.SubsampleSparsity(dense, 0.05, 1)
	dTime = mustEngine(t, spec, sub, Plan{ModelRep: PerNode, DenseStorage: true}).RunEpoch().SimTime
	sTime = mustEngine(t, spec, sub, Plan{ModelRep: PerNode}).RunEpoch().SimTime
	if sTime >= dTime {
		t.Errorf("sparse storage (%v) not faster than dense (%v) at 5%% density", sTime, dTime)
	}
}

func TestRunToLossStopsAtMaxEpochs(t *testing.T) {
	e := mustEngine(t, model.NewSVM(), data.Reuters(), Plan{})
	res := e.RunToLoss(0, 3) // unreachable target
	if res.Converged || res.Epochs != 3 || len(res.History) != 3 {
		t.Errorf("RunToLoss bookkeeping wrong: %+v", res)
	}
}

func TestProbeStats(t *testing.T) {
	ds := data.Reuters()
	st := ProbeStats(model.NewSVM(), ds, model.RowWise, 32)
	if st.DataWords <= 0 || st.ModelReads <= 0 {
		t.Errorf("probe stats empty: %+v", st)
	}
	avg := ds.AvgRowNNZ()
	if float64(st.DataWords) > 3*avg || float64(st.DataWords) < avg/3 {
		t.Errorf("probe data words %d far from avg nnz %v", st.DataWords, avg)
	}
	cst := ProbeStats(model.NewLP(), data.AmazonLP(), model.ColWise, 32)
	if cst.ModelWrites != 1 {
		t.Errorf("LP col probe writes = %d, want 1", cst.ModelWrites)
	}
}

func TestCollisionProbShape(t *testing.T) {
	ds := data.RCV1()
	e := mustEngine(t, model.NewSVM(), ds, Plan{ModelRep: PerMachine})
	// Dense-ish text updates on a small model: meaningful contention.
	denseP := e.modelReg[0].WriteCollisionProb
	if denseP < 0.05 || denseP > 1 {
		t.Errorf("SVM/RCV1 collision prob = %v, want meaningful", denseP)
	}
	// Single-component LP updates on a large model: near zero.
	el := mustEngine(t, model.NewLP(), data.GoogleLP(), Plan{Access: model.ColWise, ModelRep: PerMachine})
	sparseP := el.modelReg[0].WriteCollisionProb
	if sparseP > 0.01 {
		t.Errorf("LP/Google collision prob = %v, want ~0", sparseP)
	}
	if denseP < 10*sparseP {
		t.Errorf("contention not separated: dense %v vs sparse %v", denseP, sparseP)
	}
}

func TestParallelSumCorrectUnderSharding(t *testing.T) {
	ds := data.ParallelSum(1200, 4)
	spec := model.NewParallelSum()
	for _, rep := range []ModelReplication{PerMachine, PerNode, PerCore} {
		e := mustEngine(t, spec, ds, Plan{ModelRep: rep, DataRep: Sharding})
		e.RunEpoch()
		if got := e.Model()[0]; got != 4800 {
			t.Errorf("%v: sum = %v, want 4800", rep, got)
		}
	}
}

func TestParallelSumPerNodeFasterThanPerMachine(t *testing.T) {
	// Figure 13's mechanism: all threads hammering one accumulator
	// (Hogwild!'s layout) is slower than one accumulator per node.
	ds := data.ParallelSum(2000, 8)
	spec := model.NewParallelSum()
	pm := mustEngine(t, spec, ds, Plan{ModelRep: PerMachine, DataRep: Sharding}).RunEpoch()
	pn := mustEngine(t, spec, ds, Plan{ModelRep: PerNode, DataRep: Sharding}).RunEpoch()
	if pn.SimTime >= pm.SimTime {
		t.Errorf("PerNode sum (%v) not faster than PerMachine (%v)", pn.SimTime, pm.SimTime)
	}
}

func TestParallelExecutorConverges(t *testing.T) {
	ds := data.Reuters()
	spec := model.NewSVM()
	init := spec.Loss(ds, spec.NewReplica(ds).X)
	for _, rep := range []ModelReplication{PerMachine, PerNode, PerCore} {
		e := mustEngine(t, spec, ds, Plan{Executor: ExecParallel, ModelRep: rep, Workers: 4, ChunkSize: 8})
		var er EpochResult
		for i := 0; i < 8; i++ {
			er = e.RunEpoch()
		}
		if er.Loss >= init/2 {
			t.Errorf("%v: parallel loss %v vs init %v", rep, er.Loss, init)
		}
		if er.SimTime != 0 {
			t.Errorf("%v: parallel epoch reported simulated time %v", rep, er.SimTime)
		}
		if er.WallTime <= 0 {
			t.Errorf("%v: parallel epoch reported no wall time", rep)
		}
	}
}

func TestParallelExecutorRejectsColumnAccess(t *testing.T) {
	_, err := New(model.NewLP(), data.AmazonLP(), Plan{Executor: ExecParallel, Access: model.ColWise})
	if err == nil {
		t.Error("parallel column-wise accepted")
	}
}

func TestStringers(t *testing.T) {
	if PerNode.String() != "PerNode" || Sharding.String() != "Sharding" ||
		FullReplication.String() != "FullReplication" || Importance.String() != "Importance" {
		t.Error("replication stringers wrong")
	}
	if PlacementOS.String() != "OS" || PlacementNUMA.String() != "NUMA" {
		t.Error("placement stringer wrong")
	}
	p := Plan{}.Normalize(model.NewSVM())
	if p.String() == "" {
		t.Error("plan stringer empty")
	}
	if ModelReplication(9).String() == "" || DataReplication(9).String() == "" {
		t.Error("unknown enums should stringify")
	}
}
