package core

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"dimmwitted/internal/data"
	"dimmwitted/internal/model"
)

// poolLanes counts the goroutines parked in or running this executor's
// laneLoop, read from a full stack dump: the receiver is the first
// argument in each frame, so pools of other engines — and goroutines
// other tests leave behind — are never counted.
func poolLanes(p *parallelExecutor) int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	frame := fmt.Sprintf("(*parallelExecutor).laneLoop(%p", p)
	lanes := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, frame+",") || strings.Contains(g, frame+"?") {
			lanes++
		}
	}
	return lanes
}

// TestPoolLifecycle pins the persistent pool's contract: goroutines
// spawn once at the first epoch (min(workers, GOMAXPROCS) lanes, not
// one per epoch), the count stays flat across epochs, Close drains
// every one of them, Close is idempotent, and an epoch after Close
// fails loudly instead of hanging on closed feeds.
func TestPoolLifecycle(t *testing.T) {
	e := mustEngine(t, model.NewSVM(), data.Reuters(),
		Plan{Executor: ExecParallel, Access: model.RowWise, Workers: 4, Seed: 1})
	p := e.exec.(*parallelExecutor)

	want := runtime.GOMAXPROCS(0)
	if want > 4 {
		want = 4
	}
	if n := poolLanes(p); n != 0 {
		t.Fatalf("pool has %d lanes before the first epoch, want 0", n)
	}
	e.RunEpoch()
	if n := poolLanes(p); n != want {
		t.Errorf("pool after first epoch: %d lanes, want %d", n, want)
	}
	for i := 0; i < 5; i++ {
		e.RunEpoch()
	}
	if n := poolLanes(p); n != want {
		t.Errorf("pool across epochs: %d lanes after 6 epochs, want %d", n, want)
	}

	e.Close()
	// Close waits for every lane's deferred Done; a lane may still be
	// unwinding out of laneLoop for a moment after that.
	deadline := time.Now().Add(5 * time.Second)
	for poolLanes(p) > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := poolLanes(p); n != 0 {
		t.Errorf("pool leaked: %d lanes after Close", n)
	}
	e.Close() // idempotent

	if _, err := e.RunEpochCtx(context.Background()); err == nil {
		t.Fatal("epoch after Close reported success")
	} else if !strings.Contains(err.Error(), "closed") {
		t.Errorf("epoch after Close: %v, want a mention of the closed executor", err)
	}
}

// TestCloseSimulatedNoop: Close on a simulated engine (and on a
// parallel engine that never ran an epoch) is a safe no-op.
func TestCloseSimulatedNoop(t *testing.T) {
	sim := mustEngine(t, model.NewSVM(), data.Reuters(), Plan{})
	sim.Close()
	if sim.RunEpoch().Epoch != 1 {
		t.Error("simulated engine unusable after Close")
	}
	par := mustEngine(t, model.NewSVM(), data.Reuters(),
		Plan{Executor: ExecParallel, Access: model.RowWise})
	par.Close() // never started: nothing to drain
}

// TestWorkStealingExactness: with StealChunk 1 every worker contends
// for every unit, the worst case for the claim cursors. The one-pass
// aggregate must still be exact — each unit claimed exactly once — on
// both concurrency modes' combine paths, and repeatably so. Run under
// -race in CI, this is also the stealing memory-model check.
func TestWorkStealingExactness(t *testing.T) {
	ds := data.ParallelSum(1200, 4)
	spec := model.NewParallelSum()
	for _, rep := range []ModelReplication{PerMachine, PerNode, PerCore} {
		for run := 0; run < 3; run++ {
			e := mustEngine(t, spec, ds, Plan{
				Executor: ExecParallel, ModelRep: rep, DataRep: Sharding,
				Workers: 4, StealChunk: 1, Seed: 9,
			})
			er := e.RunEpoch()
			if got := e.Model()[0]; got != 4800 {
				t.Errorf("%v run %d: stolen parallel sum = %v, want 4800", rep, run, got)
			}
			if er.Steps != ds.Rows() {
				t.Errorf("%v run %d: %d steps, want %d (each unit exactly once)", rep, run, er.Steps, ds.Rows())
			}
			e.Close()
		}
	}
}

// TestStealChunkRoundTrip: the new knob survives the plan normalize /
// snapshot / restore cycle.
func TestStealChunkRoundTrip(t *testing.T) {
	p := Plan{}.Normalize(model.NewSVM())
	if p.StealChunk != 64 {
		t.Errorf("default steal chunk = %d, want 64", p.StealChunk)
	}
	e := mustEngine(t, model.NewSVM(), data.Reuters(),
		Plan{Executor: ExecParallel, Access: model.RowWise, Workers: 2, StealChunk: 7})
	e.RunEpoch()
	snap := e.Snapshot()
	if snap.Plan.StealChunk != 7 {
		t.Errorf("snapshot steal chunk = %d, want 7", snap.Plan.StealChunk)
	}
	re, err := DecodeSnapshot(EncodeSnapshot(snap))
	if err != nil {
		t.Fatal(err)
	}
	if re.Plan.StealChunk != 7 {
		t.Errorf("decoded steal chunk = %d, want 7", re.Plan.StealChunk)
	}
}

// TestExecutorOverheadCycles pins the optimizer's pricing of the
// pooled backend: waking a parked pool must be priced well under the
// per-epoch goroutine-spawn model it replaced, and the simulated
// backend carries no real-concurrency overhead at all.
func TestExecutorOverheadCycles(t *testing.T) {
	if got := ExecutorOverheadCycles(ExecSimulated, 12); got != 0 {
		t.Errorf("simulated overhead = %v, want 0", got)
	}
	pooled := ExecutorOverheadCycles(ExecParallel, 12)
	if pooled <= 0 {
		t.Errorf("pooled overhead = %v, want > 0", pooled)
	}
	if spawn := float64(12 * goroutineSpawnCycles); pooled >= spawn {
		t.Errorf("pooled overhead %v not cheaper than the spawn model %v", pooled, spawn)
	}
}
