package core

import (
	"dimmwitted/internal/data"
	"dimmwitted/internal/model"
	"dimmwitted/internal/numa"
)

// CostEstimate is the optimizer's per-epoch cost prediction for one
// access method, in abstract word-cost units (Figure 6's model: reads
// count once, writes count alpha times).
type CostEstimate struct {
	// Access is the access method estimated.
	Access model.Access
	// Reads is the predicted words read per epoch.
	Reads float64
	// Writes is the predicted words written per epoch.
	Writes float64
	// Cost is Reads + alpha*Writes.
	Cost float64
}

// EstimateCost predicts the per-epoch cost of running the spec on the
// dataset with the given access method, using a probe sample of steps
// (the paper's install-time benchmark) and the machine's alpha.
func EstimateCost(spec model.Spec, ds *data.Dataset, access model.Access, top numa.Topology) CostEstimate {
	st := ProbeStats(spec, ds, access, 64)
	stepsPerEpoch := float64(ds.Rows())
	if access != model.RowWise {
		stepsPerEpoch = float64(ds.Cols())
	}
	reads := stepsPerEpoch * float64(st.DataWords+st.ModelReads+st.AuxReads)
	writes := stepsPerEpoch * float64(st.ModelWrites+st.AuxWrites)
	alpha := top.Alpha()
	return CostEstimate{
		Access: access,
		Reads:  reads,
		Writes: writes,
		Cost:   reads + alpha*writes,
	}
}

// CostRatio returns the paper's Figure 7(b) statistic for a dataset:
// (1+alpha)·Σnᵢ / (Σnᵢ² + alpha·d), the ratio of row-wise to
// column-to-row cost under write-cost factor alpha.
func CostRatio(ds *data.Dataset, alpha float64) float64 {
	var sumN, sumN2 float64
	for i := 0; i < ds.Rows(); i++ {
		n := float64(ds.A.RowNNZ(i))
		sumN += n
		sumN2 += n * n
	}
	denom := sumN2 + alpha*float64(ds.Cols())
	if denom == 0 {
		return 0
	}
	return (1 + alpha) * sumN / denom
}

// PaperCost evaluates the paper's literal Figure 6 cost model for one
// access method on a dataset:
//
//	row-wise:    Σnᵢ reads + α·(Σnᵢ sparse-update writes, or d·N dense)
//	column-wise: Σnᵢ² reads (column-to-row touches every row in S(j)
//	             in full) + α·d writes
//
// where nᵢ is the nonzero count of row i and α = Topology.Alpha().
// The formula deliberately charges all column methods the
// column-to-row read volume, as the paper does: the optimizer is
// conservative about coordinate methods, which is exactly what makes
// it pick row-wise for SVM/LR/LS and column-wise for LP/QP
// (Figure 14).
func PaperCost(spec model.Spec, ds *data.Dataset, access model.Access, top numa.Topology) float64 {
	alpha := top.Alpha()
	var sumN, sumN2 float64
	for i := 0; i < ds.Rows(); i++ {
		n := float64(ds.A.RowNNZ(i))
		sumN += n
		sumN2 += n * n
	}
	d := float64(ds.Cols())
	if access == model.RowWise {
		writes := sumN
		if spec.DenseUpdate() {
			writes = d * float64(ds.Rows())
		}
		return sumN + alpha*writes
	}
	return sumN2 + alpha*d
}

const (
	// goroutineSpawnCycles is the order-of-magnitude cost of creating
	// and scheduling a fresh goroutine (stack allocation plus scheduler
	// handoff) — what the pre-pool parallel executor paid per worker
	// per epoch.
	goroutineSpawnCycles = 50_000
	// poolWakeupCycles is the cost of waking a parked pool worker: one
	// channel send/receive pair and a futex wake.
	poolWakeupCycles = 2_000
)

// ExecutorOverheadCycles prices a backend's per-epoch orchestration
// overhead for a worker count. The simulated interleaver is free here
// (its orchestration is accounted inside the cost simulator); the
// parallel backend pays one pool wakeup per worker — the persistent
// pool's replacement for the old per-epoch goroutine-spawn cost, some
// 25x dearer per worker. The estimate feeds the parallel chunk-size
// choice in the GLM optimizer and diagnostics.
func ExecutorOverheadCycles(exec ExecutorKind, workers int) float64 {
	if exec != ExecParallel {
		return 0
	}
	return float64(workers) * poolWakeupCycles
}

// ClusterEpochSeconds extends the cost model one level up the
// replication hierarchy: it prices a PerCluster epoch-synchronous
// round across peers machines. Each peer trains its 1/peers shard
// (compute parallelises perfectly under Sharding, the only data
// replication PerCluster supports), then ships its dim-float replica
// to the coordinator and receives the combined model back — 2·dim·8
// bytes per peer per round over a link moving bytesPerSec. The
// returned figure is what cmd/dwcoord surfaces when explaining
// whether a dataset is big enough for the shard+combine round trip to
// beat staying on one machine.
func ClusterEpochSeconds(localSeconds float64, peers, dim int, bytesPerSec float64) float64 {
	if peers <= 1 {
		return localSeconds
	}
	compute := localSeconds / float64(peers)
	transfer := 0.0
	if bytesPerSec > 0 {
		transfer = 2 * float64(peers) * float64(dim) * 8 / bytesPerSec
	}
	return compute + transfer
}

// Explain returns the optimizer's view of every supported access
// method, for diagnostics (cmd/dwplan).
func Explain(spec model.Spec, ds *data.Dataset, top numa.Topology) []CostEstimate {
	var out []CostEstimate
	for _, a := range spec.Supports() {
		out = append(out, EstimateCost(spec, ds, a, top))
	}
	return out
}
