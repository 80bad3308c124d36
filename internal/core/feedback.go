package core

import (
	"fmt"

	"dimmwitted/internal/numa"
)

// CostModel is the optimizer's feedback seam: measured plan costs that
// override the static word-cost prior once enough observations exist.
// Implementations (internal/tune through the serve layer's adapter)
// return the EWMA of observed seconds-per-epoch for a normalized
// candidate plan, with ok true only past their observation threshold —
// an unwarmed key leaves the static ranking in charge.
type CostModel interface {
	MeasuredSeconds(p Plan) (seconds float64, ok bool)
}

// CandidateCost is the optimizer's view of one candidate plan inside a
// decision: its static rank (0 is the prior's winner; the word-cost
// model has no opinion between replication variants beyond its rules
// of thumb, so rank is enumeration order) and its measured cost when
// the feedback store has one.
type CandidateCost struct {
	// Plan is the normalized candidate.
	Plan Plan
	// StaticRank orders candidates under the prior; 0 is the static
	// optimizer's own pick.
	StaticRank int
	// MeasuredSeconds is the feedback EWMA of seconds-per-epoch;
	// meaningful only when Measured is true.
	MeasuredSeconds float64
	// Measured reports whether the cost model had crossed its
	// observation threshold for this plan.
	Measured bool
}

// PlanDecision is ChoosePlanModel's result: the chosen plan, how it
// was chosen, and the full candidate table for decision diagnostics
// (job status, dwbench -feedback's decision artifact).
type PlanDecision struct {
	// Plan is the winner.
	Plan Plan
	// Source is "static" when the word-cost prior decided (no candidate
	// measured) and "measured" when feedback overrode it.
	Source string
	// PredictedSeconds is the winner's measured cost; 0 under the
	// static prior, which predicts no wall clock.
	PredictedSeconds float64
	// RunnerUp is the epsilon-exploration target: the candidate most
	// worth a measurement — the best-measured non-winner, or, while any
	// candidate is still unmeasured, the first of those, so every
	// candidate eventually crosses the observation threshold. Nil when
	// the decision has a single candidate.
	RunnerUp *Plan
	// Candidates is the full table, static-rank order.
	Candidates []CandidateCost
}

// planSourceStatic and planSourceMeasured are the PlanDecision.Source
// values.
const (
	planSourceStatic   = "static"
	planSourceMeasured = "measured"
)

// normalizePlanFor is the engine's normalization sequence, shared by
// NewWorkload and the planner: the common defaults, then the
// workload's own.
func normalizePlanFor(wl Workload, p Plan) Plan {
	return wl.NormalizePlan(p.normalizeCommon())
}

// validatePlanFor is the engine's validation sequence, shared by
// NewWorkload and the planner: the generic checks, the workload's
// access methods, then the workload's own checks.
func validatePlanFor(wl Workload, p Plan) error {
	if err := p.validateCommon(); err != nil {
		return err
	}
	supported := false
	for _, a := range wl.Supports() {
		if a == p.Access {
			supported = true
		}
	}
	if !supported {
		return fmt.Errorf("core: %s does not support %s access", wl.Name(), p.Access)
	}
	return wl.ValidatePlan(p)
}

// CandidatePlans enumerates the decision's plan space: the workload's
// static choice first, then the model-replication variants the static
// rules of thumb rejected (each paired with a data replication the
// workload accepts — Gibbs ties sharding to single-chain PerMachine,
// for instance) and, for the parallel backend, the neighbouring
// steal-chunk granularities. Every candidate is normalized and
// validated; invalid variants are dropped, so the list is directly
// runnable. The static winner is always index 0.
func CandidatePlans(wl Workload, top numa.Topology, exec ExecutorKind) ([]Plan, error) {
	static, err := wl.Optimize(top, exec)
	if err != nil {
		return nil, err
	}
	static = normalizePlanFor(wl, static)
	if err := validatePlanFor(wl, static); err != nil {
		return nil, err
	}
	cands := []Plan{static}
	for _, mr := range []ModelReplication{PerMachine, PerNode, PerCore} {
		if mr == static.ModelRep {
			continue
		}
		// Try the static pairing first, then the alternatives, keeping
		// the first data replication the workload validates. Importance
		// is never proposed: it subsamples, so its epochs are not
		// cost-comparable with full passes.
		for _, dr := range []DataReplication{static.DataRep, FullReplication, Sharding} {
			v := static
			v.ModelRep = mr
			v.DataRep = dr
			v = normalizePlanFor(wl, v)
			if validatePlanFor(wl, v) == nil {
				cands = append(cands, v)
				break
			}
		}
	}
	if exec == ExecParallel {
		for _, sc := range []int{16, 256} {
			if sc == static.StealChunk {
				continue
			}
			v := static
			v.StealChunk = sc
			v = normalizePlanFor(wl, v)
			if validatePlanFor(wl, v) == nil {
				cands = append(cands, v)
			}
		}
	}
	return cands, nil
}

// ChoosePlanModel is the optimizer's entry point. The workload's static
// cost model is the prior (candidate 0 wins when nothing is measured),
// but once the cost model reports measured costs the cheapest measured
// candidate wins instead. A nil cost model means the static prior
// alone: the workload's Optimize plan, normalized and validated as
// NewWorkload would, with the candidate table for diagnostics.
func ChoosePlanModel(wl Workload, top numa.Topology, exec ExecutorKind, cm CostModel) (PlanDecision, error) {
	cands, err := CandidatePlans(wl, top, exec)
	if err != nil {
		return PlanDecision{}, err
	}
	dec := PlanDecision{Source: planSourceStatic, Candidates: make([]CandidateCost, len(cands))}
	bestMeasured, bestSeconds := -1, 0.0
	for i, p := range cands {
		cc := CandidateCost{Plan: p, StaticRank: i}
		if cm != nil {
			if sec, ok := cm.MeasuredSeconds(p); ok {
				cc.MeasuredSeconds, cc.Measured = sec, true
				if bestMeasured < 0 || sec < bestSeconds {
					bestMeasured, bestSeconds = i, sec
				}
			}
		}
		dec.Candidates[i] = cc
	}
	win := 0
	if bestMeasured >= 0 {
		win = bestMeasured
		dec.Source = planSourceMeasured
		dec.PredictedSeconds = bestSeconds
	}
	dec.Plan = cands[win]
	dec.RunnerUp = runnerUp(dec.Candidates, win)
	return dec, nil
}

// runnerUp picks the exploration target among the non-winners: the
// first unmeasured candidate if any (discovery — without a visit it
// can never cross the threshold), else the cheapest measured one
// (staleness-busting — re-measuring the closest rival is what lets a
// drifted winner be dethroned).
func runnerUp(cands []CandidateCost, win int) *Plan {
	var bestMeasured *Plan
	bestSeconds := 0.0
	for i := range cands {
		if i == win {
			continue
		}
		c := &cands[i]
		if !c.Measured {
			p := c.Plan
			return &p
		}
		if bestMeasured == nil || c.MeasuredSeconds < bestSeconds {
			p := c.Plan
			bestMeasured, bestSeconds = &p, c.MeasuredSeconds
		}
	}
	return bestMeasured
}
