package main

import (
	"fmt"
	"math"

	"dimmwitted/internal/data"
)

// Train targets come from a reference written here, apart from the
// engine under test: plain serial SGD over the dataset in row order
// for refEpochs epochs, with a fixed step per model that decays by
// refDecay each epoch. A task's target is (1+slack) times the lowest
// loss the reference reaches. It depends on the seed's data alone, so
// a change that slows convergence needs more epochs to reach it, and a
// change that cannot reach it fails the run.
const (
	refEpochs = 12
	refDecay  = 0.95
)

// refSteps is the reference's initial step per model.
var refSteps = map[string]float64{"svm": 0.1, "lr": 0.2, "ls": 0.005}

// referenceLoss returns the lowest loss, measured after each epoch,
// that the reference reaches on ds for model name: the mean hinge loss
// for svm, the mean logistic loss for lr and half the mean squared
// error for ls, all unregularised, as the server's models define them.
func referenceLoss(name string, ds *data.Dataset) (float64, error) {
	step, ok := refSteps[name]
	if !ok {
		return 0, fmt.Errorf("no reference for model %q", name)
	}
	x := make([]float64, ds.Cols())
	best := math.Inf(1)
	for e := 0; e < refEpochs; e++ {
		for i := 0; i < ds.Rows(); i++ {
			idx, vals := ds.A.Row(i)
			y := ds.Labels[i]
			g := refGradient(name, y, dot(idx, vals, x))
			if g == 0 {
				continue
			}
			for k, j := range idx {
				x[j] += step * g * vals[k]
			}
		}
		step *= refDecay
		best = math.Min(best, refObjective(name, ds, x))
	}
	return best, nil
}

// refGradient is the coefficient of row a in one SGD step, x += step
// · g · a, for a row with label y and score s = ⟨x, a⟩.
func refGradient(name string, y, s float64) float64 {
	switch name {
	case "svm":
		if y*s < 1 {
			return y
		}
		return 0
	case "lr":
		return y / (1 + math.Exp(y*s))
	default:
		return y - s
	}
}

// refObjective is the model's loss at x, averaged over the rows.
func refObjective(name string, ds *data.Dataset, x []float64) float64 {
	var total float64
	for i := 0; i < ds.Rows(); i++ {
		idx, vals := ds.A.Row(i)
		y, s := ds.Labels[i], dot(idx, vals, x)
		switch name {
		case "svm":
			total += math.Max(0, 1-y*s)
		case "lr":
			// log(1 + e^{-m}), stable for large |m|.
			if m := y * s; m < 0 {
				total += -m + math.Log1p(math.Exp(m))
			} else {
				total += math.Log1p(math.Exp(-m))
			}
		default:
			total += 0.5 * (s - y) * (s - y)
		}
	}
	return total / float64(ds.Rows())
}

func dot(idx []int32, vals, x []float64) float64 {
	var s float64
	for k, j := range idx {
		s += vals[k] * x[j]
	}
	return s
}
