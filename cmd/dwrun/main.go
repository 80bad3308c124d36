// Command dwrun trains one model on one dataset under an explicit or
// optimizer-chosen plan and prints the per-epoch convergence trace.
//
//	dwrun -model svm -dataset rcv1                        # optimizer plan
//	dwrun -model lp -dataset amazon-lp -access col -rep permachine
//	dwrun -model svm -dataset reuters -machine local8 -epochs 40
//
// Training state round-trips through the versioned snapshot codec:
// -save writes the final engine state to a file, -resume restores one
// and continues under its original plan until -epochs total epochs,
// reproducing the uninterrupted run exactly (row access).
//
//	dwrun -model svm -dataset reuters -epochs 10 -save svm.snap
//	dwrun -resume svm.snap -epochs 40
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"dimmwitted/internal/core"
	"dimmwitted/internal/data"
	"dimmwitted/internal/metrics"
	"dimmwitted/internal/model"
	"dimmwitted/internal/numa"
)

// datasetByName maps CLI names to dataset constructors.
func datasetByName(name string) (*data.Dataset, error) {
	switch name {
	case "rcv1":
		return data.RCV1(), nil
	case "reuters":
		return data.Reuters(), nil
	case "reuters10x":
		return data.ReutersReplicated(), nil
	case "music":
		return data.Music(), nil
	case "music-reg":
		return data.MusicRegression(), nil
	case "music10x":
		return data.MusicRegressionReplicated(), nil
	case "forest":
		return data.Forest(), nil
	case "amazon-lp":
		return data.AmazonLP(), nil
	case "google-lp":
		return data.GoogleLP(), nil
	case "amazon-qp":
		return data.AmazonQP(), nil
	case "google-qp":
		return data.GoogleQP(), nil
	case "clueweb":
		return data.ClueWeb(0.1), nil
	default:
		return nil, fmt.Errorf("unknown dataset %q (rcv1, reuters, reuters10x, music, music-reg, music10x, forest, amazon-lp, google-lp, amazon-qp, google-qp, clueweb)", name)
	}
}

func main() {
	modelName := flag.String("model", "svm", "model: svm, lr, ls, lp, qp, sum")
	dsName := flag.String("dataset", "reuters", "dataset name")
	executor := flag.String("executor", "simulated", "execution backend: simulated, parallel")
	machine := flag.String("machine", "local2", "machine: local2, local4, local8, ec2.1, ec2.2")
	access := flag.String("access", "", "force access method: row, col (empty = optimizer)")
	rep := flag.String("rep", "", "force model replication: percore, pernode, permachine")
	dataRep := flag.String("datarep", "", "force data replication: sharding, full, importance")
	epochs := flag.Int("epochs", 20, "epochs to run")
	target := flag.Float64("target", 0, "stop at this loss (0 = run all epochs)")
	seed := flag.Int64("seed", 1, "random seed")
	csvPath := flag.String("csv", "", "write the loss curve as CSV to this file")
	savePath := flag.String("save", "", "write the final engine snapshot to this file")
	resumePath := flag.String("resume", "", "resume from a -save snapshot (its model/dataset/plan override the flags)")
	flag.Parse()

	die := func(err error) {
		fmt.Fprintf(os.Stderr, "dwrun: %v\n", err)
		os.Exit(1)
	}

	var resume *core.Snapshot
	if *resumePath != "" {
		raw, err := os.ReadFile(*resumePath)
		if err != nil {
			die(err)
		}
		snap, err := core.DecodeSnapshot(raw)
		if err != nil {
			die(err)
		}
		if snap.Workload != core.WorkloadGLM {
			die(fmt.Errorf("snapshot %s holds a %s workload; dwrun trains GLM tasks", *resumePath, snap.Workload))
		}
		if snap.Epoch >= *epochs {
			// -epochs is the total target; a budget the snapshot already
			// reached would silently train nothing (the serve layer's
			// warm_start rejects this the same way).
			die(fmt.Errorf("snapshot %s is already at epoch %d; -epochs %d must exceed it", *resumePath, snap.Epoch, *epochs))
		}
		resume = &snap
		*modelName, *dsName = snap.Spec, snap.Dataset
	}

	spec, err := model.ByName(*modelName)
	if err != nil {
		die(err)
	}
	ds, err := datasetByName(*dsName)
	if err != nil {
		die(err)
	}
	top, err := numa.ByName(*machine)
	if err != nil {
		die(err)
	}

	exec, err := core.ExecutorByName(*executor)
	if err != nil {
		die(err)
	}
	dec, err := core.ChoosePlanModel(core.NewGLM(spec, ds), top, exec, nil)
	if err != nil {
		die(err)
	}
	plan := dec.Plan
	switch strings.ToLower(*access) {
	case "":
	case "row":
		plan.Access = model.RowWise
	case "col", "column":
		plan.Access = spec.Supports()[0]
		if plan.Access == model.RowWise {
			plan.Access = spec.Supports()[1]
		}
	default:
		die(fmt.Errorf("unknown access %q", *access))
	}
	switch strings.ToLower(*rep) {
	case "":
	case "percore":
		plan.ModelRep = core.PerCore
	case "pernode":
		plan.ModelRep = core.PerNode
	case "permachine":
		plan.ModelRep = core.PerMachine
	default:
		die(fmt.Errorf("unknown model replication %q", *rep))
	}
	switch strings.ToLower(*dataRep) {
	case "":
	case "sharding":
		plan.DataRep = core.Sharding
	case "full":
		plan.DataRep = core.FullReplication
	case "importance":
		plan.DataRep = core.Importance
	default:
		die(fmt.Errorf("unknown data replication %q", *dataRep))
	}
	plan.Seed = *seed
	plan.Step = 0 // let Normalize repick for the (possibly new) access
	plan.StepDecay = 0
	plan = plan.Normalize(spec)
	if resume != nil {
		// A resumed run must re-run the snapshot's plan, or the
		// remaining epochs would diverge from the original run. The
		// reporting axis follows the plan's executor, not the flag.
		plan = resume.Plan
		exec = plan.Executor
	}

	eng, err := core.New(spec, ds, plan)
	if err != nil {
		die(err)
	}
	if resume != nil {
		if err := eng.Restore(*resume); err != nil {
			die(err)
		}
		fmt.Printf("resumed %s from %s: epoch %d, loss %.6g\n", spec.Name(), *resumePath, resume.Epoch, resume.Loss)
	}
	fmt.Printf("task: %s on %s (%d x %d, %d nnz)\n", spec.Name(), ds.Name, ds.Rows(), ds.Cols(), ds.NNZ())
	fmt.Printf("plan: %s\n\n", plan)
	curve := &metrics.Curve{Name: fmt.Sprintf("%s-%s", spec.Name(), ds.Name)}
	fmt.Printf("%-7s %-14s %-14s %s\n", "epoch", "loss", "epoch time", "total time")
	for eng.Epoch() < *epochs {
		er := eng.RunEpoch()
		// The simulated backend's time axis is simulated cycles; the
		// parallel backend's is measured wall clock.
		epochT, totalT := er.SimTime, er.CumTime
		if exec == core.ExecParallel {
			epochT, totalT = er.WallTime, eng.WallTime()
		}
		fmt.Printf("%-7d %-14.6g %-14v %v\n", er.Epoch, er.Loss, epochT, totalT)
		if err := curve.Append(metrics.Point{Epoch: er.Epoch, Time: er.CumTime, Wall: eng.WallTime(), Loss: er.Loss}); err != nil {
			die(err)
		}
		if *target > 0 && er.Loss <= *target {
			fmt.Printf("\nreached target %g at epoch %d (%v)\n", *target, er.Epoch, totalT)
			break
		}
		if curve.Plateaued(10, 1e-4) {
			fmt.Println("\nloss plateaued; stopping early")
			break
		}
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			die(err)
		}
		if err := metrics.WriteCSV(f, curve); err != nil {
			die(err)
		}
		if err := f.Close(); err != nil {
			die(err)
		}
		fmt.Printf("\nloss curve written to %s\n", *csvPath)
	}
	if *savePath != "" {
		if err := os.WriteFile(*savePath, core.EncodeSnapshot(eng.Snapshot()), 0o644); err != nil {
			die(err)
		}
		fmt.Printf("\nsnapshot written to %s (epoch %d, resumable with -resume)\n", *savePath, eng.Epoch())
	}
	if exec == core.ExecParallel {
		fmt.Printf("\nwall-clock training time: %v\n", eng.WallTime())
		return
	}
	ctr := eng.Counters()
	fmt.Printf("\ncounters: %v\n", ctr)
	fmt.Printf("cross-node DRAM ratio: %.2f\n", ctr.CrossNodeDRAMRatio())
}
