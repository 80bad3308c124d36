// Command dwplan shows the cost-based optimizer's reasoning for a
// task: the Figure 6 cost of each supported access method, the probe
// traffic, and the chosen plan (the Figure 14 entry).
//
//	dwplan -model svm -dataset rcv1 -machine local2
package main

import (
	"flag"
	"fmt"
	"os"

	"dimmwitted/internal/core"
	"dimmwitted/internal/data"
	"dimmwitted/internal/model"
	"dimmwitted/internal/numa"
)

func main() {
	modelName := flag.String("model", "svm", "model: svm, lr, ls, lp, qp, sum")
	dsName := flag.String("dataset", "rcv1", "dataset name (as in dwrun)")
	machine := flag.String("machine", "local2", "machine name")
	flag.Parse()

	die := func(err error) {
		fmt.Fprintf(os.Stderr, "dwplan: %v\n", err)
		os.Exit(1)
	}

	spec, err := model.ByName(*modelName)
	if err != nil {
		die(err)
	}
	var ds *data.Dataset
	switch *dsName {
	case "rcv1":
		ds = data.RCV1()
	case "reuters":
		ds = data.Reuters()
	case "music":
		ds = data.Music()
	case "music-reg":
		ds = data.MusicRegression()
	case "forest":
		ds = data.Forest()
	case "amazon-lp":
		ds = data.AmazonLP()
	case "google-lp":
		ds = data.GoogleLP()
	case "amazon-qp":
		ds = data.AmazonQP()
	case "google-qp":
		ds = data.GoogleQP()
	default:
		die(fmt.Errorf("unknown dataset %q", *dsName))
	}
	top, err := numa.ByName(*machine)
	if err != nil {
		die(err)
	}

	fmt.Printf("task: %s on %s (%d x %d, %d nnz, avg n_i %.1f)\n",
		spec.Name(), ds.Name, ds.Rows(), ds.Cols(), ds.NNZ(), ds.AvgRowNNZ())
	fmt.Printf("machine: %s (alpha = %.1f)\n\n", top, top.Alpha())

	fmt.Println("Figure 6 cost model (words, writes weighted by alpha):")
	for _, a := range spec.Supports() {
		cost := core.PaperCost(spec, ds, a, top)
		fmt.Printf("  %-14s %.4g\n", a.String(), cost)
	}
	fmt.Println("\nprobe traffic (average words per step):")
	for _, a := range spec.Supports() {
		st := core.ProbeStats(spec, ds, a, 64)
		fmt.Printf("  %-14s data=%d modelR=%d modelW=%d auxR=%d auxW=%d flops=%d\n",
			a, st.DataWords, st.ModelReads, st.ModelWrites, st.AuxReads, st.AuxWrites, st.Flops)
	}

	dec, err := core.ChoosePlanModel(core.NewGLM(spec, ds), top, core.ExecSimulated, nil)
	if err != nil {
		die(err)
	}
	fmt.Printf("\nchosen plan: %s\n", dec.Plan)
	fmt.Printf("cost ratio (Figure 7b, alpha=%.0f): %.3f\n", top.Alpha(), core.CostRatio(ds, top.Alpha()))
}
