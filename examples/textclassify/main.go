// Text classification: the paper's motivating workload. Trains SVM
// and logistic regression on the RCV1-style corpus and demonstrates
// the two tradeoffs that matter for sparse text: row-wise access beats
// column-to-row, and PerNode model replication beats both the
// shared-nothing (PerCore) and Hogwild! (PerMachine) points.
package main

import (
	"fmt"
	"log"

	"dimmwitted"
)

func main() {
	ds := dimmwitted.RCV1()
	fmt.Printf("corpus: %s — %d documents, %d terms, %.1f terms/doc\n\n",
		ds.Name, ds.Rows(), ds.Cols(), ds.AvgRowNNZ())

	for _, spec := range []dimmwitted.Spec{dimmwitted.SVM(), dimmwitted.LR()} {
		fmt.Printf("--- %s ---\n", spec.Name())

		// What does the optimizer say?
		for _, est := range dimmwitted.Explain(spec, ds, dimmwitted.Local2) {
			fmt.Printf("cost[%s] = %.3g reads + alpha x %.3g writes = %.3g\n",
				est.Access, est.Reads, est.Writes, est.Cost)
		}
		dec, err := dimmwitted.ChoosePlanModel(dimmwitted.GLMWorkload(spec, ds), dimmwitted.Local2, dimmwitted.ExecSimulated, nil)
		if err != nil {
			log.Fatal(err)
		}
		plan := dec.Plan
		fmt.Printf("chosen plan: %s\n\n", plan)

		// Compare the three model-replication strategies at the chosen
		// access method: epochs AND simulated time to the same loss.
		target := 0.12
		fmt.Printf("%-12s %-8s %-14s %s\n", "replication", "epochs", "time-to-loss", "converged")
		for _, rep := range []dimmwitted.Plan{
			{ModelRep: dimmwitted.PerCore},
			{ModelRep: dimmwitted.PerNode},
			{ModelRep: dimmwitted.PerMachine},
		} {
			p := plan
			p.ModelRep = rep.ModelRep
			eng, err := dimmwitted.New(spec, ds, p)
			if err != nil {
				log.Fatal(err)
			}
			res := eng.RunToLoss(target, 120)
			fmt.Printf("%-12v %-8d %-14v %v\n", p.ModelRep, res.Epochs, res.Time, res.Converged)
		}
		fmt.Println()
	}
}
