// Network analysis: the paper's LP/QP application on social-network
// graphs. Solves the vertex-cover LP relaxation and a graph-smoothing
// QP on the Amazon-style co-purchase graph, demonstrating that
// column-wise (coordinate) access with a single PerMachine replica is
// the winning point — the exact opposite of the text-classification
// plan.
package main

import (
	"fmt"
	"log"

	"dimmwitted"
)

func main() {
	lp := dimmwitted.AmazonLP()
	fmt.Printf("graph LP: %d edges (constraints), %d vertices\n", lp.Rows(), lp.Cols())

	spec := dimmwitted.LP()
	dec, err := dimmwitted.ChoosePlanModel(dimmwitted.GLMWorkload(spec, lp), dimmwitted.Local2, dimmwitted.ExecSimulated, nil)
	if err != nil {
		log.Fatal(err)
	}
	plan := dec.Plan
	fmt.Printf("optimizer plan: %s\n\n", plan)

	// Column-wise coordinate descent vs row-wise SGD, both run for the
	// same number of epochs.
	colEng, err := dimmwitted.New(spec, lp, plan)
	if err != nil {
		log.Fatal(err)
	}
	rowPlan := plan
	rowPlan.Access = dimmwitted.RowWise
	rowPlan.ModelRep = dimmwitted.PerNode
	rowPlan.Step, rowPlan.StepDecay = 0, 0 // re-derive SGD defaults
	rowPlan = rowPlan.Normalize(spec)
	rowEng, err := dimmwitted.New(spec, lp, rowPlan)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("epoch  column-wise loss  row-wise loss")
	for i := 0; i < 12; i++ {
		c := colEng.RunEpoch()
		r := rowEng.RunEpoch()
		fmt.Printf("%-6d %-17.5f %.5f\n", c.Epoch, c.Loss, r.Loss)
	}

	// Inspect the LP solution: a fractional vertex cover.
	x := colEng.Model()
	var size, worst float64
	for _, v := range x {
		size += v
	}
	for i := 0; i < lp.Rows(); i++ {
		// every row has two unit entries (the edge's endpoints)
		idx, _ := lp.A.Row(i)
		if viol := 1 - x[idx[0]] - x[idx[1]]; viol > worst {
			worst = viol
		}
	}
	fmt.Printf("\nfractional cover size: %.1f of %d vertices; worst constraint violation %.4f\n",
		size, lp.Cols(), worst)

	// QP: graph smoothing with anchors.
	qp := dimmwitted.AmazonQP()
	qpSpec := dimmwitted.QP()
	qpWl := dimmwitted.GLMWorkload(qpSpec, qp)
	qpDec, err := dimmwitted.ChoosePlanModel(qpWl, dimmwitted.Local2, dimmwitted.ExecSimulated, nil)
	if err != nil {
		log.Fatal(err)
	}
	qpPlan := qpDec.Plan
	qpEng, err := dimmwitted.NewWorkloadEngine(qpWl, qpPlan)
	if err != nil {
		log.Fatal(err)
	}
	res := qpEng.RunToLoss(0, 15) // run 15 epochs, report the trace
	fmt.Printf("\nQP (%s): loss after %d epochs = %.5f (simulated %v)\n",
		qpPlan, res.Epochs, res.FinalLoss, res.Time)
}
