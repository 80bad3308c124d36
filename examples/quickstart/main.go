// Quickstart: train an SVM on a synthetic text corpus with the
// optimizer-chosen plan and watch it converge.
package main

import (
	"fmt"
	"log"

	"dimmwitted"
)

func main() {
	ds := dimmwitted.Reuters() // sparse text classification (RCV1 family)
	spec := dimmwitted.SVM()

	// Let the cost-based optimizer pick the access method, model
	// replication and data replication for a 2-socket machine.
	wl := dimmwitted.GLMWorkload(spec, ds)
	dec, err := dimmwitted.ChoosePlanModel(wl, dimmwitted.Local2, dimmwitted.ExecSimulated, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %s (%d examples, %d features, %d nonzeros)\n",
		ds.Name, ds.Rows(), ds.Cols(), ds.NNZ())
	fmt.Printf("plan:    %s\n\n", dec.Plan)

	eng, err := dimmwitted.NewWorkloadEngine(wl, dec.Plan)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("epoch  loss      simulated time")
	for i := 0; i < 10; i++ {
		er := eng.RunEpoch()
		fmt.Printf("%-6d %-9.4f %v\n", er.Epoch, er.Loss, er.CumTime)
	}

	fmt.Printf("\ncounters: %v\n", eng.Counters())
}
