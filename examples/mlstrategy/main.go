// ML-based PSA strategy: the paper's future work (§VI) proposes
// "sophisticated ML-based PSA strategies" for branch points. This example
// trains a k-nearest-neighbour target classifier on synthetic kernels
// labeled by the device performance models, plugs it into branch point A
// in place of the hand-written Fig. 3 strategy, and compares the two
// strategies' decisions across the five paper benchmarks.
//
//	go run ./examples/mlstrategy
package main

import (
	"context"
	"fmt"
	"log"

	"psaflow/internal/bench"
	"psaflow/internal/core"
	"psaflow/internal/experiments"
	"psaflow/internal/flowlang"
	"psaflow/internal/mlpsa"
	"psaflow/internal/tasks"
)

func main() {
	fmt.Println("training kNN on 2500 synthetic kernels labeled by the device models...")
	examples := mlpsa.SyntheticTrainingSet(mlpsa.SyntheticConfig{N: 2500, Seed: 42})
	model, err := mlpsa.Train(examples, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained on %d examples (k=%d)\n\n", len(model.Examples), model.K)

	// The ML flow is the built-in PSA-flow, edited: same tasks, same paths,
	// the kNN in place of the Fig. 3 strategy at branch point A.
	flow, err := flowlang.PSAFlow(flowlang.Options{Mode: tasks.Informed}).WithSelector("A", mlpsa.Selector(model))
	if err != nil {
		log.Fatal(err)
	}
	runs := core.NewRunCache()

	fmt.Printf("%-12s %-18s %-18s %s\n", "benchmark", "Fig.3 strategy", "ML strategy", "agreement")
	agreeCount := 0
	for _, b := range bench.All() {
		designs, err := experiments.RunBenchmarkEnv(context.Background(), b, nil, tasks.FlowOptions{},
			experiments.JobEnv{Flow: flow}, nil, nil, runs)
		if err != nil {
			log.Fatal(err)
		}
		mlTarget := "none"
		if len(designs) > 0 {
			mlTarget = designs[0].Design.Target.String()
		}
		agree := "=="
		if mlTarget == b.ExpectTarget {
			agreeCount++
		} else {
			agree = "!= (paper picks " + b.ExpectTarget + ")"
		}
		fmt.Printf("%-12s %-18s %-18s %s\n", b.Name, b.ExpectTarget, mlTarget, agree)
	}
	fmt.Printf("\nagreement with the expert strategy: %d/5\n", agreeCount)
	fmt.Println("note: the kNN uses scale-free features so it transfers from synthetic")
	fmt.Println("deployment-scale kernels to profile-scale measurements; decisions that")
	fmt.Println("hinge on absolute work (overhead amortization) are where it diverges —")
	fmt.Println("the gap the paper's future work on richer ML strategies would close.")
}
