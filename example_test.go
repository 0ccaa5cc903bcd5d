package fbmpk_test

import (
	"fmt"

	"fbmpk"
)

// ExampleMPK computes A^2 x for a tiny hand-built matrix.
func ExampleMPK() {
	tr, err := fbmpk.NewTriplets(3, 3, 4)
	if err != nil {
		panic(err)
	}
	tr.Add(0, 0, 2)
	tr.Add(0, 1, -1)
	tr.Add(1, 1, 3)
	tr.Add(2, 2, 4)
	a := tr.ToCSR()

	x, err := fbmpk.MPK(a, []float64{1, 1, 1}, 2,
		fbmpk.Options{Engine: fbmpk.EngineForwardBackward, BtB: true})
	if err != nil {
		panic(err)
	}
	fmt.Println(x)
	// Output: [-1 9 16]
}

// ExampleNewPlan shows the two equivalent ways to configure a plan:
// functional options layered on the FBMPK defaults, and a wholesale
// Options value (which is itself an option).
func ExampleNewPlan() {
	tr, err := fbmpk.NewTriplets(2, 2, 2)
	if err != nil {
		panic(err)
	}
	tr.Add(0, 0, 3)
	tr.Add(1, 1, 5)
	a := tr.ToCSR()

	// Functional options: start from the paper's FBMPK configuration
	// and adjust individual knobs.
	p1, err := fbmpk.NewPlan(a, fbmpk.WithThreads(2))
	if err != nil {
		panic(err)
	}
	defer p1.Close()

	// Explicit Options value: applies wholesale, as before.
	p2, err := fbmpk.NewPlan(a, fbmpk.Options{
		Engine:  fbmpk.EngineForwardBackward,
		BtB:     true,
		Threads: 2,
	})
	if err != nil {
		panic(err)
	}
	defer p2.Close()

	x1, err := p1.MPK([]float64{1, 1}, 3)
	if err != nil {
		panic(err)
	}
	x2, err := p2.MPK([]float64{1, 1}, 3)
	if err != nil {
		panic(err)
	}
	fmt.Println(x1, x2)
	// Output: [27 125] [27 125]
}

// ExamplePlan_SSpMV evaluates a short polynomial in A applied to x as
// one fused pipeline.
func ExamplePlan_SSpMV() {
	tr, err := fbmpk.NewTriplets(2, 2, 2)
	if err != nil {
		panic(err)
	}
	tr.Add(0, 0, 1)
	tr.Add(1, 1, 2)
	a := tr.ToCSR()

	plan, err := fbmpk.NewPlan(a, fbmpk.Options{Engine: fbmpk.EngineForwardBackward})
	if err != nil {
		panic(err)
	}
	defer plan.Close()

	// y = 1*x + 1*Ax + 1*A^2 x; A = diag(1, 2).
	y, err := plan.SSpMV([]float64{1, 1, 1}, []float64{1, 1})
	if err != nil {
		panic(err)
	}
	fmt.Println(y)
	// Output: [3 7]
}

// ExampleStandardMPK shows the Algorithm 1 baseline the paper
// compares against.
func ExampleStandardMPK() {
	tr, err := fbmpk.NewTriplets(2, 2, 3)
	if err != nil {
		panic(err)
	}
	tr.Add(0, 0, 0)
	tr.Add(0, 1, 1)
	tr.Add(1, 0, 1)
	a := tr.ToCSR()

	// A is the swap matrix; A^3 swaps once net.
	x, err := fbmpk.StandardMPK(a, []float64{5, 7}, 3)
	if err != nil {
		panic(err)
	}
	fmt.Println(x)
	// Output: [7 5]
}

// ExampleVerify checks a default plan's A^5 x on a pwtk stand-in
// against k plain SpMV sweeps, the paper's Algorithm 1 baseline.
func ExampleVerify() {
	a, err := fbmpk.GenerateSuiteMatrix("pwtk", 0.001, 42)
	if err != nil {
		panic(err)
	}
	plan, err := fbmpk.NewPlan(a)
	if err != nil {
		panic(err)
	}
	defer plan.Close()
	x0 := make([]float64, a.Rows)
	x0[0] = 1
	got, err := plan.MPK(x0, 5)
	if err != nil {
		panic(err)
	}
	fmt.Println(a.Rows, "rows, agrees with the baseline:", fbmpk.Verify(a, x0, got, 5, 1e-12) == nil)
	// Output: 250 rows, agrees with the baseline: true
}
