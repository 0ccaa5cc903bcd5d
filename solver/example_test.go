package solver_test

import (
	"fmt"
	"math"

	"fbmpk"
	"fbmpk/solver"
)

// ExamplePowerMethod estimates the dominant eigenvalue of an ldoor
// stand-in, 4 powers of A per MPK pipeline between normalizations.
func ExamplePowerMethod() {
	a, err := fbmpk.GenerateSuiteMatrix("ldoor", 0.0005, 3)
	if err != nil {
		panic(err)
	}
	plan, err := fbmpk.NewPlan(a)
	if err != nil {
		panic(err)
	}
	defer plan.Close()
	x0 := make([]float64, a.Rows) // not all ones: the rows sum to 1, so that is an eigenvector
	x0[0] = 1
	res, err := solver.PowerMethod(plan, x0, 4, 250, 1e-4)
	if err != nil {
		panic(err)
	}
	fmt.Printf("lambda = %.4g after %d applications\n", res.Lambda, res.Iterations)
	// Output: lambda = 51.56 after 810 applications
}

// ExampleChebyshevSolve approximates A^-1 b on a G3_circuit stand-in by
// x = p(A) b, one fused SSpMV: the residual falls as p's degree rises.
func ExampleChebyshevSolve() {
	a, err := fbmpk.GenerateSuiteMatrix("G3_circuit", 0.0005, 5)
	if err != nil {
		panic(err)
	}
	plan, err := fbmpk.NewPlan(a)
	if err != nil {
		panic(err)
	}
	defer plan.Close()
	lo, hi := solver.Gershgorin(a)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = math.Sin(float64(i))
	}
	for _, degree := range []int{2, 4, 8, 16} {
		x, err := solver.ChebyshevSolve(plan, b, lo, hi, degree)
		if err != nil {
			panic(err)
		}
		ax, err := plan.MPK(x, 1)
		if err != nil {
			panic(err)
		}
		var r2, b2 float64
		for i := range ax {
			r2 += (b[i] - ax[i]) * (b[i] - ax[i])
			b2 += b[i] * b[i]
		}
		fmt.Printf("degree %2d: relative residual %.2e\n", degree, math.Sqrt(r2/b2))
	}
	// Output:
	// degree  2: relative residual 4.12e-01
	// degree  4: relative residual 1.79e-01
	// degree  8: relative residual 2.76e-02
	// degree 16: relative residual 5.03e-04
}

// ExampleNeumannSeries evaluates the PageRank series (1-d) sum d^i P^i v
// to order k on a cage14 stand-in's transpose: the rank mass settles.
func ExampleNeumannSeries() {
	g, err := fbmpk.GenerateSuiteMatrix("cage14", 0.0005, 11)
	if err != nil {
		panic(err)
	}
	plan, err := fbmpk.NewPlan(g.Transpose())
	if err != nil {
		panic(err)
	}
	defer plan.Close()
	v := make([]float64, g.Rows) // teleport to vertex 0: a personalized PageRank
	v[0] = 1
	for _, k := range []int{3, 9, 27, 81} {
		x, err := solver.NeumannSeries(plan, v, 0.85, k, true)
		if err != nil {
			panic(err)
		}
		var mass float64
		for _, xi := range x {
			mass += xi
		}
		fmt.Printf("k = %3d: rank mass %.4f\n", k, mass)
	}
	// Output:
	// k =   3: rank mass 0.4871
	// k =   9: rank mass 0.8340
	// k =  27: rank mass 1.0441
	// k =  81: rank mass 1.0572
}

// ExampleCG solves A x = b by conjugate gradients on an af_shell10
// stand-in, every product with A routed through the plan.
func ExampleCG() {
	a, err := fbmpk.GenerateSuiteMatrix("af_shell10", 0.0005, 21)
	if err != nil {
		panic(err)
	}
	plan, err := fbmpk.NewPlan(a)
	if err != nil {
		panic(err)
	}
	defer plan.Close()
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = math.Sin(float64(i))
	}
	res, err := solver.CG(plan, b, 1e-10, 500)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Iterations, "iterations, A x = b:", fbmpk.Verify(a, res.X, b, 1, 1e-8) == nil)
	// Output: 36 iterations, A x = b: true
}
