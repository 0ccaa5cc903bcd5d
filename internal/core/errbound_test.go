package core

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"fbmpk/internal/matgen"
	"fbmpk/internal/parallel"
	"fbmpk/internal/reorder"
	"fbmpk/internal/sparse"
)

// The derived error bound (ROADMAP 4(d)). Every kernel here computes a
// row of A*x as a sum of at most r products (r = max nonzeros per row)
// in *some* order — split accumulators, L/D/U pieces joined later — and
// any order passes a product through at most r+1 additions, so one
// power satisfies fl(A*x) = (A + dA)*x with |dA| <= gamma_{r+2}*|A|
// (Higham, Accuracy and Stability, section 3.1; gamma_n = n*u/(1 - n*u),
// u = 2^-53) and k powers satisfy, componentwise,
//
//	|fl(A^k x) - A^k x|_i <= gamma_{k(r+2)} * (|A|^k |x|)_i.
//
// The bound does not depend on the summation order, which is what lets
// a kernel re-associate its sums (and the golden digests move) without
// the change being indistinguishable from a bug. Both sides are
// evaluated exactly in math/big on suite matrices small enough for it.

const bigPrec = 4096 // every product and sum below is checked to be exact at this precision

// bigPowers returns A^k*x, or |A|^k*|x| when abs is set, exactly.
func bigPowers(t *testing.T, a *sparse.CSR, x []float64, k int, abs bool) []*big.Float {
	t.Helper()
	lift := func(f float64) *big.Float {
		z := new(big.Float).SetPrec(bigPrec).SetFloat64(f)
		if abs {
			z.Abs(z)
		}
		return z
	}
	cur := make([]*big.Float, len(x))
	for i, f := range x {
		cur[i] = lift(f)
	}
	p := new(big.Float).SetPrec(bigPrec)
	for ; k > 0; k-- {
		next := make([]*big.Float, len(x))
		for i := range next {
			s := new(big.Float).SetPrec(bigPrec)
			for j := a.RowPtr[i]; j < a.RowPtr[i+1]; j++ {
				p.Mul(lift(a.Val[j]), cur[a.ColIdx[j]])
				if p.Acc() != big.Exact || s.Add(s, p).Acc() != big.Exact {
					t.Fatalf("math/big reference rounded at %d bits", bigPrec)
				}
			}
			next[i] = s
		}
		cur = next
	}
	return cur
}

// mpkPath is one way of computing A^k x_j for a block of vectors.
type mpkPath struct {
	name string
	run  func(xs [][]float64, k int) ([][]float64, error)
}

// perVector lifts a single-vector kernel to a block.
func perVector(one func(x []float64, k int) ([]float64, error)) func([][]float64, int) ([][]float64, error) {
	return func(xs [][]float64, k int) ([][]float64, error) {
		out := make([][]float64, len(xs))
		for j, x := range xs {
			y, err := one(x, k)
			if err != nil {
				return nil, err
			}
			out[j] = y
		}
		return out, nil
	}
}

// checkBound asserts every path within the bound on a (in whatever
// numbering a and xs share).
func checkBound(t *testing.T, label string, a *sparse.CSR, xs [][]float64, paths []mpkPath) {
	t.Helper()
	r := 0
	for i := 0; i < a.Rows; i++ {
		r = max(r, int(a.RowPtr[i+1]-a.RowPtr[i]))
	}
	for _, k := range []int{1, 2, 5, 6} {
		// gamma_{k(r+2)}, itself rounded only at bigPrec bits.
		nu := new(big.Float).SetPrec(bigPrec).SetMantExp(big.NewFloat(float64(k*(r+2))), -53)
		gamma := new(big.Float).Quo(nu, new(big.Float).Sub(big.NewFloat(1).SetPrec(bigPrec), nu))
		exact := make([][]*big.Float, len(xs))
		bound := make([][]*big.Float, len(xs))
		for j, x := range xs {
			exact[j] = bigPowers(t, a, x, k, false)
			bound[j] = bigPowers(t, a, x, k, true)
			for _, b := range bound[j] {
				b.Mul(b, gamma)
			}
		}
		for _, p := range paths {
			got, err := p.run(xs, k)
			if err != nil {
				t.Fatalf("%s/%s k=%d: %v", label, p.name, k, err)
			}
			if len(got) != len(xs) {
				t.Fatalf("%s/%s k=%d: %d result vectors, want %d", label, p.name, k, len(got), len(xs))
			}
			diff := new(big.Float).SetPrec(bigPrec)
			for j := range got {
				for i, g := range got[j] {
					diff.Sub(new(big.Float).SetPrec(bigPrec).SetFloat64(g), exact[j][i])
					if diff.Abs(diff).Cmp(bound[j][i]) > 0 {
						t.Fatalf("%s/%s k=%d vector %d row %d: |error| %s exceeds gamma_{%d}*(|A|^k|x|)_i = %s",
							label, p.name, k, j, i, diff.Text('g', 6), k*(r+2), bound[j][i].Text('g', 6))
					}
				}
			}
		}
	}
}

// fbPaths lists the FB kernel variants — scalar, register-blocked m = 4
// and m-wide (m = 3), each in both layouts — over the given scalar and
// batched runners.
func fbPaths(one func(x []float64, k int, btb bool) ([]float64, error), multi func(xs [][]float64, k int, btb bool) ([][]float64, error)) []mpkPath {
	var paths []mpkPath
	for _, btb := range []bool{true, false} {
		paths = append(paths,
			mpkPath{fmt.Sprintf("fb/m=1/btb=%v", btb), perVector(func(x []float64, k int) ([]float64, error) { return one(x, k, btb) })},
			mpkPath{fmt.Sprintf("fb/m=4/btb=%v", btb), func(xs [][]float64, k int) ([][]float64, error) { return multi(xs, k, btb) }},
			mpkPath{fmt.Sprintf("fb/m=3/btb=%v", btb), func(xs [][]float64, k int) ([][]float64, error) {
				// The m-wide kernel on the first three vectors; the
				// fourth rides the m = 1 kernel so the block stays whole.
				out, err := multi(xs[:3], k, btb)
				if err != nil {
					return nil, err
				}
				last, err := one(xs[3], k, btb)
				return append(out, last), err
			}})
	}
	return paths
}

// lbBoundBlockBytes cuts the n <= 200 matrices below into several level
// blocks, so the skewed passes (not one degenerate block) are what the
// bound is checked on.
const lbBoundBlockBytes = 2 << 10

func TestDerivedErrorBound(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	for mi, name := range []string{"pwtk", "cant", "G3_circuit", "cage14"} {
		spec, err := matgen.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		a := spec.Generate(1e-4, uint64(mi)+1)
		n := a.Rows
		if n > 200 {
			t.Fatalf("%s: n = %d, too large for the exact reference", name, n)
		}
		rng := rand.New(rand.NewSource(int64(mi) + 40))
		xs := randBlock(rng, n, 4)

		// One worker: the oracle loop, and the serial pipeline.
		tri, err := sparse.Split(a)
		if err != nil {
			t.Fatal(err)
		}
		serial := append(fbPaths(
			func(x []float64, k int, btb bool) ([]float64, error) {
				y, _, err := FBMPKSerial(tri, x, k, btb, nil, nil)
				return y, err
			},
			func(xs [][]float64, k int, btb bool) ([][]float64, error) {
				ys, _, err := FBMPKSerialMulti(tri, xs, k, btb, nil)
				return ys, err
			}),
			mpkPath{"standard", perVector(func(x []float64, k int) ([]float64, error) { return StandardMPK(a, x, k, nil) })},
			mpkPath{"levelblock", perVector(func(x []float64, k int) ([]float64, error) { return LevelBlockedMPK(a, x, k, lbBoundBlockBytes, nil) })})
		checkBound(t, name+"/t1", a, xs, serial)

		// Four workers, in the ABMC numbering the schedule needs.
		ord, pa, err := reorder.ABMCReorder(a, reorder.ABMCOptions{NumBlocks: 16})
		if err != nil {
			t.Fatal(err)
		}
		ptri, err := sparse.Split(pa)
		if err != nil {
			t.Fatal(err)
		}
		fb, err := NewFBParallel(ptri, ord, pool)
		if err != nil {
			t.Fatal(err)
		}
		fbm := NewFBParallelMulti(fb)
		// The level-blocked plan re-permutes pa by BFS level internally
		// and answers in pa's numbering, like every plan.
		lb, err := NewPlan(pa, Options{Engine: EngineLevelBlocked, Threads: 4, LevelBlockBytes: lbBoundBlockBytes})
		if err != nil {
			t.Fatal(err)
		}
		pxs := make([][]float64, len(xs))
		for j, x := range xs {
			pxs[j] = make([]float64, n)
			ord.Perm.ApplyVec(x, pxs[j])
		}
		par := append(fbPaths(
			func(x []float64, k int, btb bool) ([]float64, error) {
				y, _, err := fb.Run(x, k, btb, nil)
				return y, err
			},
			func(xs [][]float64, k int, btb bool) ([][]float64, error) {
				ys, _, err := fbm.Run(xs, k, btb, nil)
				return ys, err
			}),
			mpkPath{"standard", perVector(func(x []float64, k int) ([]float64, error) { return StandardMPKParallel(pa, x, k, pool, nil) })},
			mpkPath{"levelblock", perVector(lb.MPK)})
		checkBound(t, name+"/t4", pa, pxs, par)
		lb.Close()
	}
}
