package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"fbmpk/internal/sparse"
)

func randomCSR(rng *rand.Rand, n, perRow int) *sparse.CSR {
	coo := sparse.NewCOO(n, n, n*(perRow+1))
	for i := 0; i < n; i++ {
		coo.Add(i, i, 0.5+rng.Float64())
		for k := 0; k < perRow; k++ {
			coo.Add(i, rng.Intn(n), rng.NormFloat64()/float64(perRow+1))
		}
	}
	return coo.ToCSR()
}

func randVec(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// refMPK computes A^k x with repeated dense-checked SpMV.
func refMPK(a *sparse.CSR, x0 []float64, k int) []float64 {
	x := sparse.CopyVec(x0)
	y := make([]float64, len(x0))
	for i := 0; i < k; i++ {
		sparse.SpMV(a, x, y)
		x, y = y, x
	}
	return x
}

func TestStandardMPKMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(40)
		a := randomCSR(rng, n, 3)
		x0 := randVec(rng, n)
		k := 1 + rng.Intn(9)
		got, err := StandardMPK(a, x0, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := refMPK(a, x0, k)
		if d := sparse.RelMaxDiff(got, want); d > 1e-12 {
			t.Fatalf("trial %d k=%d: diff %g", trial, k, d)
		}
	}
}

func TestStandardMPKIterateCallback(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 20
	a := randomCSR(rng, n, 2)
	x0 := randVec(rng, n)
	var powers []int
	_, err := StandardMPK(a, x0, 4, func(p int, x []float64) {
		powers = append(powers, p)
		want := refMPK(a, x0, p)
		if d := sparse.RelMaxDiff(x, want); d > 1e-12 {
			t.Errorf("iterate %d: diff %g", p, d)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(powers) != 4 || powers[0] != 1 || powers[3] != 4 {
		t.Errorf("powers = %v", powers)
	}
}

func TestStandardMPKErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomCSR(rng, 5, 1)
	if _, err := StandardMPK(a, make([]float64, 4), 1, nil); err == nil {
		t.Error("accepted short x0")
	}
	if _, err := StandardMPK(a, make([]float64, 5), 0, nil); err == nil {
		t.Error("accepted k=0")
	}
	rect := &sparse.CSR{Rows: 2, Cols: 3, RowPtr: []int64{0, 0, 0}}
	if _, err := StandardMPK(rect, make([]float64, 3), 1, nil); err == nil {
		t.Error("accepted rectangular matrix")
	}
}

// The core equivalence property of the paper (DESIGN.md §5): FBMPK in
// both layouts reproduces the standard MPK for every k, odd and even.
func TestFBMPKSerialMatchesStandard(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 8; trial++ {
		n := 2 + rng.Intn(50)
		a := randomCSR(rng, n, 4)
		tri, err := sparse.Split(a)
		if err != nil {
			t.Fatal(err)
		}
		x0 := randVec(rng, n)
		for k := 1; k <= 9; k++ {
			want := refMPK(a, x0, k)
			for _, btb := range []bool{false, true} {
				got, err := FBMPKSerial(tri, x0, k, btb, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				if d := sparse.RelMaxDiff(got, want); d > 1e-11 {
					t.Fatalf("trial %d k=%d btb=%v: diff %g", trial, k, btb, d)
				}
			}
		}
	}
}

func TestFBMPKSerialQuickProperty(t *testing.T) {
	f := func(seed int64, kRaw uint8, btb bool) bool {
		k := 1 + int(kRaw)%9
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(35)
		a := randomCSR(rng, n, 1+rng.Intn(5))
		tri, err := sparse.Split(a)
		if err != nil {
			return false
		}
		x0 := randVec(rng, n)
		got, err := FBMPKSerial(tri, x0, k, btb, nil, nil)
		if err != nil {
			return false
		}
		return sparse.RelMaxDiff(got, refMPK(a, x0, k)) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestFBMPKIteratesObserved(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 30
	a := randomCSR(rng, n, 3)
	tri, _ := sparse.Split(a)
	x0 := randVec(rng, n)
	for _, btb := range []bool{false, true} {
		var got []int
		_, err := FBMPKSerial(tri, x0, 5, btb, nil, func(p int, x []float64) {
			got = append(got, p)
			want := refMPK(a, x0, p)
			if d := sparse.RelMaxDiff(x, want); d > 1e-11 {
				t.Errorf("btb=%v iterate %d: diff %g", btb, p, d)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 5 {
			t.Errorf("btb=%v observed %v iterates", btb, got)
		}
	}
}

func TestSSpMVAgainstHorner(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 8; trial++ {
		n := 2 + rng.Intn(30)
		a := randomCSR(rng, n, 3)
		tri, _ := sparse.Split(a)
		x0 := randVec(rng, n)
		k := 1 + rng.Intn(7)
		coeffs := make([]float64, k+1)
		for i := range coeffs {
			coeffs[i] = rng.NormFloat64()
		}
		// Horner reference: y = (((c_k A + c_{k-1}) A + ...) + c_0) x.
		want := make([]float64, n)
		for i := range want {
			want[i] = coeffs[k] * x0[i]
		}
		tmp := make([]float64, n)
		for p := k - 1; p >= 0; p-- {
			sparse.SpMV(a, want, tmp)
			for i := range want {
				want[i] = tmp[i] + coeffs[p]*x0[i]
			}
		}
		gotStd, err := SSpMVStandard(a, coeffs, x0)
		if err != nil {
			t.Fatal(err)
		}
		if d := sparse.RelMaxDiff(gotStd, want); d > 1e-10 {
			t.Fatalf("trial %d: standard SSpMV diff %g", trial, d)
		}
		for _, btb := range []bool{false, true} {
			combo, err := FBMPKSerial(tri, x0, k, btb, coeffs, nil)
			if err != nil {
				t.Fatal(err)
			}
			if d := sparse.RelMaxDiff(combo, want); d > 1e-10 {
				t.Fatalf("trial %d btb=%v: FB SSpMV diff %g", trial, btb, d)
			}
		}
	}
}

func TestSSpMVConstantOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomCSR(rng, 10, 2)
	x0 := randVec(rng, 10)
	y, err := SSpMVStandard(a, []float64{2.5}, x0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range y {
		if y[i] != 2.5*x0[i] {
			t.Fatal("constant-term SSpMV wrong")
		}
	}
	if _, err := SSpMVStandard(a, nil, x0); err == nil {
		t.Error("accepted empty coefficients")
	}
}

func TestFBMPKErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randomCSR(rng, 6, 2)
	tri, _ := sparse.Split(a)
	x := randVec(rng, 6)
	if _, err := FBMPKSerial(tri, x[:5], 2, true, nil, nil); err == nil {
		t.Error("accepted short x0")
	}
	if _, err := FBMPKSerial(tri, x, 0, true, nil, nil); err == nil {
		t.Error("accepted k=0")
	}
	if _, err := FBMPKSerial(tri, x, 3, true, []float64{1, 2}, nil); err == nil {
		t.Error("accepted wrong-length coeffs")
	}
}

func TestFBMPKDiagonalOnlyMatrix(t *testing.T) {
	// Pure diagonal: L and U empty; exercises empty-row sweeps.
	n := 12
	coo := sparse.NewCOO(n, n, n)
	for i := 0; i < n; i++ {
		coo.Add(i, i, float64(i%3)+0.5)
	}
	a := coo.ToCSR()
	tri, _ := sparse.Split(a)
	rng := rand.New(rand.NewSource(9))
	x0 := randVec(rng, n)
	for k := 1; k <= 4; k++ {
		want := refMPK(a, x0, k)
		for _, btb := range []bool{false, true} {
			got, err := FBMPKSerial(tri, x0, k, btb, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if d := sparse.RelMaxDiff(got, want); d > 1e-13 {
				t.Fatalf("diagonal matrix k=%d btb=%v diff %g", k, btb, d)
			}
		}
	}
}

func TestFBMPKZeroDiagonal(t *testing.T) {
	// KKT-style: some diagonal entries are structurally zero.
	n := 10
	coo := sparse.NewCOO(n, n, 3*n)
	for i := 0; i < n-1; i++ {
		coo.Add(i, i+1, 1)
		coo.Add(i+1, i, 1)
	}
	for i := 0; i < n/2; i++ {
		coo.Add(i, i, 2)
	}
	a := coo.ToCSR()
	tri, _ := sparse.Split(a)
	rng := rand.New(rand.NewSource(10))
	x0 := randVec(rng, n)
	for _, k := range []int{1, 2, 3, 6} {
		want := refMPK(a, x0, k)
		got, err := FBMPKSerial(tri, x0, k, true, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if d := sparse.RelMaxDiff(got, want); d > 1e-12 {
			t.Fatalf("zero-diagonal k=%d diff %g", k, d)
		}
	}
}

// SSpMVStandard evaluates y = sum_{i=0..k} coeffs[i] * A^i * x0 with
// the standard engine (k = len(coeffs)-1 SpMV sweeps).
func SSpMVStandard(a *sparse.CSR, coeffs []float64, x0 []float64) ([]float64, error) {
	if len(coeffs) == 0 {
		return nil, fmt.Errorf("core: SSpMV needs at least one coefficient: %w", ErrBadCoeffs)
	}
	if len(x0) != a.Rows {
		return nil, fmt.Errorf("core: x0 length %d != n %d: %w", len(x0), a.Rows, ErrDimension)
	}
	y, hook := comboHook(coeffs, x0)
	if len(coeffs) == 1 {
		return y, nil
	}
	if _, err := StandardMPK(a, x0, len(coeffs)-1, hook); err != nil {
		return nil, err
	}
	return y, nil
}
