package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// rowAccGuard fills the slots either side of x in its backing array.
var rowAccGuard = math.Float64frombits(0x7ff8_0000_dead_beef)

// rowAccValue draws from normal numbers mixed with the values whose bits
// an arithmetic shortcut would get wrong: signed zeros, subnormals,
// infinities, and quiet and signalling NaNs with payloads.
func rowAccValue(rng *rand.Rand) float64 {
	special := []uint64{
		0, 1 << 63, 1, 1<<63 | 0x000f_ffff_ffff_ffff, 0x0008_0000_0000_0000,
		0x7ff0_0000_0000_0000, 0xfff0_0000_0000_0000,
		0x7ff8_0000_0000_0123, 0xfff8_0000_0000_0456, 0x7ff4_0000_0000_0042, 0xfff0_0000_0000_0001,
	}
	if rng.Intn(4) == 0 {
		return math.Float64frombits(special[rng.Intn(len(special))])
	}
	return rng.NormFloat64()
}

// rowAccShape is one primitive under test: lanes 8 or 4, the vector
// stride, the caller's offset into the block, and the direction.
type rowAccShape struct {
	lanes, stride, off int
	desc               bool
}

var rowAccShapes = []rowAccShape{
	{8, 8, 0, false}, {8, 8, 0, true},
	{4, 4, 0, false}, {4, 4, 0, true},
	{4, 8, 0, false}, {4, 8, 0, true},
	{4, 8, 4, false}, {4, 8, 4, true},
}

// call runs the exported form (the assembly where it is built) or the Go
// form on acc[:lanes] over row i of a and reports whether it panicked.
func (s rowAccShape) call(exported bool, acc *[8]float64, a *CSR, i int, x []float64) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	a4, hi := (*[4]float64)(acc[:4]), (*[4]float64)(acc[4:])
	switch {
	case s.lanes == 8 && !s.desc && exported:
		RowAcc8Asc(a4, hi, a, i, x)
	case s.lanes == 8 && !s.desc:
		rowAcc8AscGo(a4, hi, a, i, x)
	case s.lanes == 8 && exported:
		RowAcc8Desc(a4, hi, a, i, x)
	case s.lanes == 8:
		rowAcc8DescGo(a4, hi, a, i, x)
	case !s.desc && exported:
		RowAcc4Asc(a4, a, i, x, s.stride)
	case !s.desc:
		rowAcc4AscGo(a4, a, i, x, s.stride)
	case exported:
		RowAcc4Desc(a4, a, i, x, s.stride)
	default:
		rowAcc4DescGo(a4, a, i, x, s.stride)
	}
	return false
}

// rowAccMatrix is a three-row matrix whose middle row holds (c, v); its
// neighbours are one entry each that gathers out of range, so a form
// that strays over a row boundary panics.
func rowAccMatrix(c []int32, v []float64) *CSR {
	n := int64(len(c))
	a := &CSR{Rows: 3, RowPtr: []int64{0, 1, 1 + n, 2 + n}}
	a.ColIdx = append(append([]int32{-1}, c...), -1)
	a.Val = append(append([]float64{1}, v...), 1)
	return a
}

// rowAccCheck holds the exported form to the Go form, bitwise, on one
// random row of n entries over cols columns. One exception: where a lane
// is NaN in one form it must be NaN in the other, payload not compared —
// of two NaN operands x86 keeps the first, and which of a commutative
// pair the Go compiler puts first is its register allocator's business,
// so the payload is a property of neither form. badAt >= 0 replaces entry
// badAt's column with badCol, which must be out of range: both forms
// must then panic with acc untouched. x sits inside a larger array, so
// a window that leaves it would still be addressable memory — the guard
// slots — and only the check keeps the forms out of it.
func rowAccCheck(t *testing.T, s rowAccShape, seed int64, n, badAt int, badCol int32) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cols := 1 + rng.Intn(7)
	const guard = 16
	back := make([]float64, guard+cols*s.stride+guard)
	for i := range back {
		back[i] = rowAccGuard
	}
	block := back[guard : guard+cols*s.stride]
	for i := range block {
		block[i] = rowAccValue(rng)
	}
	x := block[s.off:]
	c := make([]int32, n)
	v := make([]float64, n)
	for k := range c {
		c[k] = int32(rng.Intn(cols))
		v[k] = rowAccValue(rng)
	}
	if badAt >= 0 {
		c[badAt] = badCol
	}
	var init [8]float64
	for l := range init {
		init[l] = rowAccValue(rng)
	}
	a := rowAccMatrix(c, v)
	got, want := init, init
	gotPanic := s.call(true, &got, a, 1, x)
	wantPanic := s.call(false, &want, a, 1, x)
	name := fmt.Sprintf("%+v seed=%d n=%d", s, seed, n)
	if gotPanic != (badAt >= 0) || wantPanic != (badAt >= 0) {
		t.Fatalf("%s bad=%d@%d: panicked exported=%v go=%v", name, badCol, badAt, gotPanic, wantPanic)
	}
	if badAt >= 0 {
		want = init
	}
	for l := range got {
		if math.Float64bits(got[l]) != math.Float64bits(want[l]) && !(math.IsNaN(got[l]) && math.IsNaN(want[l])) {
			t.Fatalf("%s bad=%d: lane %d = %x, want %x", name, badAt, l, math.Float64bits(got[l]), math.Float64bits(want[l]))
		}
	}
	for i, g := range back {
		if (i < guard || i >= guard+len(block)) && math.Float64bits(g) != math.Float64bits(rowAccGuard) {
			t.Fatalf("%s: guard slot %d overwritten", name, i)
		}
	}
}

func TestRowAccMatchesGo(t *testing.T) {
	for _, s := range rowAccShapes {
		for n := 0; n <= 33; n++ {
			for seed := int64(0); seed < 8; seed++ {
				rowAccCheck(t, s, seed*64+int64(n), n, -1, 0)
			}
		}
	}
}

// TestRowAccGatherPanics: a column of -1 or of the column count, at the
// first, a middle or the last entry, panics in both forms.
func TestRowAccGatherPanics(t *testing.T) {
	for _, s := range rowAccShapes {
		for _, n := range []int{1, 2, 9} {
			for _, at := range []int{0, n / 2, n - 1} {
				for seed := int64(0); seed < 4; seed++ {
					cols := int32(1 + rand.New(rand.NewSource(seed)).Intn(7))
					rowAccCheck(t, s, seed, n, at, -1)
					rowAccCheck(t, s, seed, n, at, cols)
				}
			}
		}
	}
	// A block shorter than one window has no in-range column at all.
	var acc [8]float64
	a := rowAccMatrix([]int32{0}, []float64{1})
	for _, s := range rowAccShapes {
		if !s.call(true, &acc, a, 1, make([]float64, s.lanes-1)) {
			t.Fatalf("%+v: short block did not panic", s)
		}
	}
}

// TestRowAccRowPanics: a row outside the matrix, or whose RowPtr pair
// does not delimit entries the matrix has, panics in both forms. (The
// slices are cut to capacity: Go slices up to it, the assembly only up
// to the length.)
func TestRowAccRowPanics(t *testing.T) {
	good := rowAccMatrix([]int32{0, 0}, []float64{1, 2})
	x := make([]float64, 8)
	rows := func(rp ...int64) *CSR {
		return &CSR{Rows: len(rp) - 1, RowPtr: rp, ColIdx: good.ColIdx[1:3:3], Val: good.Val[1:3:3]}
	}
	cases := []struct {
		name string
		a    *CSR
		i    int
	}{
		{"row -1", good, -1},
		{"row n", good, 3},
		{"row past RowPtr", good, 1 << 40},
		{"no RowPtr", &CSR{}, 0},
		{"descending", rows(2, 0), 0},
		{"negative start", rows(-1, 2), 0},
		{"past ColIdx", rows(0, 3), 0},
		{"past Val", &CSR{Rows: 1, RowPtr: []int64{0, 2}, ColIdx: good.ColIdx[1:3:3], Val: good.Val[1:2:2]}, 0},
		{"far past", rows(0, 1<<62), 0},
	}
	for _, s := range rowAccShapes {
		for _, c := range cases {
			for _, exported := range []bool{true, false} {
				var acc [8]float64
				if !s.call(exported, &acc, c.a, c.i, x) {
					t.Errorf("%+v %s exported=%v: no panic", s, c.name, exported)
				}
				if acc != [8]float64{} {
					t.Errorf("%+v %s exported=%v: acc written", s, c.name, exported)
				}
			}
		}
	}
}

func FuzzRowAcc(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(5), int8(-1), int32(0))
	f.Add(int64(2), uint8(7), uint8(33), int8(3), int32(-1))
	f.Fuzz(func(t *testing.T, seed int64, shape, n uint8, badAt int8, badCol int32) {
		s := rowAccShapes[int(shape)%len(rowAccShapes)]
		at := -1
		if badAt >= 0 && n > 0 && (badCol < 0 || badCol >= 8) {
			at = int(badAt) % int(n)
		}
		rowAccCheck(t, s, seed, int(n), at, badCol)
	})
}
