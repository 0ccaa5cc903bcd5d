//go:build amd64 && !race

package sparse

import "fmt"

// The assembly forms return -1, or having stored nothing: the position
// in the row of the first entry whose window leaves x, or -2 for a row
// that is not RowPtr[i] <= RowPtr[i+1] <= len(ColIdx), len(Val).

//go:noescape
func rowAcc8AscAsm(lo, hi *[4]float64, a *CSR, i int, x []float64) int

//go:noescape
func rowAcc8DescAsm(lo, hi *[4]float64, a *CSR, i int, x []float64) int

//go:noescape
func rowAcc4AscAsm(lo *[4]float64, a *CSR, i int, x []float64, stride int) int

//go:noescape
func rowAcc4DescAsm(lo *[4]float64, a *CSR, i int, x []float64, stride int) int

func RowAcc8Asc(lo, hi *[4]float64, a *CSR, i int, xy []float64) {
	if k := rowAcc8AscAsm(lo, hi, a, i, xy); k != -1 {
		panic(rowAccError{i, k})
	}
}

func RowAcc8Desc(lo, hi *[4]float64, a *CSR, i int, xy []float64) {
	if k := rowAcc8DescAsm(lo, hi, a, i, xy); k != -1 {
		panic(rowAccError{i, k})
	}
}

func RowAcc4Asc(acc *[4]float64, a *CSR, i int, x []float64, stride int) {
	if k := rowAcc4AscAsm(acc, a, i, x, stride); k != -1 {
		panic(rowAccError{i, k})
	}
}

func RowAcc4Desc(acc *[4]float64, a *CSR, i int, x []float64, stride int) {
	if k := rowAcc4DescAsm(acc, a, i, x, stride); k != -1 {
		panic(rowAccError{i, k})
	}
}

// rowAccError is the panic for what the assembly refused to read; the Go
// forms raise the runtime's bounds error there.
type rowAccError struct{ row, entry int }

func (e rowAccError) Error() string {
	if e.entry < 0 {
		return fmt.Sprintf("sparse: row %d out of range of its matrix", e.row)
	}
	return fmt.Sprintf("sparse: row %d entry %d gathers out of range", e.row, e.entry)
}
