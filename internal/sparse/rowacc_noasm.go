//go:build !amd64 || race

package sparse

func RowAcc8Asc(lo, hi *[4]float64, a *CSR, i int, xy []float64) { rowAcc8AscGo(lo, hi, a, i, xy) }

func RowAcc8Desc(lo, hi *[4]float64, a *CSR, i int, xy []float64) { rowAcc8DescGo(lo, hi, a, i, xy) }

func RowAcc4Asc(acc *[4]float64, a *CSR, i int, x []float64, stride int) {
	rowAcc4AscGo(acc, a, i, x, stride)
}

func RowAcc4Desc(acc *[4]float64, a *CSR, i int, x []float64, stride int) {
	rowAcc4DescGo(acc, a, i, x, stride)
}
