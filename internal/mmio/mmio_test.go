package mmio

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fbmpk/internal/sparse"
)

func randomCSR(rng *rand.Rand, n, perRow int) *sparse.CSR {
	coo := sparse.NewCOO(n, n, n*(perRow+1))
	for i := 0; i < n; i++ {
		coo.Add(i, i, 1+rng.Float64())
		for k := 0; k < perRow; k++ {
			coo.Add(i, rng.Intn(n), rng.NormFloat64())
		}
	}
	return coo.ToCSR()
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		m := randomCSR(rng, 1+rng.Intn(40), rng.Intn(5))
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			t.Fatal(err)
		}
		back, h, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if h.Symmetry != "general" || h.Field != "real" {
			t.Fatalf("header = %+v", h)
		}
		if !reflect.DeepEqual(m, back) {
			t.Fatalf("trial %d: round trip changed the matrix", trial)
		}
	}
}

func TestReadSymmetric(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real symmetric
% a 3x3 symmetric matrix stored as lower triangle
3 3 4
1 1 2.0
2 1 -1.0
3 2 -1.0
3 3 2.0
`
	m, h, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if h.Symmetry != "symmetric" {
		t.Fatalf("symmetry = %q", h.Symmetry)
	}
	if m.NNZ() != 6 {
		t.Fatalf("NNZ = %d, want 6 after expansion", m.NNZ())
	}
	if m.At(1, 2) != -1 || m.At(2, 1) != -1 {
		t.Error("mirror entry missing")
	}
	if !m.IsSymmetric(0) {
		t.Error("expanded matrix not symmetric")
	}
}

func TestReadSkewSymmetric(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real skew-symmetric
2 2 1
2 1 3.5
`
	m, _, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 3.5 || m.At(0, 1) != -3.5 {
		t.Errorf("skew expansion wrong: %g %g", m.At(1, 0), m.At(0, 1))
	}
}

func TestReadPattern(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate pattern general
2 3 2
1 3
2 1
`
	m, _, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 2) != 1 || m.At(1, 0) != 1 {
		t.Error("pattern entries not set to 1")
	}
}

func TestReadIntegerAndComments(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate integer general\n" +
		"% comment\n\n% another\n" +
		"2 2 2\n" +
		"1 1 4\n" +
		"% inline comment line\n" +
		"2 2 -7\n"
	m, _, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 4 || m.At(1, 1) != -7 {
		t.Error("integer values wrong")
	}
}

func TestReadErrors(t *testing.T) {
	cases := []struct{ name, in string }{
		{"empty", ""},
		{"bad banner", "%%NotMM matrix coordinate real general\n1 1 0\n"},
		{"array format", "%%MatrixMarket matrix array real general\n1 1\n1.0\n"},
		{"complex field", "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n"},
		{"bad symmetry", "%%MatrixMarket matrix coordinate real hermitian\n1 1 0\n"},
		{"bad size", "%%MatrixMarket matrix coordinate real general\n1 1\n"},
		{"negative size", "%%MatrixMarket matrix coordinate real general\n-1 1 0\n"},
		{"missing entries", "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n"},
		{"index out of range", "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n"},
		{"zero index", "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n"},
		{"bad value", "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 abc\n"},
		{"short entry", "%%MatrixMarket matrix coordinate real general\n1 1 1\n1\n"},
	}
	for _, c := range cases {
		if _, _, err := Read(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: Read accepted invalid input", c.name)
		}
	}
}

func TestReadNoTrailingNewline(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 5.0"
	m, _, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 5 {
		t.Error("entry lost without trailing newline")
	}
}

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.mtx")
	rng := rand.New(rand.NewSource(2))
	m := randomCSR(rng, 20, 3)
	if err := WriteFile(path, m); err != nil {
		t.Fatal(err)
	}
	back, _, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, back) {
		t.Error("file round trip changed the matrix")
	}
	if _, _, err := ReadFile(filepath.Join(dir, "missing.mtx")); err == nil {
		t.Error("ReadFile accepted missing file")
	}
	if err := WriteFile(filepath.Join(dir, "nodir", "x.mtx"), m); err == nil {
		t.Error("WriteFile accepted unwritable path")
	}
	_ = os.Remove(path)
}

func TestDuplicateEntriesSummed(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real general
2 2 2
1 1 1.5
1 1 2.5
`
	m, _, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 4 {
		t.Errorf("duplicate sum = %g, want 4", m.At(0, 0))
	}
}

func TestCRLFLineEndings(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate real general\r\n" +
		"% a comment\r\n" +
		"2 2 3\r\n" +
		"1 1 1.5\r\n" +
		"2 1 -2\r\n" +
		"2 2 4\r\n"
	m, h, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if h.Symmetry != "general" || m.Rows != 2 || m.NNZ() != 3 {
		t.Fatalf("parsed %v (header %+v)", m, h)
	}
	if m.At(1, 0) != -2 || m.At(1, 1) != 4 {
		t.Fatalf("values lost under CRLF: %v %v %v", m.RowPtr, m.ColIdx, m.Val)
	}
}

func TestMissingTrailingNewline(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n2 2 3" // no final \n
	m, _, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 2 || m.At(1, 1) != 3 {
		t.Fatalf("final unterminated entry lost: %v %v %v", m.RowPtr, m.ColIdx, m.Val)
	}
}

func TestCommentsInterleavedWithData(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate real general\n" +
		"3 3 3\n" +
		"1 1 1\n" +
		"% halfway comment\n" +
		"\n" +
		"2 2 2\n" +
		"%another\n" +
		"3 3 3\n"
	m, _, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 3 || m.At(2, 2) != 3 {
		t.Fatalf("interleaved comments broke parsing: %v %v %v", m.RowPtr, m.ColIdx, m.Val)
	}
}

func TestSkewSymmetricDiagonal(t *testing.T) {
	// A stored nonzero diagonal contradicts a_ii = -a_ii.
	bad := "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 2\n2 1 3\n1 1 5\n"
	if _, _, err := Read(strings.NewReader(bad)); err == nil {
		t.Fatal("nonzero skew-symmetric diagonal accepted")
	}
	// An explicit zero on the diagonal is consistent and stays allowed.
	ok := "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 2\n2 1 3\n1 1 0\n"
	m, _, err := Read(strings.NewReader(ok))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != -3 || m.At(1, 0) != 3 {
		t.Fatalf("skew expansion wrong: %v %v %v", m.RowPtr, m.ColIdx, m.Val)
	}
	// Pattern entries carry an implicit value of 1, so a diagonal entry
	// in a pattern skew file is rejected too.
	pat := "%%MatrixMarket matrix coordinate pattern skew-symmetric\n2 2 1\n1 1\n"
	if _, _, err := Read(strings.NewReader(pat)); err == nil {
		t.Fatal("pattern skew-symmetric diagonal accepted")
	}
}

func TestHugeHeaderDoesNotPanicOrAllocate(t *testing.T) {
	// nnz near MaxInt64: before the capHint clamp this overflowed the
	// symmetric doubling into a negative make() capacity (panic), or
	// demanded petabytes for the general case.
	for _, sym := range []string{"general", "symmetric"} {
		in := "%%MatrixMarket matrix coordinate real " + sym + "\n3 3 4611686018427387904\n1 1 1\n"
		if _, _, err := Read(strings.NewReader(in)); err == nil {
			t.Fatalf("%s: truncated huge-nnz file accepted", sym)
		}
	}
}
