// Package mmio reads and writes sparse matrices in the MatrixMarket
// exchange format (.mtx). The paper's evaluation matrices come from the
// SuiteSparse collection in this format; the synthetic suite in
// internal/matgen stands in for them by default, but any real .mtx file
// can be dropped in through this package.
//
// Supported: "matrix coordinate" with field real/integer/pattern and
// symmetry general/symmetric/skew-symmetric. Complex fields and dense
// ("array") storage are rejected with a clear error.
package mmio

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"fbmpk/internal/sparse"
)

// Header describes the MatrixMarket banner of a file.
type Header struct {
	Object   string // "matrix"
	Format   string // "coordinate"
	Field    string // "real", "integer", "pattern"
	Symmetry string // "general", "symmetric", "skew-symmetric"
}

// Read parses a MatrixMarket stream into CSR, expanding symmetric
// storage into both triangles.
func Read(r io.Reader) (*sparse.CSR, *Header, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	line, err := br.ReadString('\n')
	if err != nil && line == "" {
		return nil, nil, fmt.Errorf("mmio: empty input: %w", err)
	}
	h, err := parseBanner(line)
	if err != nil {
		return nil, nil, err
	}

	// Skip comments, find the size line.
	var sizeLine string
	for {
		l, err := br.ReadString('\n')
		if l == "" && err != nil {
			return nil, nil, fmt.Errorf("mmio: missing size line: %w", err)
		}
		t := strings.TrimSpace(l)
		if t == "" || strings.HasPrefix(t, "%") {
			continue
		}
		sizeLine = t
		break
	}
	fields := strings.Fields(sizeLine)
	if len(fields) != 3 {
		return nil, nil, fmt.Errorf("mmio: bad size line %q", sizeLine)
	}
	rows, err1 := strconv.Atoi(fields[0])
	cols, err2 := strconv.Atoi(fields[1])
	nnz, err3 := strconv.Atoi(fields[2])
	if err1 != nil || err2 != nil || err3 != nil || rows < 0 || cols < 0 || nnz < 0 {
		return nil, nil, fmt.Errorf("mmio: bad size line %q", sizeLine)
	}
	if h.Symmetry != "general" && rows != cols {
		// The mirrored entry of a symmetric format only exists in a
		// square matrix.
		return nil, nil, fmt.Errorf("mmio: %s matrix must be square, got %dx%d", h.Symmetry, rows, cols)
	}

	// The header's nnz is untrusted input: cap the preallocation hint so
	// a bogus huge count can neither overflow the symmetric doubling
	// below nor demand gigabytes before the first entry fails to parse.
	// The hint only pre-sizes the builder; real files larger than the
	// cap still load through append growth.
	const maxCapHint = 1 << 20
	capHint := nnz
	if capHint > maxCapHint {
		capHint = maxCapHint
	}
	if h.Symmetry != "general" {
		capHint *= 2
	}
	coo := sparse.NewCOO(rows, cols, capHint)
	read := 0
	for read < nnz {
		l, err := br.ReadString('\n')
		t := strings.TrimSpace(l)
		if t != "" && !strings.HasPrefix(t, "%") {
			if perr := parseEntry(t, h, coo); perr != nil {
				return nil, nil, fmt.Errorf("mmio: entry %d: %w", read+1, perr)
			}
			read++
		}
		if err != nil {
			if err == io.EOF {
				break
			}
			return nil, nil, fmt.Errorf("mmio: read: %w", err)
		}
	}
	if read != nnz {
		return nil, nil, fmt.Errorf("mmio: expected %d entries, found %d", nnz, read)
	}
	return coo.ToCSR(), h, nil
}

func parseBanner(line string) (*Header, error) {
	f := strings.Fields(strings.ToLower(strings.TrimSpace(line)))
	if len(f) != 5 || f[0] != "%%matrixmarket" {
		return nil, fmt.Errorf("mmio: bad banner %q", strings.TrimSpace(line))
	}
	h := &Header{Object: f[1], Format: f[2], Field: f[3], Symmetry: f[4]}
	if h.Object != "matrix" {
		return nil, fmt.Errorf("mmio: unsupported object %q", h.Object)
	}
	if h.Format != "coordinate" {
		return nil, fmt.Errorf("mmio: unsupported format %q (only coordinate)", h.Format)
	}
	switch h.Field {
	case "real", "integer", "pattern":
	default:
		return nil, fmt.Errorf("mmio: unsupported field %q", h.Field)
	}
	switch h.Symmetry {
	case "general", "symmetric", "skew-symmetric":
	default:
		return nil, fmt.Errorf("mmio: unsupported symmetry %q", h.Symmetry)
	}
	return h, nil
}

func parseEntry(t string, h *Header, coo *sparse.COO) error {
	f := strings.Fields(t)
	wantFields := 3
	if h.Field == "pattern" {
		wantFields = 2
	}
	if len(f) < wantFields {
		return fmt.Errorf("short entry %q", t)
	}
	i, err := strconv.Atoi(f[0])
	if err != nil {
		return err
	}
	j, err := strconv.Atoi(f[1])
	if err != nil {
		return err
	}
	v := 1.0
	if h.Field != "pattern" {
		v, err = strconv.ParseFloat(f[2], 64)
		if err != nil {
			return err
		}
	}
	i-- // MatrixMarket is 1-based
	j--
	if i < 0 || i >= coo.Rows || j < 0 || j >= coo.Cols {
		return fmt.Errorf("index (%d,%d) out of %dx%d", i+1, j+1, coo.Rows, coo.Cols)
	}
	switch h.Symmetry {
	case "general":
		coo.Add(i, j, v)
	case "symmetric":
		coo.AddSym(i, j, v)
	case "skew-symmetric":
		// Skew-symmetry forces a zero diagonal (a_ii = -a_ii); a stored
		// nonzero there contradicts the declared symmetry.
		if i == j && v != 0 {
			return fmt.Errorf("nonzero diagonal entry (%d,%d) = %g in skew-symmetric matrix", i+1, j+1, v)
		}
		coo.Add(i, j, v)
		if i != j {
			coo.Add(j, i, -v)
		}
	}
	return nil
}

// ReadFile reads a MatrixMarket file from disk.
func ReadFile(path string) (*sparse.CSR, *Header, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return Read(f)
}

// Write emits the matrix in "matrix coordinate real general" form with
// 1-based indices, entries in row-major order.
func Write(w io.Writer, m *sparse.CSR) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", m.Rows, m.Cols, m.NNZ()); err != nil {
		return err
	}
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.Row(i)
		for k, c := range cols {
			if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", i+1, c+1, vals[k]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// WriteFile writes the matrix to a .mtx file.
func WriteFile(path string, m *sparse.CSR) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, m); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
