package mmio

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzRead drives the MatrixMarket parser with arbitrary input: it
// must never panic, and anything it accepts must round-trip through
// the writer into an equal matrix.
func FuzzRead(f *testing.F) {
	seeds := []string{
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.5\n",
		"%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n1 1 2\n3 1 -1\n",
		"%%MatrixMarket matrix coordinate pattern general\n2 3 2\n1 3\n2 1\n",
		"%%MatrixMarket matrix coordinate integer skew-symmetric\n2 2 1\n2 1 3\n",
		"%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1e308\n",
		"% not a banner\n",
		"%%MatrixMarket matrix coordinate real general\n-1 2 0\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 9999\n1 1 1\n",
		"",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, h, err := Read(bytes.NewReader(data))
		if err != nil {
			return // rejection is fine; panics are not
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("accepted matrix fails validation: %v", err)
		}
		if h.Object != "matrix" {
			t.Fatalf("accepted non-matrix object %q", h.Object)
		}
		// Round-trip what was accepted.
		var buf strings.Builder
		if err := Write(&buf, m); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		back, _, err := Read(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("re-read failed: %v", err)
		}
		if !reflect.DeepEqual(m, back) {
			t.Fatal("round trip changed the matrix")
		}
	})
}
