package registry

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"fbmpk/internal/core"
	"fbmpk/internal/matgen"
	"fbmpk/internal/sparse"
)

// testCSR builds a random diagonally-dominated square CSR.
func testCSR(rng *rand.Rand, n, perRow int) *sparse.CSR {
	coo := sparse.NewCOO(n, n, n*(perRow+1))
	for i := 0; i < n; i++ {
		coo.Add(i, i, 1+rng.Float64())
		for k := 0; k < perRow; k++ {
			coo.Add(i, rng.Intn(n), rng.NormFloat64())
		}
	}
	return coo.ToCSR()
}

// cloneCSR deep-copies a CSR so perturbations don't alias.
func cloneCSR(a *sparse.CSR) *sparse.CSR {
	b := &sparse.CSR{
		Rows:   a.Rows,
		Cols:   a.Cols,
		RowPtr: append([]int64(nil), a.RowPtr...),
		ColIdx: append([]int32(nil), a.ColIdx...),
		Val:    append([]float64(nil), a.Val...),
	}
	return b
}

// leafyCSR builds a valid matrix whose RowPtr, ColIdx and Val each span
// three leaves of the content tree: a diagonal plus an off-diagonal
// entry in every fourth row, with values that differ from leaf to leaf.
func leafyCSR(seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	n := 2*leafEntries + 1000
	a := &sparse.CSR{Rows: n, Cols: n, RowPtr: make([]int64, 1, n+1)}
	for i := 0; i < n; i++ {
		if i%4 == 0 && i > 0 {
			a.ColIdx = append(a.ColIdx, int32(rng.Intn(i)))
			a.Val = append(a.Val, rng.NormFloat64())
		}
		a.ColIdx = append(a.ColIdx, int32(i))
		a.Val = append(a.Val, 1+rng.Float64())
		a.RowPtr = append(a.RowPtr, int64(len(a.ColIdx)))
	}
	return a
}

// swapLeaves exchanges the contents of the first two leaves of s.
func swapLeaves[T any](s []T) {
	for i := 0; i < leafEntries; i++ {
		s[i], s[leafEntries+i] = s[leafEntries+i], s[i]
	}
}

// perturbation changes a matrix in place and returns its undo; moves
// says whether the key under test must change with it.
type perturbation struct {
	what  string
	apply func() (undo func())
	moves bool
}

// checkPerturbations holds key to every perturbation of a, one at a
// time: a different key exactly where it moves, and a's own key once it
// is undone.
func checkPerturbations(t *testing.T, key func(*sparse.CSR) Key, a *sparse.CSR, ps ...perturbation) {
	t.Helper()
	base := key(a)
	for _, p := range ps {
		undo := p.apply()
		if moved := key(a) != base; moved != p.moves {
			t.Errorf("%s: key moved %v, want %v", p.what, moved, p.moves)
		}
		undo()
		if key(a) != base {
			t.Fatalf("%s: not undone", p.what)
		}
	}
}

// set is the perturbation that stores v at *at.
func set[T any](what string, at *T, v T, moves bool) perturbation {
	return perturbation{what, func() func() {
		old := *at
		*at = v
		return func() { *at = old }
	}, moves}
}

// edges are one-bit flips at the first and last entry of every leaf of
// s, and the swap of its first two leaves.
func edges[T int32 | int64 | float64](what string, s []T, moves bool) (ps []perturbation) {
	flip := func(v T) T {
		switch x := any(v).(type) {
		case float64:
			return any(math.Float64frombits(math.Float64bits(x) ^ 1)).(T)
		case int32:
			return any(x ^ 1).(T)
		default:
			return any(x.(int64) ^ 1).(T)
		}
	}
	for lo := 0; lo < len(s); lo += leafEntries {
		for _, k := range []int{lo, min(lo+leafEntries, len(s)) - 1} {
			ps = append(ps, set("one-bit flip at the edge of a "+what+" leaf", &s[k], flip(s[k]), moves))
		}
	}
	return append(ps, swapped(what, s, moves))
}

// swapped is the swap of the first two leaves of s.
func swapped[T any](what string, s []T, moves bool) perturbation {
	return perturbation{"two " + what + " leaves swapped", func() func() {
		swapLeaves(s)
		return func() { swapLeaves(s) }
	}, moves}
}

// shiftedIndex is the perturbation that moves one column index of a to
// a neighbour that keeps its row sorted.
func shiftedIndex(a *sparse.CSR, moves bool) perturbation {
	k := 1
	for a.ColIdx[k]-a.ColIdx[k-1] <= 1 {
		k++
	}
	return set("single-index perturbation", &a.ColIdx[k], a.ColIdx[k]-1, moves)
}

// TestFingerprintMatrixSensitivity perturbs exactly one aspect of the
// matrix at a time — a value, a column index, a dimension — and
// requires a distinct key for each, while a byte-identical clone keys
// identically; then every leaf edge of a matrix of three leaves an
// array, two value leaves swapped, and each dimension alone.
func TestFingerprintMatrixSensitivity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := testCSR(rng, 100, 4)
	opt := core.DefaultOptions(4)
	key := func(a *sparse.CSR) Key { return Fingerprint(a, opt) }
	if key(cloneCSR(a)) != key(a) {
		t.Fatal("identical clone fingerprints differently")
	}
	mid := len(a.Val) / 2 // one-ULP flip: smallest representable change
	dim := func() func() {
		rowPtr := a.RowPtr
		a.Rows++ // structurally invalid, but the key must still differ
		a.RowPtr = append(rowPtr[:len(rowPtr):len(rowPtr)], rowPtr[len(rowPtr)-1])
		return func() { a.Rows, a.RowPtr = a.Rows-1, rowPtr }
	}
	checkPerturbations(t, key, a,
		set("single-value perturbation", &a.Val[mid], math.Float64frombits(math.Float64bits(a.Val[mid])^1), true),
		shiftedIndex(a, true), perturbation{"dimension perturbation", dim, true})
	// -0.0 vs +0.0: distinct bits.
	a.Val[0] = 0
	checkPerturbations(t, key, a, set("+0.0 turned -0.0 (not exact-bits)", &a.Val[0], math.Copysign(0, -1), true))
	big := leafyCSR(1)
	checkPerturbations(t, key, big, append(edges("value", big.Val, true),
		set("Rows alone", &big.Rows, big.Rows-1, true), set("Cols alone", &big.Cols, big.Cols+1, true))...)
}

// TestStructureFingerprint checks contentDigests' structure root, which
// the structure+options key (and with it in-place updates) is composed
// from: values don't participate (a value flip keys identically) while
// any structural change — index, row pointer, dimension — does, leaf by
// leaf on a matrix of three leaves an array.
func TestStructureFingerprint(t *testing.T) {
	structure := func(a *sparse.CSR) Key {
		s, _, _ := contentDigests(a, false)
		return s
	}
	rng := rand.New(rand.NewSource(7))
	a := testCSR(rng, 100, 4)
	if structure(cloneCSR(a)) != structure(a) {
		t.Fatal("identical clone keys differently")
	}
	doubled := func() func() {
		old := cloneCSR(a).Val
		for i := range a.Val {
			a.Val[i] *= 2
		}
		return func() { copy(a.Val, old) }
	}
	checkPerturbations(t, structure, a, perturbation{"value-only change", doubled, false},
		shiftedIndex(a, true), set("dimension change", &a.Cols, a.Cols+1, true))
	big := leafyCSR(2)
	last := big.Rows - 1
	checkPerturbations(t, structure, big, append(append(edges("RowPtr", big.RowPtr, true), edges("ColIdx", big.ColIdx, true)...),
		set("the last row's entry count moved to the previous row", &big.RowPtr[last], big.RowPtr[last+1], true),
		set("Rows alone", &big.Rows, last, true), swapped("value", big.Val, false))...)
}

// optionMoves holds a under base and under each of moves apart: in the
// plan key and the structure+options key of the options as spelled;
// without words in the registry key of any two of them; with words, each
// move changes exactly one header word, its own, and together they
// cover every word.
func optionMoves(t *testing.T, a *sparse.CSR, base core.Options, words bool, moves map[string]func(*core.Options)) {
	t.Helper()
	s, v, err := contentDigests(a, false)
	if err != nil {
		t.Fatal(err)
	}
	header := headerWords(a, base)
	if header[0] != uint64(a.Rows) || header[1] != uint64(a.Cols) || header[2] != uint64(len(a.ColIdx)) {
		t.Fatalf("dimension words %v of an %dx%d matrix with %d entries", header[:3], a.Rows, a.Cols, len(a.ColIdx))
	}
	seen := map[Key]string{Fingerprint(a, base): "base"}
	moved := map[int]string{0: "rows", 1: "cols", 2: "nnz"}
	for name, set := range moves {
		o := base
		set(&o)
		if k := Fingerprint(a, o); !words {
			if prev, dup := seen[k]; dup {
				t.Errorf("option %s collides with %s", name, prev)
			}
			seen[k] = name
		}
		if fingerprintWithParts(s, v, a, o) == fingerprintWithParts(s, v, a, base) {
			t.Errorf("%s: plan keys collide", name)
		}
		if structOptKeyFromStruct(s, a, o) == structOptKeyFromStruct(s, a, base) {
			t.Errorf("%s: structure+options keys collide", name)
		}
		var at []int
		for i, w := range headerWords(a, o) {
			if w != header[i] {
				at = append(at, i)
			}
		}
		if words && (len(at) != 1 || moved[at[0]] != "") {
			t.Fatalf("%s moved header words %v (taken: %v)", name, at, moved)
		}
		if words {
			moved[at[0]] = name
		}
	}
	if words && len(moved) != len(header) {
		t.Fatalf("%d header words, %d fields: %v", len(header), len(moved), moved)
	}
}

// TestFingerprintOptionSensitivity flips each meaningful
// (post-canonicalization) option field of the parallel FB defaults one
// at a time, and LevelBlockBytes of a level-blocked plan, and requires
// a distinct key for each.
func TestFingerprintOptionSensitivity(t *testing.T) {
	a := testCSR(rand.New(rand.NewSource(2)), 80, 4)
	optionMoves(t, a, core.DefaultOptions(4), false, map[string]func(*core.Options){ // FB + BtB + 4 threads: ABMC applies
		"Engine":    func(o *core.Options) { o.Engine = core.EngineStandard },
		"BtB":       func(o *core.Options) { o.BtB = false },
		"Threads":   func(o *core.Options) { o.Threads = 8 },
		"NumBlocks": func(o *core.Options) { o.NumBlocks = 256 },
	})
	optionMoves(t, a, core.Options{Engine: core.EngineLevelBlocked}, false, map[string]func(*core.Options){
		"LevelBlockBytes": func(o *core.Options) { o.LevelBlockBytes = 4096 },
	})
}

// TestFingerprintBackendSensitivity: every word of the v8 header is one
// field — the dimensions, the nonzero count, then each of the five
// options — so moving one option moves exactly its own word, and with it
// the plan key and the structure+options key.
func TestFingerprintBackendSensitivity(t *testing.T) {
	optionMoves(t, testCSR(rand.New(rand.NewSource(5)), 80, 4), core.Options{Engine: core.EngineForwardBackward}, true, map[string]func(*core.Options){
		"Engine":          func(o *core.Options) { o.Engine = core.EngineLevelBlocked },
		"BtB":             func(o *core.Options) { o.BtB = true },
		"Threads":         func(o *core.Options) { o.Threads = 2 },
		"NumBlocks":       func(o *core.Options) { o.NumBlocks = 16 },
		"LevelBlockBytes": func(o *core.Options) { o.LevelBlockBytes = 256 },
	})
}

// equivalent holds each pair of spellings to one canonical header and
// one registry key.
func equivalent(t *testing.T, a *sparse.CSR, pairs map[string][2]core.Options) {
	t.Helper()
	for name, p := range pairs {
		if x, y := headerWords(a, p[0].Canonical()), headerWords(a, p[1].Canonical()); x != y {
			t.Errorf("%s: %+v flattens to %v, %+v to %v", name, p[0], x, p[1], y)
		}
		if Fingerprint(a, p[0]) != Fingerprint(a, p[1]) {
			t.Errorf("%s: keys differ but plans are interchangeable", name)
		}
	}
}

// TestFingerprintCanonicalEquivalence verifies that option spellings
// which build interchangeable plans share a key: functional options vs
// a struct literal, defaulted vs explicit fields, and knobs that are
// inert in the selected regime.
func TestFingerprintCanonicalEquivalence(t *testing.T) {
	explicit, inert := core.DefaultOptions(4), core.DefaultOptions(0)
	explicit.NumBlocks, inert.NumBlocks = 512, 99
	equivalent(t, testCSR(rand.New(rand.NewSource(3)), 80, 4), map[string][2]core.Options{
		"struct-literal vs functional options": {{Engine: core.EngineForwardBackward, BtB: true, Threads: 4},
			core.BuildOptions(core.WithEngine(core.EngineForwardBackward), core.WithBtB(true), core.WithThreads(4))},
		"threads 0 vs 1":                  {core.DefaultOptions(0), core.DefaultOptions(1)},
		"NumBlocks 0 vs explicit default": {core.DefaultOptions(4), explicit},
		"BtB inert for standard engine":   {{Engine: core.EngineStandard}, {Engine: core.EngineStandard, BtB: true}},
		"NumBlocks inert without ABMC":    {core.DefaultOptions(0), inert},
	})
}

// TestFingerprintBackendCanonicalEquivalence: under every engine, the
// spellings that differ only in knobs the engine never reads flatten to
// the same v8 header words, so they are one registry key.
func TestFingerprintBackendCanonicalEquivalence(t *testing.T) {
	pairs := map[string][2]core.Options{}
	for _, eng := range []core.Engine{core.EngineStandard, core.EngineForwardBackward, core.EngineLevelBlocked, core.EngineAuto} {
		base := core.Options{Engine: eng, Threads: 2}
		btb, lbb, nb := base, base, base
		btb.BtB, lbb.LevelBlockBytes, nb.NumBlocks = true, 256, 99
		if eng == core.EngineStandard || eng == core.EngineLevelBlocked {
			pairs[fmt.Sprint(eng, "/BtB")], pairs[fmt.Sprint(eng, "/NumBlocks")] = [2]core.Options{btb, base}, [2]core.Options{nb, base}
		}
		if eng != core.EngineLevelBlocked {
			pairs[fmt.Sprint(eng, "/LevelBlockBytes")] = [2]core.Options{lbb, base}
		}
	}
	equivalent(t, testCSR(rand.New(rand.NewSource(6)), 80, 4), pairs)
}

// TestFingerprintWorkerIndependence: leaf boundaries are constants, so
// the keys of one matrix are the same whatever GOMAXPROCS is and however
// the leaves were dealt — 100 repeats at eight workers, under -race in
// ci.sh — and the validating pass keys as the hash-only pass does.
func TestFingerprintWorkerIndependence(t *testing.T) {
	a := leafyCSR(3)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	s1, v1, err := contentDigests(a, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		repeats := 1
		if procs == 8 {
			repeats = 100
		}
		for i := 0; i < repeats; i++ {
			s, v, err := contentDigests(a, i%2 == 0)
			if err != nil || s != s1 || v != v1 {
				t.Fatalf("GOMAXPROCS %d repeat %d: digests differ from the one-worker pass (err %v)", procs, i, err)
			}
		}
	}
}

// tape is a hash.Hash that only records what is written to it.
type tape struct {
	hash.Hash
	buf bytes.Buffer
}

func (t *tape) Write(p []byte) (int, error) { return t.buf.Write(p) }

// TestFingerprintStagedEqualsInPlace runs the big-endian hosts' staging
// encoder here, where the arrays' memory is the reference: the two must
// feed the hasher the same bytes, array by array.
func TestFingerprintStagedEqualsInPlace(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("the in-place path is not taken on this host")
	}
	a := leafyCSR(4)
	for arr, n := range []int{len(a.RowPtr), len(a.ColIdx), len(a.Val)} {
		lo, hi := leafEntries-3, min(leafEntries+1030, n) // straddles a leaf and the staging buffer
		var staged, inPlace tape
		writeLeaf(&staged, a, arr, lo, hi, false)
		writeLeaf(&inPlace, a, arr, lo, hi, true)
		if staged.buf.Len() == 0 || !bytes.Equal(staged.buf.Bytes(), inPlace.buf.Bytes()) {
			t.Errorf("array %d: staged bytes differ from the array's memory", arr)
		}
	}
}

// FuzzContentPassValidate holds the validating pass to CSR.Validate —
// accept exactly when it accepts, with its error text — and the
// hash-only pass to never panicking, on CSR-shaped input damaged around
// leaf boundaries. width sets the row length, so for powers of two a
// row boundary coincides with every leaf boundary and for other widths
// a row straddles it; each 4-byte group of ops is one mutation (kind,
// which leaf boundary, offset from it, operand).
func FuzzContentPassValidate(f *testing.F) {
	f.Add(uint16(7), []byte{})
	for _, width := range []uint16{0, 6, 511} { // 1, 7 and 512 entries a row
		for off := byte(0); off < 5; off++ { // boundary -2 .. +2
			f.Add(width, []byte{0, 0, off, 0}) // column out of range
			f.Add(width, []byte{1, 1, off, 0}) // negative column
			f.Add(width, []byte{2, 0, off, 0}) // duplicate column
			f.Add(width, []byte{3, 1, off, 0}) // descending column
			f.Add(width, []byte{4, 0, off, 0}) // RowPtr overshoots nnz, collapses back
			f.Add(width, []byte{5, 0, off, 0}) // non-monotone RowPtr
			f.Add(width, []byte{6, 0, off, 1}) // row boundary moved up by one
			f.Add(width, []byte{6, 1, off, 2}) // row boundary moved down by one
		}
	}
	for operand := byte(0); operand < 8; operand++ {
		f.Add(uint16(63), []byte{7, 0, 0, operand}) // shape damage
	}
	f.Fuzz(func(t *testing.T, width uint16, ops []byte) {
		const cols = 1024
		w := 1 + int(width)%cols
		rows := 2*leafEntries/w + 3
		a := &sparse.CSR{Rows: rows, Cols: cols, RowPtr: make([]int64, rows+1),
			ColIdx: make([]int32, rows*w), Val: make([]float64, rows*w)}
		for i := 0; i < rows; i++ {
			a.RowPtr[i+1] = int64((i + 1) * w)
			for j := 0; j < w; j++ {
				a.ColIdx[i*w+j] = int32(j * (cols / w))
				a.Val[i*w+j] = float64(i + j)
			}
		}
		for ; len(ops) >= 4; ops = ops[4:] {
			p := leafEntries*(1+int(ops[1])%2) + int(ops[2])%5 - 2 // an entry near a leaf boundary
			r := p / w                                             // the row it is in
			if w == 1 {
				r = p // and there RowPtr's leaf boundary too
			}
			switch ops[0] % 8 {
			case 0:
				a.ColIdx[p] = cols
			case 1:
				a.ColIdx[p] = -1 - int32(ops[3])
			case 2:
				a.ColIdx[p] = a.ColIdx[p-1]
			case 3:
				a.ColIdx[p] = a.ColIdx[p-1] - 1
			case 4:
				a.RowPtr[r] = int64(len(a.ColIdx)) + 1 + int64(ops[3])
			case 5:
				a.RowPtr[r], a.RowPtr[r+1] = a.RowPtr[r+1], a.RowPtr[r]
			case 6:
				a.RowPtr[r+1] += int64(ops[3]%3) - 1
			default: // shape damage, after which no index above is safe
				ops = ops[:4]
				switch ops[3] % 8 {
				case 0:
					a.Rows = -1
				case 1:
					a.Rows++
				case 2:
					a.RowPtr[0] = 1
				case 3:
					a.Val = a.Val[:len(a.Val)-1]
				case 4:
					a.ColIdx = a.ColIdx[:len(a.ColIdx)-1]
				case 5:
					a.Cols = -1
				case 6:
					a.Cols = cols / 2
				default:
					a.RowPtr = a.RowPtr[:0]
				}
			}
		}
		hs, hv, _ := contentDigests(a, false) // must not panic, whatever a is
		want := a.Validate()
		s, v, got := contentDigests(a, true)
		if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
			t.Fatalf("validating pass: %v\nCSR.Validate:    %v", got, want)
		}
		if got == nil && (s != hs || v != hv) {
			t.Fatal("validating pass keys a valid matrix differently from the hash-only pass")
		}
	})
}

// BenchmarkFingerprint prices a registry call's content pass on the
// benchmark's plan-churn bed (pwtk x 0.2, 28 MB) beside what bounds it.
// `go test -run '^$' -bench Fingerprint -cpu 1,2 ./internal/registry`
// prints, in MB/s of matrix: the hash-only pass (UpdateValues,
// PlanFingerprint), the validating pass (Acquire), CSR.Validate alone,
// and a bare sha256.Sum256 of Val scaled to the same bytes — one core's
// SHA-256 rate, which the pass can at best reach on each worker.
func BenchmarkFingerprint(b *testing.B) {
	spec, err := matgen.ByName("pwtk")
	if err != nil {
		b.Fatal(err)
	}
	a := spec.Generate(0.2, 1)
	opt := core.DefaultOptions(2)
	total := int64(8*len(a.RowPtr) + 4*len(a.ColIdx) + 8*len(a.Val))
	for _, bc := range []struct {
		name  string
		bytes int64
		run   func()
	}{
		{"hash", total, func() { sinkKey = Fingerprint(a, opt) }},
		{"validate+hash", total, func() { sinkKey, _, sinkErr = contentDigests(a, true) }},
		{"Validate", total, func() { sinkErr = a.Validate() }},
		{"sha256", int64(8 * len(a.Val)), func() { sinkKey = sha256.Sum256(sparse.RawBytes(a.Val)) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(bc.bytes)
			for i := 0; i < b.N; i++ {
				bc.run()
			}
		})
	}
}

var sinkErr error

var sinkKey Key
