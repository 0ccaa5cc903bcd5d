package registry

import (
	"bytes"
	"crypto/sha256"
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

// TestFingerprintMatrixSensitivity perturbs exactly one aspect of the
// matrix at a time — a value, a column index, a dimension — and
// requires a distinct key for each, while a byte-identical clone keys
// identically.
func TestFingerprintMatrixSensitivity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := testCSR(rng, 100, 4)
	opt := core.DefaultOptions(4)
	base := Fingerprint(a, opt)

	if got := Fingerprint(cloneCSR(a), opt); got != base {
		t.Fatal("identical clone fingerprints differently")
	}

	val := cloneCSR(a)
	mid := len(val.Val) / 2 // one-ULP flip: smallest representable change
	val.Val[mid] = math.Float64frombits(math.Float64bits(val.Val[mid]) ^ 1)
	if Fingerprint(val, opt) == base {
		t.Fatal("single-value perturbation not reflected in key")
	}

	negZero := cloneCSR(a)
	negZero.Val[0] = 0
	posZero := cloneCSR(a)
	posZero.Val[0] = 0
	negZero.Val[0] = -negZero.Val[0] // -0.0 vs +0.0: distinct bits
	if Fingerprint(negZero, opt) == Fingerprint(posZero, opt) {
		t.Fatal("fingerprint conflates +0.0 and -0.0 (not exact-bits)")
	}

	idx := cloneCSR(a)
	// Shift one column index to a neighbor that keeps the row sorted.
	for k := 1; k < len(idx.ColIdx); k++ {
		if idx.ColIdx[k]-idx.ColIdx[k-1] > 1 {
			idx.ColIdx[k]--
			break
		}
	}
	if Fingerprint(idx, opt) == base {
		t.Fatal("single-index perturbation not reflected in key")
	}

	dim := cloneCSR(a)
	dim.Rows++ // structurally invalid, but the key must still differ
	dim.RowPtr = append(dim.RowPtr, dim.RowPtr[len(dim.RowPtr)-1])
	if Fingerprint(dim, opt) == base {
		t.Fatal("dimension perturbation not reflected in key")
	}

	// The same on a matrix of three leaves an array: every leaf's first
	// and last entry is covered, leaves are not interchangeable, and the
	// dimensions count on their own.
	big := leafyCSR(1)
	base = Fingerprint(big, opt)
	differs := func(what string) {
		t.Helper()
		if Fingerprint(big, opt) == base {
			t.Errorf("%s not reflected in key", what)
		}
	}
	for lo := 0; lo < len(big.Val); lo += leafEntries {
		for _, k := range []int{lo, min(lo+leafEntries, len(big.Val)) - 1} {
			flip := math.Float64frombits(math.Float64bits(big.Val[k]) ^ 1)
			big.Val[k], flip = flip, big.Val[k]
			differs("one-bit flip at the edge of a value leaf")
			big.Val[k] = flip
		}
	}
	swapLeaves(big.Val)
	differs("two value leaves swapped")
	swapLeaves(big.Val)
	big.Rows--
	differs("Rows alone")
	big.Rows++
	big.Cols++
	differs("Cols alone")
	big.Cols--
	if Fingerprint(big, opt) != base {
		t.Fatal("perturbations not undone")
	}
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

// TestFingerprintOptionSensitivity flips each meaningful
// (post-canonicalization) option field one at a time and requires a
// distinct key for each.
func TestFingerprintOptionSensitivity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := testCSR(rng, 80, 4)
	base := core.DefaultOptions(4) // FB + BtB + 4 threads: ABMC applies
	baseKey := Fingerprint(a, base)

	perturb := map[string]core.Options{}
	o := base
	o.Engine = core.EngineStandard
	perturb["Engine"] = o
	o = base
	o.BtB = false
	perturb["BtB"] = o
	o = base
	o.Threads = 8
	perturb["Threads"] = o
	o = base
	o.NumBlocks = 256
	perturb["NumBlocks"] = o

	seen := map[Key]string{baseKey: "base"}
	for name, po := range perturb {
		k := Fingerprint(a, po)
		if prev, dup := seen[k]; dup {
			t.Errorf("option %s collides with %s", name, prev)
		}
		seen[k] = name
	}

	// A field meaningful only in another regime.
	lb := core.Options{Engine: core.EngineLevelBlocked}
	o = lb
	o.LevelBlockBytes = 4096
	if Fingerprint(a, o) == Fingerprint(a, lb) {
		t.Error("LevelBlockBytes not reflected in level-blocked key")
	}
}

// TestFingerprintCanonicalEquivalence verifies that option spellings
// which build interchangeable plans share a key: functional options vs
// a struct literal, defaulted vs explicit fields, and knobs that are
// inert in the selected regime.
func TestFingerprintCanonicalEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := testCSR(rng, 80, 4)

	// Struct style vs functional style.
	structKey := Fingerprint(a, core.Options{
		Engine: core.EngineForwardBackward, BtB: true, Threads: 4,
	})
	fnKey := Fingerprint(a, core.BuildOptions(
		core.WithEngine(core.EngineForwardBackward),
		core.WithBtB(true),
		core.WithThreads(4),
	))
	if structKey != fnKey {
		t.Error("struct-literal and functional options disagree")
	}

	pairs := []struct {
		name string
		x, y core.Options
	}{
		{"threads 0 vs 1", core.DefaultOptions(0), core.DefaultOptions(1)},
		{"NumBlocks 0 vs explicit default", core.DefaultOptions(4), func() core.Options {
			o := core.DefaultOptions(4)
			o.NumBlocks = 512
			return o
		}()},
		{"BtB inert for standard engine", core.Options{Engine: core.EngineStandard},
			core.Options{Engine: core.EngineStandard, BtB: true}},
		{"NumBlocks inert without ABMC", core.DefaultOptions(0), func() core.Options {
			o := core.DefaultOptions(0)
			o.NumBlocks = 99
			return o
		}()},
	}
	for _, p := range pairs {
		if Fingerprint(a, p.x) != Fingerprint(a, p.y) {
			t.Errorf("%s: keys differ but plans are interchangeable", p.name)
		}
	}
}

// TestFingerprintBackendSensitivity: every word of the v8 header is one
// field — the dimensions, the nonzero count, then each of the five
// options — so moving one option moves exactly its own word, and with it
// the plan key and the structure+options key.
func TestFingerprintBackendSensitivity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := testCSR(rng, 80, 4)
	s, v, err := contentDigests(a, false)
	if err != nil {
		t.Fatal(err)
	}
	base := core.Options{Engine: core.EngineForwardBackward}
	words := headerWords(a, base)
	if words[0] != uint64(a.Rows) || words[1] != uint64(a.Cols) || words[2] != uint64(len(a.ColIdx)) {
		t.Fatalf("dimension words %v of an %dx%d matrix with %d entries", words[:3], a.Rows, a.Cols, len(a.ColIdx))
	}
	moved := map[int]string{0: "rows", 1: "cols", 2: "nnz"}
	for name, set := range map[string]func(*core.Options){
		"Engine":          func(o *core.Options) { o.Engine = core.EngineLevelBlocked },
		"BtB":             func(o *core.Options) { o.BtB = true },
		"Threads":         func(o *core.Options) { o.Threads = 2 },
		"NumBlocks":       func(o *core.Options) { o.NumBlocks = 16 },
		"LevelBlockBytes": func(o *core.Options) { o.LevelBlockBytes = 256 },
	} {
		o := base
		set(&o)
		var at []int
		for i, w := range headerWords(a, o) {
			if w != words[i] {
				at = append(at, i)
			}
		}
		if len(at) != 1 || moved[at[0]] != "" {
			t.Fatalf("%s moved header words %v (taken: %v)", name, at, moved)
		}
		moved[at[0]] = name
		if fingerprintWithParts(s, v, a, o) == fingerprintWithParts(s, v, a, base) {
			t.Errorf("%s: plan keys collide", name)
		}
		if structOptKeyFromStruct(s, a, o) == structOptKeyFromStruct(s, a, base) {
			t.Errorf("%s: structure+options keys collide", name)
		}
	}
	if len(moved) != len(words) {
		t.Fatalf("%d header words, %d fields: %v", len(words), len(moved), moved)
	}
}

// TestFingerprintBackendCanonicalEquivalence: under every engine, the
// spellings that differ only in knobs the engine never reads flatten to
// the same v8 header words, so they are one registry key.
func TestFingerprintBackendCanonicalEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := testCSR(rng, 80, 4)
	for _, eng := range []core.Engine{core.EngineStandard, core.EngineForwardBackward, core.EngineLevelBlocked, core.EngineAuto} {
		base := core.Options{Engine: eng, Threads: 2}
		spellings := []core.Options{base}
		if eng == core.EngineStandard || eng == core.EngineLevelBlocked {
			o := base
			o.BtB = true
			spellings = append(spellings, o)
		}
		if eng != core.EngineLevelBlocked {
			o := base
			o.LevelBlockBytes = 256
			spellings = append(spellings, o)
		}
		if eng == core.EngineStandard || eng == core.EngineLevelBlocked {
			o := base
			o.NumBlocks = 99
			spellings = append(spellings, o)
		}
		want := headerWords(a, base.Canonical())
		for _, o := range spellings[1:] {
			if got := headerWords(a, o.Canonical()); got != want {
				t.Errorf("%v: %+v flattens to %v, %+v to %v", eng, o, got, base, want)
			}
			if Fingerprint(a, o) != Fingerprint(a, base) {
				t.Errorf("%v: %+v and %+v key differently but build the same plan", eng, o, base)
			}
		}
	}
}

// TestStructureFingerprint checks contentDigests' structure root, which
// the structure+options key (and with it in-place updates) is composed
// from: values don't participate (a value flip
// keys identically) while any structural change — index, row pointer,
// dimension — does.
func TestStructureFingerprint(t *testing.T) {
	structure := func(a *sparse.CSR) Key {
		s, _, _ := contentDigests(a, false)
		return s
	}
	rng := rand.New(rand.NewSource(7))
	a := testCSR(rng, 100, 4)
	base := structure(a)

	if structure(cloneCSR(a)) != base {
		t.Fatal("identical clone keys differently")
	}

	val := cloneCSR(a)
	for i := range val.Val {
		val.Val[i] *= 2
	}
	if structure(val) != base {
		t.Fatal("value-only change altered the structure key")
	}

	idx := cloneCSR(a)
	for k := 1; k < len(idx.ColIdx); k++ {
		if idx.ColIdx[k]-idx.ColIdx[k-1] > 1 {
			idx.ColIdx[k]--
			break
		}
	}
	if structure(idx) == base {
		t.Fatal("column-index change not reflected in structure key")
	}

	dim := cloneCSR(a)
	dim.Cols++
	if structure(dim) == base {
		t.Fatal("dimension change not reflected in structure key")
	}

	// Leaf by leaf on a matrix of three leaves an array.
	big := leafyCSR(2)
	base = structure(big)
	differs := func(what string) {
		t.Helper()
		if structure(big) == base {
			t.Errorf("%s not reflected in structure key", what)
		}
	}
	for lo := 0; lo < len(big.RowPtr); lo += leafEntries {
		for _, k := range []int{lo, min(lo+leafEntries, len(big.RowPtr)) - 1} {
			big.RowPtr[k] ^= 1
			differs("one-bit flip at the edge of a RowPtr leaf")
			big.RowPtr[k] ^= 1
		}
	}
	for lo := 0; lo < len(big.ColIdx); lo += leafEntries {
		for _, k := range []int{lo, min(lo+leafEntries, len(big.ColIdx)) - 1} {
			big.ColIdx[k] ^= 1
			differs("one-bit flip at the edge of a ColIdx leaf")
			big.ColIdx[k] ^= 1
		}
	}
	swapLeaves(big.RowPtr)
	differs("two RowPtr leaves swapped")
	swapLeaves(big.RowPtr)
	swapLeaves(big.ColIdx)
	differs("two ColIdx leaves swapped")
	swapLeaves(big.ColIdx)
	last := big.RowPtr[big.Rows-1]
	big.RowPtr[big.Rows-1] = big.RowPtr[big.Rows] // the last row's entries join the row before
	differs("the last row's entry count moved to the previous row")
	big.RowPtr[big.Rows-1] = last
	big.Rows--
	differs("Rows alone")
	big.Rows++
	if structure(big) != base {
		t.Fatal("perturbations not undone")
	}
	swapLeaves(big.Val)
	if structure(big) != base {
		t.Fatal("value-only change altered the structure key of a multi-leaf matrix")
	}
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
