package registry

import (
	"math"
	"math/rand"
	"testing"

	"fbmpk/internal/core"
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
	o = base
	o.SelfCheck = true
	perturb["SelfCheck"] = o

	seen := map[Key]string{baseKey: "base"}
	for name, po := range perturb {
		k := Fingerprint(a, po)
		if prev, dup := seen[k]; dup {
			t.Errorf("option %s collides with %s", name, prev)
		}
		seen[k] = name
	}

	// Fields meaningful only in other regimes.
	serial := core.DefaultOptions(0)
	serialKey := Fingerprint(a, serial)
	o = serial
	o.ForceABMC = true
	if Fingerprint(a, o) == serialKey {
		t.Error("ForceABMC not reflected in serial key")
	}
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

// TestFingerprintBackendSensitivity requires distinct keys for the
// backends a standard-engine plan can execute on, and that folding the
// backend under the other engines does not fold the engine with it.
func TestFingerprintBackendSensitivity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := testCSR(rng, 80, 4)
	seen := map[Key]string{}
	for name, po := range map[string]core.Options{
		"standard+csr":  {Engine: core.EngineStandard},
		"standard+sell": {Engine: core.EngineStandard, Backend: core.BackendSELL},
		"standard+bsr":  {Engine: core.EngineStandard, Backend: core.BackendBSR},
		"standard+auto": {Engine: core.EngineStandard, Backend: core.BackendAuto},
		"fb+auto":       {Engine: core.EngineForwardBackward, Backend: core.BackendAuto},
		"lb+auto":       {Engine: core.EngineLevelBlocked, Backend: core.BackendAuto},
	} {
		k := Fingerprint(a, po)
		if prev, dup := seen[k]; dup {
			t.Errorf("%s collides with %s", name, prev)
		}
		seen[k] = name
	}
}

// TestFingerprintBackendCanonicalEquivalence: Backend belongs to the
// standard engine, so under every other engine all four values are one
// registry key — fb+sell and fb+csr build the same plan.
func TestFingerprintBackendCanonicalEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := testCSR(rng, 80, 4)
	for _, eng := range []core.Engine{core.EngineForwardBackward, core.EngineLevelBlocked, core.EngineAuto} {
		base := core.Options{Engine: eng, BtB: true, Threads: 2}
		for _, bk := range []core.BackendKind{core.BackendAuto, core.BackendSELL, core.BackendBSR} {
			o := base
			o.Backend = bk
			if Fingerprint(a, o) != Fingerprint(a, base) {
				t.Errorf("%v+%v and %v+csr key differently but build the same plan", eng, bk, eng)
			}
		}
	}
}

// TestStructureFingerprint checks the tuner verdict cache key: values
// don't participate (a value flip keys identically) while any
// structural change — index, row pointer, dimension — does.
func TestStructureFingerprint(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := testCSR(rng, 100, 4)
	base := StructureFingerprint(a)

	if StructureFingerprint(cloneCSR(a)) != base {
		t.Fatal("identical clone keys differently")
	}

	val := cloneCSR(a)
	for i := range val.Val {
		val.Val[i] *= 2
	}
	if StructureFingerprint(val) != base {
		t.Fatal("value-only change altered the structure key")
	}

	idx := cloneCSR(a)
	for k := 1; k < len(idx.ColIdx); k++ {
		if idx.ColIdx[k]-idx.ColIdx[k-1] > 1 {
			idx.ColIdx[k]--
			break
		}
	}
	if StructureFingerprint(idx) == base {
		t.Fatal("column-index change not reflected in structure key")
	}

	dim := cloneCSR(a)
	dim.Cols++
	if StructureFingerprint(dim) == base {
		t.Fatal("dimension change not reflected in structure key")
	}
}

// BenchmarkFingerprint measures hashing throughput: the cost of a
// cache hit's key computation relative to the build it avoids.
func BenchmarkFingerprint(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	a := testCSR(rng, 20000, 10)
	opt := core.DefaultOptions(4)
	bytes := int64(8*len(a.RowPtr) + 4*len(a.ColIdx) + 8*len(a.Val))
	b.SetBytes(bytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkKey = Fingerprint(a, opt)
	}
}

var sinkKey Key
