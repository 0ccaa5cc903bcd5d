package core

// The invariant audit: validators for a plan's preprocessing products.
// The kernels trade generality for speed and silently compute garbage
// when one of these invariants breaks — a malformed CSR, a split that
// does not reassemble, a permutation that is not a bijection, an ABMC
// coloring with a cross-block edge inside one color, a level schedule
// whose entries skip a level. The validators make those failures loud;
// TestAuditEveryOptionClass and FuzzFBMPKEquivalence run them over every
// plan they build. All are read-only and return nil or an error naming
// the first violation.

import (
	"fmt"
	"math/rand"
	"testing"

	"fbmpk/internal/matgen"
	"fbmpk/internal/reorder"
	"fbmpk/internal/sparse"
)

// checkCSR validates the structural invariants of a CSR matrix: non-nil,
// consistent array lengths, monotone row pointers, and in-range
// strictly-ascending column indices per row.
func checkCSR(m *sparse.CSR) error {
	if m == nil {
		return fmt.Errorf("check: nil matrix")
	}
	if err := m.Validate(); err != nil {
		return fmt.Errorf("check: %w", err)
	}
	return nil
}

// checkSplit validates a triangular decomposition against its source
// matrix: L strictly lower and U strictly upper with valid CSR
// structure, and the exact reassembly L + D + U == A. The comparison is
// semantic, not structural: a diagonal entry absent from A matches a
// zero in D, so matrices with partially-stored diagonals validate too.
// Values must match bit-exactly — a split copies, it never rounds.
func checkSplit(a *sparse.CSR, tri *sparse.Triangular) error {
	if a == nil || tri == nil {
		return fmt.Errorf("check: nil split arguments")
	}
	if err := tri.Validate(); err != nil {
		return fmt.Errorf("check: %w", err)
	}
	if a.Rows != tri.N || a.Cols != tri.N {
		return fmt.Errorf("check: split size %d != matrix %dx%d", tri.N, a.Rows, a.Cols)
	}
	for i := 0; i < tri.N; i++ {
		cols, vals := a.Row(i)
		lc, lv := tri.L.Row(i)
		uc, uv := tri.U.Row(i)
		sawDiag := false
		for k, c := range cols {
			var got float64
			switch {
			case int(c) < i:
				if len(lc) == 0 || int(lc[0]) != int(c) {
					return fmt.Errorf("check: L missing entry (%d,%d)", i, c)
				}
				got, lc, lv = lv[0], lc[1:], lv[1:]
			case int(c) > i:
				if len(uc) == 0 || int(uc[0]) != int(c) {
					return fmt.Errorf("check: U missing entry (%d,%d)", i, c)
				}
				got, uc, uv = uv[0], uc[1:], uv[1:]
			default:
				got, sawDiag = tri.D[i], true
			}
			if got != vals[k] {
				return fmt.Errorf("check: split value (%d,%d) = %g, matrix has %g", i, c, got, vals[k])
			}
		}
		if len(lc) != 0 || len(uc) != 0 {
			return fmt.Errorf("check: split row %d has %d extra entries", i, len(lc)+len(uc))
		}
		if !sawDiag && tri.D[i] != 0 {
			return fmt.Errorf("check: D[%d] = %g but matrix stores no diagonal entry", i, tri.D[i])
		}
	}
	return nil
}

// checkPerm validates that p is a bijection on [0, len(p)) and that the
// gather/scatter pair round-trips: UnapplyVec(ApplyVec(x)) == x.
func checkPerm(p reorder.Perm) error {
	if err := p.Validate(); err != nil {
		return fmt.Errorf("check: %w", err)
	}
	n := len(p)
	probe := make([]float64, n)
	for i := range probe {
		probe[i] = float64(i)
	}
	fwd := make([]float64, n)
	back := make([]float64, n)
	p.ApplyVec(probe, fwd)
	p.UnapplyVec(fwd, back)
	for i := range back {
		if back[i] != probe[i] {
			return fmt.Errorf("check: perm round-trip moved element %d to %g", i, back[i])
		}
	}
	return nil
}

// checkABMC validates an ABMC ordering against the PERMUTED matrix b:
// contiguous monotone block/color structure, a bijective permutation,
// and color independence — no entry of b joins two different blocks of
// the same color, the property the color-parallel sweeps rely on.
func checkABMC(ord *reorder.ABMCResult, b *sparse.CSR) error {
	if ord == nil || b == nil {
		return fmt.Errorf("check: nil ABMC arguments")
	}
	if err := ord.Validate(b); err != nil {
		return fmt.Errorf("check: %w", err)
	}
	return nil
}

// validatePermuted audits the schedule against the level-permuted
// matrix: permuted rows must be level-contiguous and every entry must
// connect levels at most one apart — the property the skewed schedule's
// dependency argument rests on.
func (ls *levelSchedule) validatePermuted(pa *sparse.CSR) error {
	lptr := ls.lp.LevelPtr
	nl := ls.lp.NumLevels()
	levelOf := make([]int32, pa.Rows)
	for l := 0; l < nl; l++ {
		for i := lptr[l]; i < lptr[l+1]; i++ {
			levelOf[i] = int32(l)
		}
	}
	for i := 0; i < pa.Rows; i++ {
		cols, _ := pa.Row(i)
		for _, c := range cols {
			d := levelOf[i] - levelOf[c]
			if d < -1 || d > 1 {
				return fmt.Errorf("core: level-blocked schedule: permuted entry (%d,%d) spans levels %d and %d",
					i, c, levelOf[i], levelOf[c])
			}
		}
	}
	return nil
}

// audit runs the validators over the plan's preprocessing products; a
// is the matrix in execution order, tri the split (nil for the engines
// that hold none).
func (p *Plan) audit(a *sparse.CSR, tri *sparse.Triangular) error {
	if err := checkCSR(a); err != nil {
		return err
	}
	if tri != nil {
		if err := checkSplit(a, tri); err != nil {
			return err
		}
	}
	if p.perm != nil {
		if err := checkPerm(p.perm); err != nil {
			return err
		}
	}
	if p.ord != nil {
		if err := checkABMC(p.ord, a); err != nil {
			return err
		}
	}
	if e, ok := p.engine.(*lbEngine); ok {
		if err := e.ls.validatePermuted(a); err != nil {
			return err
		}
	}
	return nil
}

// auditBuilt audits the plan p that NewPlan built from a, as it stands:
// against the matrix its epoch holds, or — for a forward-backward plan,
// which holds only its split — against a in the plan's order (the fused
// build held no permuted matrix, so this is one extra pass).
func auditBuilt(p *Plan, a *sparse.CSR) error {
	ep := p.state.Load()
	ea := ep.a
	if ea == nil {
		ea = a
		if p.perm != nil {
			var err error
			if ea, err = p.perm.ApplySym(a); err != nil {
				return err
			}
		}
	}
	return p.audit(ea, ep.tri)
}

// auditBeds are the bed families of the root conformance zoo, built the
// same way: the four random kinds (diagonal plus three scattered entries,
// no diagonal, zero diagonal with empty rows, tridiagonal) at seven
// sizes, the degenerate shapes, the level chains, the two golden suite
// matrices and all fourteen suite matrices, smaller.
func auditBeds(t testing.TB) map[string]*sparse.CSR {
	t.Helper()
	beds := map[string]*sparse.CSR{}
	for _, n := range []int{0, 1, 2, 3, 17, 33, 40} {
		for kind := 0; kind < 4; kind++ {
			rng := rand.New(rand.NewSource(int64(1000*n + kind + 1)))
			coo := sparse.NewCOO(n, n, 4*n+1)
			for i := 0; i < n; i++ {
				switch kind {
				case 0:
					coo.Add(i, i, 1+rng.Float64())
					for e := 0; e < 3; e++ {
						coo.Add(i, rng.Intn(n), (rng.Float64()-0.5)/4)
					}
				case 1:
					if n > 1 {
						coo.Add(i, (i+1+rng.Intn(n-1))%n, (rng.Float64()-0.5)/2)
					}
				case 2:
					if i%3 == 0 {
						coo.Add(i, i, 0)
					}
					if i+1 < n && i%2 == 0 {
						coo.Add(i, i+1, (rng.Float64()-0.5)/2)
					}
				case 3:
					coo.Add(i, i, 2)
					if i+1 < n {
						coo.Add(i, i+1, -0.5)
						coo.Add(i+1, i, -0.5)
					}
				}
			}
			beds[fmt.Sprintf("n%d/kind%d", n, kind)] = coo.ToCSR()
		}
	}
	beds["0x0"], beds["1x1-diag"], beds["1x1-empty"] = chains(0, 0, 1./8, 0), chains(1, 1, 1./8, 0), sparse.NewCOO(1, 1, 0).ToCSR()
	beds["diagonal"], beds["disconnected"], beds["k-beyond-diameter"] = chains(40, 1, 1./8, 0), chains(2, 20, 1./8, -0.5), chains(1, 5, 1./8, -1)
	beds["golden/cant"], beds["golden/G3_circuit"] = suiteCSR(t, "cant", 0.004, 7), suiteCSR(t, "G3_circuit", 0.004, 11)
	for _, name := range matgen.Names() {
		beds["suite/"+name] = suiteCSR(t, name, 0.0005, 5)
	}
	return beds
}

// auditClasses are the Canonical option classes the conformance table
// builds: every engine serial and on 2, 4 and 8 workers, the FB layouts,
// the default and a 16-block ABMC, and the level-blocked engine at its
// default budget and at 256 bytes, where every bed of two or more levels
// splits its schedule.
func auditClasses() (out []Options) {
	seen := map[Options]bool{}
	for _, eng := range []Engine{EngineStandard, EngineForwardBackward, EngineLevelBlocked} {
		for _, th := range []int{0, 2, 4, 8} {
			for _, btb := range []bool{false, true} {
				for _, nb := range []int{0, 16} {
					for _, lbb := range []int{0, 256} {
						o := Options{Engine: eng, Threads: th, BtB: btb, NumBlocks: nb, LevelBlockBytes: lbb}.Canonical()
						if !seen[o] {
							seen[o] = true
							out = append(out, o)
						}
					}
				}
			}
		}
	}
	return out
}

// TestAuditEveryOptionClass audits the plan of every option class on
// every bed family, in the bed's own order and in reverse Cuthill-McKee
// order (ABMC then blocks an order that has scattered the original
// neighbourhoods).
func TestAuditEveryOptionClass(t *testing.T) {
	classes := auditClasses()
	for name, a := range auditBeds(t) {
		rcm, err := reorder.RCM(a)
		if err != nil {
			t.Fatal(err)
		}
		ra, err := rcm.ApplySym(a)
		if err != nil {
			t.Fatal(err)
		}
		for order, m := range map[string]*sparse.CSR{"": a, "/rcm": ra} {
			for _, opt := range classes {
				p, err := NewPlan(m, opt)
				if err != nil {
					t.Fatalf("%s%s %+v: %v", name, order, opt, err)
				}
				err = auditBuilt(p, m)
				p.Close()
				if err != nil {
					t.Errorf("%s%s %+v: %v", name, order, opt, err)
				}
			}
		}
	}
}

// partialDiagCSR is a random square matrix that leaves about a quarter
// of its diagonal unstored.
func partialDiagCSR(rng *rand.Rand, n, perRow int) *sparse.CSR {
	coo := sparse.NewCOO(n, n, n*(perRow+1))
	for i := 0; i < n; i++ {
		if rng.Intn(4) > 0 {
			coo.Add(i, i, 0.5+rng.Float64())
		}
		for k := 0; k < perRow; k++ {
			coo.Add(i, rng.Intn(n), rng.NormFloat64())
		}
	}
	return coo.ToCSR()
}

func TestCSRAcceptsValidRejectsCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := partialDiagCSR(rng, 30, 3)
	if err := checkCSR(m); err != nil {
		t.Fatalf("valid matrix rejected: %v", err)
	}
	if err := checkCSR(nil); err == nil {
		t.Fatal("nil matrix accepted")
	}
	bad := m.Transpose().Transpose()  // a copy that owns its storage
	bad.RowPtr[5] = bad.RowPtr[6] + 1 // break monotonicity
	if err := checkCSR(bad); err == nil {
		t.Fatal("non-monotone RowPtr accepted")
	}
	bad = m.Transpose().Transpose()
	if len(bad.ColIdx) > 0 {
		bad.ColIdx[0] = int32(bad.Cols) // out of range
		if err := checkCSR(bad); err == nil {
			t.Fatal("out-of-range column accepted")
		}
	}
}

func TestSplitReassembly(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(40)
		a := partialDiagCSR(rng, n, rng.Intn(4))
		tri, err := sparse.Split(a)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkSplit(a, tri); err != nil {
			t.Fatalf("trial %d: valid split rejected: %v", trial, err)
		}
	}
}

func TestSplitDetectsTampering(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := partialDiagCSR(rng, 25, 3)
	tri, err := sparse.Split(a)
	if err != nil {
		t.Fatal(err)
	}

	if len(tri.L.Val) == 0 {
		t.Skip("no lower entries to tamper with")
	}
	tri.L.Val[0] += 1e-9
	if err := checkSplit(a, tri); err == nil {
		t.Fatal("tampered L value accepted")
	}
	tri.L.Val[0] -= 1e-9

	tri.D[7] += 1
	if err := checkSplit(a, tri); err == nil {
		t.Fatal("tampered diagonal accepted")
	}
	tri.D[7] -= 1

	// Move a lower entry above the diagonal: Triangular.Validate must
	// catch the strictness violation.
	row := -1
	for i := 0; i < tri.N; i++ {
		if tri.L.RowNNZ(i) > 0 {
			row = i
			break
		}
	}
	if row >= 0 {
		save := tri.L.ColIdx[tri.L.RowPtr[row]]
		tri.L.ColIdx[tri.L.RowPtr[row]] = int32(row)
		if err := checkSplit(a, tri); err == nil {
			t.Fatal("on-diagonal entry in L accepted")
		}
		tri.L.ColIdx[tri.L.RowPtr[row]] = save
	}
	if err := checkSplit(a, tri); err != nil {
		t.Fatalf("restored split rejected: %v", err)
	}
}

func TestPermBijectivityAndRoundTrip(t *testing.T) {
	p := make(reorder.Perm, 50)
	for i := range p {
		p[i] = int32(i)
	}
	if err := checkPerm(p); err != nil {
		t.Fatalf("identity rejected: %v", err)
	}
	rng := rand.New(rand.NewSource(4))
	rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	if err := checkPerm(p); err != nil {
		t.Fatalf("shuffled permutation rejected: %v", err)
	}
	p[3] = p[4] // duplicate target
	if err := checkPerm(p); err == nil {
		t.Fatal("non-bijective permutation accepted")
	}
	p[3] = int32(len(p)) // out of range
	if err := checkPerm(p); err == nil {
		t.Fatal("out-of-range permutation accepted")
	}
}

func TestABMCColorIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := partialDiagCSR(rng, 60, 3)
	ord, b, err := reorder.ABMCReorder(a, reorder.ABMCOptions{NumBlocks: 12})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkABMC(ord, b); err != nil {
		t.Fatalf("valid ordering rejected: %v", err)
	}
	// Validating against the UNPERMUTED matrix must fail unless the
	// permutation happens to be trivial for every block edge — force a
	// clear violation instead: claim everything is one color.
	if ord.NumColors > 1 {
		flat := &reorder.ABMCResult{
			Perm:      ord.Perm,
			BlockPtr:  ord.BlockPtr,
			ColorPtr:  []int32{0, int32(ord.NumBlocks())},
			NumColors: 1,
		}
		if err := checkABMC(flat, b); err == nil {
			t.Fatal("single-color claim over coupled blocks accepted")
		}
	}
}
