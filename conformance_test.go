package fbmpk

// The conformance table: every engine x option x entry point is
// enumerated once — configs() x zoo() x entryPoints() — and every
// contract of the library is a column applied to those rows. DESIGN.md
// §5 is the legend: one line per column (property, oracle, where its
// tolerance comes from) and one per enumerator axis. The Test functions
// at the end shard the rows so that `go test -run` can address a slice.
// Removing an engine or a format is deleting enumerator cases.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"fbmpk/internal/reorder"
)

const (
	maxPower = 6 // largest k any column runs
	maxBlock = 5 // widest block: the packed m = 4 primitives and one remainder vector
	unit     = 0x1p-53
	// slack covers evaluating a bound in float64 (|A|^k|x| is itself a
	// rounded Algorithm 1 result): a few thousand units at the very most.
	slack = 1 + 0x1p-30
	// symgsTol is the one tuned tolerance of the table. Gauss-Seidel
	// divides, so it has no gamma bound free of the matrix; but every zoo
	// matrix with a usable diagonal is strictly diagonally dominant, a
	// sweep therefore contracts a perturbation, and what separates the
	// plan's L-then-U row sums from the reference's column order stays a
	// few gamma_{r+2} per half-sweep: under 1e-14 of max|x| over the 12
	// half-sweeps run here. Two digits are left for the division.
	symgsTol = 1e-12
)

// vec fills a deterministic vector in (-0.5, 0.5) without math/rand, so
// the inputs (and the golden digests) cannot drift with the library.
func vec(n int, seed uint64) []float64 {
	x := make([]float64, n)
	s := seed
	for i := range x {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		x[i] = float64(z>>11)/float64(1<<53) - 0.5
	}
	return x
}

// polynomial returns the degree-k coefficients of the SSpMV forms (the
// complex ones also as their two real parts), with one exact zero — the
// kernels skip those powers — when the degree leaves room for it; k < 0
// yields none, which the entry points must reject.
func polynomial(k int) (coeffs []float64, ccoeffs []complex128, re, im []float64) {
	for i := 0; i <= k; i++ {
		coeffs = append(coeffs, 1/float64(i+2))
		ccoeffs = append(ccoeffs, complex(1/float64(i+3), float64(i%3)-1))
		re, im = append(re, real(ccoeffs[i])), append(im, imag(ccoeffs[i]))
	}
	if k >= 5 {
		coeffs[3] = 0
	}
	return
}

// ---------------------------------------------------------------------
// zoo: the matrices, each with its inputs and Algorithm 1 references.

// bed is one matrix with everything a column reads besides the plan.
type bed struct {
	name     string
	a        *Matrix
	alt, mag *Matrix                 // a's structure under other values; |a|
	levels   int                     // NumLevels a level-blocked plan must report (0: unchecked)
	v        [1 + maxBlock][]float64 // v[0] the single start vector, v[1:] the block
	rhs      []float64
	noBlock  bool               // misuse variant: batched calls get an empty block
	r        int                // max nonzeros per row
	pow, abs [1 + maxBlock]vecs // A^p v_j and |A|^p |v_j|, see oracle
	rcm      *bed               // the bed in reverse Cuthill-McKee order, see on
}

func newBed(name string, a *Matrix, seed uint64) *bed {
	b := &bed{name: name, a: a, rhs: vec(a.Rows, seed*977)}
	mag, alt := *a, *a
	mag.Val, alt.Val = make([]float64, len(a.Val)), make([]float64, len(a.Val))
	for i, v := range a.Val {
		mag.Val[i], alt.Val[i] = math.Abs(v), 2*v-0.5
	}
	b.mag, b.alt = &mag, &alt
	for i := 0; i < a.Rows; i++ {
		b.r = max(b.r, int(a.RowPtr[i+1]-a.RowPtr[i]))
	}
	for j := range b.v {
		b.v[j] = vec(a.Rows, seed*131+uint64(j))
	}
	b.v[0] = vec(a.Rows, seed)
	return b
}

// oracle returns A^p v_j and |A|^p |v_j| for p = 0..maxPower: Algorithm 1
// (StandardMPK) on A and on |A|, computed on first use.
func (b *bed) oracle(j int) (pow, abs vecs) {
	if b.pow[j] == nil {
		b.pow[j], b.abs[j] = vecs{b.v[j]}, vecs{make([]float64, len(b.v[j]))}
		for i, x := range b.v[j] {
			b.abs[j][0][i] = math.Abs(x)
		}
		for p := 1; p <= maxPower; p++ {
			next, err := StandardMPK(b.a, b.pow[j][p-1], 1)
			nextAbs, errAbs := StandardMPK(b.mag, b.abs[j][p-1], 1)
			if err != nil || errAbs != nil {
				panic(fmt.Sprint(b.name, ": Algorithm 1 on a zoo matrix: ", err, errAbs))
			}
			b.pow[j], b.abs[j] = append(b.pow[j], next), append(b.abs[j], nextAbs)
		}
	}
	return b.pow[j], b.abs[j]
}

func (b *bed) block(m int) vecs {
	if b.noBlock {
		return nil
	}
	return b.v[1 : 1+m]
}

func gamma(n int) float64 { return float64(n) * unit / (1 - float64(n)*unit) }

// combo returns sum_p c_p A^p v_j by Algorithm 1 and how far from it a
// result may lie. A power is within gamma_{p(r+2)} (|A|^p |v_j|)_i of the
// exact product whatever order its rows were summed in (internal/core
// TestDerivedErrorBound, against math/big), the d+1 products and d
// additions of a degree-d combination add gamma_{d+1}, and two results
// each that close to the exact one differ by at most twice the sum.
func (b *bed) combo(j int, coeffs []float64) (want, bound []float64) {
	d := len(coeffs) - 1
	pow, abs := b.oracle(j)
	want, bound = make([]float64, len(b.v[j])), make([]float64, len(b.v[j]))
	for p, c := range coeffs {
		for i := range want {
			want[i] += c * pow[p][i]
			bound[i] += 2 * gamma(d*(b.r+2)+d+1) * math.Abs(c) * abs[p][i] * slack
		}
	}
	return want, bound
}

// power is combo for A^p v_j alone: no combination, gamma_{p(r+2)}.
func (b *bed) power(j, p int) (want, bound []float64) {
	pow, abs := b.oracle(j)
	bound = make([]float64, len(b.v[j]))
	for i, m := range abs[p] {
		bound[i] = 2 * gamma(p*(b.r+2)) * m * slack
	}
	return pow[p], bound
}

// guess is the vector a smoother call starts from: zero, or — warm — a
// copy of the block's first vector, which a plan that drops the incoming
// x, or forgets to permute it, does not survive.
func (b *bed) guess(warm bool) []float64 {
	x := make([]float64, len(b.rhs))
	if warm {
		copy(x, b.v[1])
	}
	return x
}

// smoothed is the SymGS reference: symmetric Gauss-Seidel sweeps from x
// over the rows in the plan's execution order (its ABMC permutation, or
// the natural order), each row summed in stored column order, rows
// without a usable diagonal skipped.
func (b *bed) smoothed(p *Plan, sweeps int, x []float64) (want, bound []float64) {
	n := b.a.Rows
	order := reorder.Identity(n)
	if ord := p.Ordering(); ord != nil {
		order = ord.Perm
	}
	relax := func(i int32) {
		s, d := b.rhs[i], 0.0
		for e := b.a.RowPtr[i]; e < b.a.RowPtr[i+1]; e++ {
			if c := b.a.ColIdx[e]; c == i {
				d = b.a.Val[e]
			} else {
				s -= b.a.Val[e] * x[c]
			}
		}
		if d != 0 {
			x[i] = s / d
		}
	}
	for ; sweeps > 0; sweeps-- {
		for _, i := range order {
			relax(i)
		}
		for at := n - 1; at >= 0; at-- {
			relax(order[at])
		}
	}
	bound = make([]float64, n)
	for i := range bound {
		bound[i] = symgsTol * max(1, normInfTest(x))
	}
	return x, bound
}

// diffMatrix builds one of four structurally distinct test matrices:
// dense-diagonal with random off-diagonals, diagonal-free, explicit
// zero diagonal with empty rows, and symmetric tridiagonal. Values are
// kept small so iterates neither overflow nor underflow for k <= 8.
func diffMatrix(rng *rand.Rand, n, kind int) *Matrix {
	// Arguments are non-negative by construction, so the error is dead.
	tr, _ := NewTriplets(n, n, 4*n+1)
	for i := 0; i < n; i++ {
		switch kind % 4 {
		case 0:
			tr.Add(i, i, 1+rng.Float64())
			for e := 0; e < 3; e++ {
				tr.Add(i, rng.Intn(n), (rng.Float64()-0.5)/4)
			}
		case 1:
			if n > 1 {
				tr.Add(i, (i+1+rng.Intn(n-1))%n, (rng.Float64()-0.5)/2)
			}
		case 2:
			if i%3 == 0 {
				tr.Add(i, i, 0)
			}
			if i+1 < n && i%2 == 0 {
				tr.Add(i, i+1, (rng.Float64()-0.5)/2)
			}
		case 3:
			tr.Add(i, i, 2)
			if i+1 < n {
				tr.Add(i, i+1, -0.5)
				tr.Add(i+1, i, -0.5)
			}
		}
	}
	return tr.ToCSR()
}

// diffBed is the bed of one (size, kind); seed 0 is the zoo's own.
func diffBed(n, kind int, seed int64) *bed {
	seed += int64(1000*n + kind + 1)
	return newBed(fmt.Sprintf("n%d/kind%d", n, kind), diffMatrix(rand.New(rand.NewSource(seed)), n, kind), uint64(seed))
}

// chains returns count uncoupled symmetric tridiagonal chains of length
// rows each: one chain is a path (every row its own BFS level), several
// stack their levels component by component, length 1 is a diagonal.
func chains(count, length int, offdiag float64) *Matrix {
	tr, _ := NewTriplets(count*length, count*length, 3*count*length)
	for r := 0; r < count*length; r++ {
		tr.Add(r, r, 2+float64(r)/8)
		if (r+1)%length != 0 {
			tr.Add(r, r+1, offdiag)
			tr.Add(r+1, r, offdiag)
		}
	}
	return tr.ToCSR()
}

var zooBeds = map[string][]*bed{}

// zoo returns one group of the fixed matrices, built on first use: "diff"
// (diffMatrix's four kinds at seven sizes, kind fastest), "degenerate"
// (0x0 and 1x1), "levels" (where the level schedule degenerates:
// singleton levels, stacked components, k beyond the diameter), "golden"
// (the two generated suite matrices the digests are recorded on) and
// "suite" (all fourteen, smaller).
func zoo(t testing.TB, group string) []*bed {
	t.Helper()
	add := func(name string, a *Matrix, seed uint64, levels int) {
		b := newBed(name, a, seed)
		b.levels = levels
		zooBeds[group] = append(zooBeds[group], b)
	}
	suite := func(name string, scale float64, seed uint64, levels int) {
		a, err := GenerateSuiteMatrix(name, scale, seed)
		if err != nil {
			t.Fatal(err)
		}
		add(name, a, seed, levels)
	}
	switch {
	case zooBeds[group] != nil:
	case group == "diff":
		for _, n := range []int{0, 1, 2, 3, 17, 33, 40} {
			for kind := 0; kind < 4; kind++ {
				zooBeds[group] = append(zooBeds[group], diffBed(n, kind, 0))
			}
		}
	case group == "degenerate":
		empty, _ := NewTriplets(1, 1, 0)
		add("0x0", chains(0, 0, 0), 1, 0)
		add("1x1-diag", chains(1, 1, 0), 2, 1)
		add("1x1-empty", empty.ToCSR(), 3, 1)
	case group == "levels":
		add("diagonal", chains(40, 1, 0), 4, 40)
		add("disconnected", chains(2, 20, -0.5), 5, 40)
		add("1x1", chains(1, 1, 0), 6, 1)
		add("k-beyond-diameter", chains(1, 5, -1), 8, 5)
	case group == "golden":
		suite("cant", 0.004, 7, 3)
		suite("G3_circuit", 0.004, 11, 81)
	case group == "suite":
		for _, name := range SuiteNames() {
			suite(name, 0.0005, 5, 0)
		}
	}
	return zooBeds[group]
}

// diff returns the diff beds of n rows, one of each kind.
func diff(t testing.TB, n int) (out []*bed) {
	for _, b := range zoo(t, "diff") {
		if b.a.Rows == n {
			out = append(out, b)
		}
	}
	return out
}

// ---------------------------------------------------------------------
// configs: the option space, cut by Options.Canonical.

// config is one row of the option space: a spelling of Options, and
// whether the row runs on the RCM ordering of its bed. The spellings
// Canonical folds onto a config — they differ from it only in knobs its
// engine never reads — ride along as inert, each naming its
// representative in canon. spelling is the name of a plan backend that
// went ("" for none): part of the row's name, nothing of its plan.
type config struct {
	name     string
	spelling string
	opt      Options
	rcm      bool
	inert    []config
	canon    *config
}

func (c config) plan(t testing.TB, b *bed) *Plan {
	t.Helper()
	p, err := NewPlan(b.a, c.opt)
	if err != nil {
		t.Fatalf("%s/%s: NewPlan: %v", b.name, c.name, err)
	}
	t.Cleanup(p.Close)
	return p
}

// on returns the bed c runs on: b, or for an rcm+abmc row b in RCM order
// (so ABMC blocks an order that has scattered the original
// neighbourhoods), built on first use.
func (c config) on(t testing.TB, b *bed) *bed {
	t.Helper()
	if c.rcm && b.rcm == nil {
		p, err := reorder.RCM(b.a)
		if err != nil {
			t.Fatal(err)
		}
		pa, err := p.ApplySym(b.a)
		if err != nil {
			t.Fatal(err)
		}
		b.rcm = newBed(b.name, pa, 0x5eed)
	}
	if c.rcm {
		return b.rcm
	}
	return b
}

var configRows []config

// configs enumerates Engine x Threads {serial, 2 ("parallel": this host's
// cores), 4, 8} x BtB x ordering {natural, ForceABMC, RCM then ForceABMC}
// x LevelBlockBytes {default, 256} x the spellings sell, sell/c16, bsr,
// bsr/b2 and auto of the plan backends that went (names only: each
// builds the options it rides on), SelfCheck on, and keeps the first
// spelling of every Canonical class: what a knob means is decided in one
// place, and the test space is cut there too.
func configs() []config {
	if configRows != nil {
		return configRows
	}
	engines := map[Engine]string{EngineStandard: "std", EngineForwardBackward: "fb", EngineLevelBlocked: "lb", EngineAuto: "auto"}
	workers := map[int]string{0: "serial", 2: "parallel", 4: "t4", 8: "t8"}
	spellings := []string{"", "sell", "sell/c16", "bsr", "bsr/b2", "auto"}
	at := map[string]int{}
	for _, eng := range []Engine{EngineStandard, EngineForwardBackward, EngineLevelBlocked, EngineAuto} {
		for _, th := range []int{0, 2, 4, 8} {
			for _, btb := range []bool{false, true} {
				// The layout is spelled where it is not the engine's
				// usual one: always for fb, "sep" for auto, "btb" else.
				layout := map[bool]string{true: "btb", false: "sep"}[btb]
				if eng != EngineForwardBackward && btb == (eng == EngineAuto) {
					layout = ""
				}
				for _, ord := range []string{"", "abmc", "rcm+abmc"} {
					for _, lbb := range []int{0, 256} {
						for _, spelling := range spellings {
							c := config{spelling: spelling, rcm: ord == "rcm+abmc", opt: Options{Engine: eng, Threads: th, BtB: btb, NumBlocks: 16,
								ForceABMC: ord != "", LevelBlockBytes: lbb, SelfCheck: true}}
							for _, part := range []string{engines[eng], workers[th], layout, ord, map[int]string{256: "tiny-blocks"}[lbb], spelling} {
								if part != "" {
									c.name += "/" + part
								}
							}
							c.name = c.name[1:]
							key := fmt.Sprintf("%+v|%v", c.opt.Canonical(), c.rcm)
							switch eng {
							case EngineStandard:
								// The backend spellings of the standard
								// engine were plans of their own, so they
								// stay rows, and their test names with them;
								// inert holds each to the unspelled plan.
								key += spelling
							case EngineAuto:
								// Canonical resolves Auto to FB: its rows stay
								// rows, held to the forced plan by inert.
								key += "auto" + map[int]string{256: "/tiny-blocks"}[lbb]
							}
							if i, ok := at[key]; ok {
								configRows[i].inert = append(configRows[i].inert, c)
								continue
							}
							at[key] = len(configRows)
							configRows = append(configRows, c)
						}
					}
				}
			}
		}
	}
	for i := range configRows {
		for j := range configRows[i].inert {
			configRows[i].inert[j].canon = &configRows[i]
		}
	}
	return configRows
}

// where filters configs.
func where(keep func(config) bool) (out []config) {
	for _, c := range configs() {
		if keep(c) {
			out = append(out, c)
		}
	}
	return out
}

// plain reports the rows at the default ordering and block budget.
func (c config) plain() bool { return !c.opt.ForceABMC && c.opt.LevelBlockBytes == 0 }

// own reports the rows of a forced engine (and layout) on its own storage,
// default ordering and budget.
func (c config) own() bool {
	return c.plain() && c.spelling == "" && c.opt.Engine != EngineAuto
}

// ---------------------------------------------------------------------
// entryPoints: every Plan method that computes, both twins.

// entryPoint runs one Plan method on a bed's inputs at power (degree,
// sweep count) k, plain and through its *Ctx twin.
type entryPoint struct {
	name   string // golden key: the method, and the block width for the batched ones
	method string
	m      int   // block width, 0 for the single-vector forms
	warm   bool  // the smoother from a non-zero guess
	minK   int   // a k below it is rejected with badK
	badK   error // (a degree-0 combination is legal, so minK is 0 there)
	plain  func(p *Plan, b *bed, k int) (vecs, error)
	ctx    func(ctx context.Context, p *Plan, b *bed, k int) (vecs, error)
}

// vecs is what a call returns: one vector, or one per power, part or lane.
type vecs = [][]float64

func one(y []float64, err error) (vecs, error)      { return vecs{y}, err }
func two(re, im []float64, err error) (vecs, error) { return vecs{re, im}, err }

func entryPoints() []entryPoint {
	type C = context.Context
	coeffs := func(k int) []float64 { c, _, _, _ := polynomial(k); return c }
	ccoeffs := func(k int) []complex128 { _, c, _, _ := polynomial(k); return c }
	eps := []entryPoint{
		{name: "MPK", method: "MPK", minK: 1, badK: ErrBadPower,
			plain: func(p *Plan, b *bed, k int) (vecs, error) { return one(p.MPK(b.v[0], k)) },
			ctx:   func(ctx C, p *Plan, b *bed, k int) (vecs, error) { return one(p.MPKCtx(ctx, b.v[0], k)) }},
		{name: "MPKAll", method: "MPKAll", minK: 1, badK: ErrBadPower,
			plain: func(p *Plan, b *bed, k int) (vecs, error) { return p.MPKAll(b.v[0], k) },
			ctx:   func(ctx C, p *Plan, b *bed, k int) (vecs, error) { return p.MPKAllCtx(ctx, b.v[0], k) }},
		{name: "SSpMV", method: "SSpMV", badK: ErrBadCoeffs,
			plain: func(p *Plan, b *bed, k int) (vecs, error) { return one(p.SSpMV(coeffs(k), b.v[0])) },
			ctx:   func(ctx C, p *Plan, b *bed, k int) (vecs, error) { return one(p.SSpMVCtx(ctx, coeffs(k), b.v[0])) }},
		{name: "SSpMVComplex", method: "SSpMVComplex", badK: ErrBadCoeffs,
			plain: func(p *Plan, b *bed, k int) (vecs, error) { return two(p.SSpMVComplex(ccoeffs(k), b.v[0])) },
			ctx: func(ctx C, p *Plan, b *bed, k int) (vecs, error) {
				return two(p.SSpMVComplexCtx(ctx, ccoeffs(k), b.v[0]))
			}},
	}
	for _, m := range []int{1, 3, 4, 5} {
		eps = append(eps,
			entryPoint{name: fmt.Sprint("MPKMulti", m), method: "MPKMulti", m: m, minK: 1, badK: ErrBadPower,
				plain: func(p *Plan, b *bed, k int) (vecs, error) { return p.MPKMulti(b.block(m), k) },
				ctx:   func(ctx C, p *Plan, b *bed, k int) (vecs, error) { return p.MPKMultiCtx(ctx, b.block(m), k) }},
			entryPoint{name: fmt.Sprint("SSpMVMulti", m), method: "SSpMVMulti", m: m, badK: ErrBadCoeffs,
				plain: func(p *Plan, b *bed, k int) (vecs, error) { return p.SSpMVMulti(coeffs(k), b.block(m)) },
				ctx:   func(ctx C, p *Plan, b *bed, k int) (vecs, error) { return p.SSpMVMultiCtx(ctx, coeffs(k), b.block(m)) }})
	}
	for _, warm := range []bool{false, true} {
		eps = append(eps, entryPoint{name: "SymGS" + map[bool]string{true: "Warm"}[warm], method: "SymGS", warm: warm, minK: 1, badK: ErrBadSweeps,
			plain: func(p *Plan, b *bed, k int) (vecs, error) { x := b.guess(warm); return one(x, p.SymGS(b.rhs, x, k)) },
			ctx: func(ctx C, p *Plan, b *bed, k int) (vecs, error) {
				x := b.guess(warm)
				return one(x, p.SymGSCtx(ctx, b.rhs, x, k))
			}})
	}
	return eps
}

// noSplit reports the smoother on a plan whose engine holds no L+D+U
// split: it must return ErrNoSplit, whatever else it is given.
func (e entryPoint) noSplit(p *Plan) bool {
	return e.method == "SymGS" && p.Engine() != EngineForwardBackward
}

// want is what Algorithm 1 (for the smoother: the reference smoother)
// makes of the call's inputs, and how far from it a result may lie.
func (e entryPoint) want(b *bed, p *Plan, k int) (want, bound vecs) {
	add := func(w, bd []float64) { want, bound = append(want, w), append(bound, bd) }
	coeffs, _, re, im := polynomial(k)
	for j := min(1, e.m); j <= e.m; j++ {
		switch e.method {
		case "MPK", "MPKMulti":
			add(b.power(j, k))
		case "MPKAll":
			for q := 0; q <= k; q++ {
				add(b.power(j, q))
			}
		case "SSpMV", "SSpMVMulti":
			add(b.combo(j, coeffs))
		case "SSpMVComplex":
			add(b.combo(j, re))
			add(b.combo(j, im))
		case "SymGS":
			add(b.smoothed(p, k, b.guess(e.warm)))
		}
	}
	return want, bound
}

// group is a slice of the entry points with the k it runs them at; its
// name is a level of the subtest path.
type group struct {
	name string
	ks   []int
	eps  []entryPoint
}

// groupsBy cuts the entry points into groups by key, in order of first
// appearance. k = 0 is the degree-0 combination, which touches no matrix;
// 2 is one forward-backward pair, 5 pairs and a tail.
func groupsBy(key func(entryPoint) string) (out []group) {
	for _, ep := range entryPoints() {
		i := slices.IndexFunc(out, func(g group) bool { return g.name == key(ep) })
		if i < 0 {
			i, out = len(out), append(out, group{name: key(ep), ks: []int{0, 2, 5}})
		}
		out[i].eps = append(out[i].eps, ep)
	}
	return out
}

// groups cuts them by the vector count a call carries — "" (one), "m1",
// "m3", "m4", "m5" — with the smoother at "sweeps1" and "sweeps3",
// keeping the names keep accepts; groups(nil) is one nameless group of
// them all.
func groups(keep func(name string) bool) (out []group) {
	if keep == nil {
		return groupsBy(func(entryPoint) string { return "" })
	}
	for _, g := range groupsBy(func(ep entryPoint) string {
		if ep.method == "SymGS" {
			return "sweeps"
		} else if ep.m > 0 {
			return fmt.Sprint("m", ep.m)
		}
		return ""
	}) {
		cuts := []group{g}
		if g.name == "sweeps" {
			cuts = []group{{"sweeps1", []int{1}, g.eps}, {"sweeps3", []int{3}, g.eps}}
		}
		for _, g := range cuts {
			if keep(g.name) {
				out = append(out, g)
			}
		}
	}
	return out
}

func single(name string) bool  { return name == "" }
func batched(name string) bool { return strings.HasPrefix(name, "m") }
func sweeps(name string) bool  { return strings.HasPrefix(name, "sweeps") }

// ---------------------------------------------------------------------
// The table and its columns.

// cell is one row of the table — config c on bed b (the bed c runs on),
// for the entry points of g — with the plan and the results every
// column reads, computed once.
type cell struct {
	*testing.T
	b    *bed
	c    config
	g    group
	p    *Plan
	memo map[string]vecs
}

// calls visits the computing calls of the cell: every entry point of the
// group at every k it accepts — on a plan with workers, whose calls cost
// a hundred serial ones under the race detector, at the last two only
// (one of each sweep parity; the parallel column ties those rows to
// serial ones that run them all). The smoother on a plan without the
// L+D+U split must return ErrNoSplit and is not visited.
func (x *cell) calls(visit func(ep entryPoint, k int, label string)) {
	for _, ep := range x.g.eps {
		ks := x.g.ks
		if x.c.opt.Threads > 1 {
			ks = ks[max(0, len(ks)-2):]
		}
		for _, k := range ks {
			label := fmt.Sprintf("%s/%s: %s k=%d", x.b.name, x.c.name, ep.name, k)
			if ep.noSplit(x.p) {
				if _, err := ep.plain(x.p, x.b, k); !errors.Is(err, ErrNoSplit) {
					x.Errorf("%s on engine %v: got %v, want ErrNoSplit", label, x.p.Engine(), err)
				}
			} else if k >= ep.minK {
				visit(ep, k, label)
			}
		}
	}
}

func (x *cell) run(p *Plan, b *bed, ep entryPoint, k int) vecs {
	x.Helper()
	ys, err := ep.plain(p, b, k)
	if err != nil {
		x.Fatalf("%s/%s: %s k=%d: %v", b.name, x.c.name, ep.name, k, err)
	}
	return ys
}

// got is the cell's own result for a call.
func (x *cell) got(ep entryPoint, k int) vecs {
	key := fmt.Sprint(ep.name, k)
	if x.memo[key] == nil {
		x.memo[key] = x.run(x.p, x.b, ep, k)
	}
	return x.memo[key]
}

// compare holds got to want: within bound[v][i] of it, or — bound nil —
// bit for bit.
func compare(t testing.TB, label string, got, want, bound vecs) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d result vectors, want %d", label, len(got), len(want))
	}
	for v := range want {
		if len(got[v]) != len(want[v]) {
			t.Fatalf("%s: vector %d has length %d, want %d", label, v, len(got[v]), len(want[v]))
		}
		for i, w := range want[v] {
			g := got[v][i]
			if bound == nil && math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: vector %d row %d: bits differ, %x vs %x (%g vs %g)", label, v, i, math.Float64bits(g), math.Float64bits(w), g, w)
			}
			if bound != nil && !(math.Abs(g-w) <= bound[v][i]) { // a NaN fails too
				t.Fatalf("%s: vector %d row %d: %g is %g from the reference %g, bound %g", label, v, i, g, math.Abs(g-w), w, bound[v][i])
			}
		}
	}
}

// table applies columns to beds x groups x configs, one subtest per
// cell, <bed>/<group>/<config>, a nameless level left out.
func table(t *testing.T, beds []*bed, cfgs []config, gs []group, cols ...func(*cell)) {
	level := func(t *testing.T, name string, f func(t *testing.T)) {
		if name == "" {
			f(t)
		} else {
			t.Run(name, f)
		}
	}
	for _, b := range beds {
		level(t, b.name, func(t *testing.T) {
			for _, g := range gs {
				level(t, g.name, func(t *testing.T) {
					for _, c := range cfgs {
						t.Run(c.name, func(t *testing.T) { apply(t, b, c, g, cols...) })
					}
				})
			}
		})
	}
}

func apply(t *testing.T, b *bed, c config, g group, cols ...func(*cell)) {
	b = c.on(t, b)
	x := &cell{T: t, b: b, c: c, g: g, p: c.plan(t, b), memo: map[string]vecs{}}
	for _, col := range cols {
		col(x)
	}
}

// agreement: every result within the derived bound of Algorithm 1's (the
// smoother: within symgsTol of the reference smoother). A level-blocked
// plan on a bed of known level structure reports it, and under the
// 256-byte budget it has split its schedule exactly when there is
// something to split: two levels, and more matrix (12 bytes an entry, 8 a
// row) than one block takes.
func agreement(x *cell) {
	if st := x.p.Stats(); x.p.Engine() == EngineLevelBlocked {
		if x.b.levels > 0 && st.NumLevels != x.b.levels {
			x.Errorf("%s/%s: %d BFS levels, want %d", x.b.name, x.c.name, st.NumLevels, x.b.levels)
		}
		splits := st.NumLevels >= 2 && 12*len(x.b.a.Val)+8*x.b.a.Rows > 256
		if x.c.opt.LevelBlockBytes == 256 && (st.NumBlocks >= 2) != splits {
			x.Errorf("%s/%s: %d levels in %d blocks of 256 bytes", x.b.name, x.c.name, st.NumLevels, st.NumBlocks)
		}
	}
	x.calls(func(ep entryPoint, k int, label string) {
		want, bound := ep.want(x.b, x.p, k)
		compare(x, label, x.got(ep, k), want, bound)
	})
}

// bitwise holds the cell to the plan of another config on the same bed,
// bit for bit.
func (x *cell) bitwise(other config, what string) {
	p := other.plan(x, x.b)
	x.calls(func(ep entryPoint, k int, label string) {
		compare(x, label+" vs "+what+" "+other.name, x.got(ep, k), x.run(p, x.b, ep, k), nil)
	})
}

// inert: a spelling Canonical folds away builds its representative's
// plan, EngineAuto is no choice of its own — its row builds the forced
// plan of the engine it resolved to — and a standard-engine row that
// spells a backend builds the unspelled row's plan.
func inert(x *cell) {
	if x.c.canon != nil {
		x.bitwise(*x.c.canon, "its representative")
	}
	if x.c.opt.Engine == EngineAuto {
		forced := x.c
		forced.opt.Engine = x.p.Engine()
		forced.name = fmt.Sprintf("%v (forced)", forced.opt.Engine)
		x.bitwise(forced, "the plan of")
	}
	if x.c.canon == nil && x.c.spelling != "" {
		csr := x.c
		csr.spelling, csr.name = "", strings.TrimSuffix(x.c.name, "/"+x.c.spelling)
		x.bitwise(csr, "the plan of")
	}
}

// parallel: a plan with workers returns the bits of the serial plan on
// the same ordering — the same options at Threads 0, ABMC forced where
// the workers imply it.
func parallel(x *cell) {
	if s := x.c; s.opt.Threads > 1 {
		s.opt.Threads, s.opt.ForceABMC = 0, s.opt.ForceABMC || s.opt.Canonical().Engine == EngineForwardBackward
		x.bitwise(s, "the serial twin of")
	}
}

// lanes: the bits a batched call returns for one vector do not depend on
// the others of its block — each lane in turn is kept while the rest are
// replaced — so no lane of the packed m = 4 primitives reads another's
// value, which agreement on similar vectors could let through. Serial
// rows; the parallel column carries it to the others.
func lanes(x *cell) {
	if x.c.opt.Threads > 1 {
		return
	}
	x.calls(func(ep entryPoint, k int, label string) {
		for j := 0; j < ep.m && ep.m > 1; j++ {
			others := *x.b
			for i := 1; i <= ep.m; i++ {
				others.v[i] = x.b.v[0]
			}
			others.v[1+j] = x.b.v[1+j]
			compare(x, fmt.Sprintf("%s lane %d with the other lanes replaced", label, j), x.run(x.p, &others, ep, k)[j:j+1], x.got(ep, k)[j:j+1], nil)
		}
	})
}

// reports: a plan says it runs the engine its options resolve to,
// whatever backend its row spells.
func reports(x *cell) {
	if got, want := x.p.Engine(), x.c.opt.Canonical().Engine; got != want {
		x.Errorf("plan runs %v, want %v", got, want)
	}
}

// twins is the Ctx == non-Ctx contract for one call: both forms return
// DeepEqual results and the same error text, wrapping want (nil: none).
func (x *cell) twins(label string, b *bed, ep entryPoint, k int, want error) {
	x.Helper()
	if ep.noSplit(x.p) {
		want = ErrNoSplit
	}
	plain, errPlain := ep.plain(x.p, b, k)
	viaCtx, errCtx := ep.ctx(context.Background(), x.p, b, k)
	if !errors.Is(errPlain, want) || (want == nil && errPlain != nil) {
		x.Errorf("%s: got %v, want %v", label, errPlain, want)
	}
	if (errPlain == nil) != (errCtx == nil) || (errPlain != nil && errPlain.Error() != errCtx.Error()) {
		x.Errorf("%s: error divergence: plain=%v ctx=%v", label, errPlain, errCtx)
	}
	if errPlain == nil && !reflect.DeepEqual(plain, viaCtx) {
		x.Errorf("%s: the Ctx form returns other results", label)
	}
}

// twinned: every computing call of the cell through both forms.
func twinned(x *cell) {
	x.calls(func(ep entryPoint, k int, label string) { x.twins(label, x.b, ep, k, nil) })
}

// misuse is one call an entry point must reject, named for its error.
type misuse struct {
	name string
	b    *bed
	k    int
	want error
}

var errorNames = map[error]string{ErrBadPower: "bad-power", ErrBadCoeffs: "bad-coeffs", ErrBadSweeps: "bad-sweeps"}

// misuses lists them for ep on b: k below the minimum; every vector one
// entry too long and (the direction that reads out of bounds; not on the
// 0x0 bed) one too short, an empty block, a block with one long vector —
// at the lowest legal k as well, because a degree-0 combination touches no
// matrix and must still check shapes.
func misuses(b *bed, ep entryPoint) []misuse {
	resized := func(by int) *bed {
		r := *b
		for j := range r.v {
			r.v[j] = make([]float64, b.a.Rows+by)
		}
		r.rhs = r.v[0]
		return &r
	}
	long, ragged, empty := resized(1), *b, *b
	ragged.v[2], empty.noBlock = long.v[2], true
	out := []misuse{{errorNames[ep.badK], b, ep.minK - 1, ep.badK}, {errorNames[ep.badK], b, -3, ep.badK}}
	for _, k := range []int{ep.minK, 2} {
		out = append(out, misuse{"long-vector", long, k, ErrDimension})
		if b.a.Rows > 0 {
			out = append(out, misuse{"short-vector", resized(-1), k, ErrDimension})
		}
		if ep.m > 0 {
			out = append(out, misuse{"empty-block", &empty, k, ErrEmptyBlock})
		}
		if ep.m > 2 {
			out = append(out, misuse{"ragged-block", &ragged, k, ErrDimension})
		}
	}
	return out
}

// rejects: every misuse of every entry point returns its sentinel,
// through both twins, and after Close so does a good call ErrClosed. It
// closes the plan: the last column of a cell.
func rejects(x *cell) {
	for _, ep := range x.g.eps {
		for _, call := range misuses(x.b, ep) {
			x.twins(fmt.Sprintf("%s/%s: %s %s k=%d", x.b.name, x.c.name, ep.name, call.name, call.k), call.b, ep, call.k, call.want)
		}
	}
	x.p.Close()
	for _, ep := range x.g.eps {
		x.twins(fmt.Sprintf("%s/%s: %s after Close", x.b.name, x.c.name, ep.name), x.b, ep, 2, ErrClosed)
	}
}

// pure is the epoch column, through both UpdateValues twins: a plan
// taken to the bed's other values answers bitwise like a fresh plan on
// them, and taken back like itself before.
func pure(x *cell) {
	other := *x.b
	other.a = x.b.alt
	x.calls(func(ep entryPoint, k int, _ string) { x.got(ep, k) })
	epoch := x.p.Epoch()
	if err := x.p.UpdateValuesCtx(context.Background(), x.b.alt); err != nil {
		x.Fatal(err)
	}
	if x.p.Epoch() != epoch+1 {
		x.Errorf("epoch %d after one update of epoch %d", x.p.Epoch(), epoch)
	}
	fresh := x.c.plan(x, &other)
	x.calls(func(ep entryPoint, k int, label string) {
		compare(x, label+": updated plan vs a fresh one", x.run(x.p, x.b, ep, k), x.run(fresh, x.b, ep, k), nil)
	})
	if err := x.p.UpdateValues(x.b.a); err != nil {
		x.Fatal(err)
	}
	x.calls(func(ep entryPoint, k int, label string) {
		compare(x, label+": plan updated there and back vs itself before", x.run(x.p, x.b, ep, k), x.got(ep, k), nil)
	})
}

// refusesDelta: a matrix of another sparsity pattern is refused with
// ErrStructureChanged by both UpdateValues twins, and the plan is the
// epoch it was.
func refusesDelta(x *cell) {
	delta := &Matrix{Rows: x.b.a.Rows, Cols: x.b.a.Cols, RowPtr: make([]int64, x.b.a.Rows+1)}
	if len(x.b.a.Val) == 0 { // only the 0x0 and empty 1x1 beds
		delta = chains(1, 1, 0)
	}
	x.calls(func(ep entryPoint, k int, _ string) { x.got(ep, k) })
	epoch := x.p.Epoch()
	errPlain, errCtx := x.p.UpdateValues(delta), x.p.UpdateValuesCtx(context.Background(), delta)
	if !errors.Is(errPlain, ErrStructureChanged) || errCtx == nil || errPlain.Error() != errCtx.Error() {
		x.Errorf("structure delta: plain=%v ctx=%v, want ErrStructureChanged from both", errPlain, errCtx)
	}
	if x.p.Epoch() != epoch {
		x.Errorf("two refused updates moved the epoch %d -> %d", epoch, x.p.Epoch())
	}
	x.calls(func(ep entryPoint, k int, label string) {
		compare(x, label+": after a refused update vs before", x.run(x.p, x.b, ep, k), x.got(ep, k), nil)
	})
}

// ---------------------------------------------------------------------
// The shards. A call on a plan with workers costs a hundred serial ones
// under the race detector, so every bed meets the rows of at most two
// workers, and the wider rows meet the beds they were made for
// (TestMoreThreadsThanRows, TestDifferentialLevelBlocked, TestGoldenBits).

// wide are the rows of the shards over whole zoo groups: at most two
// workers, and EngineAuto (whose plans are the forward-backward
// engine's) on plain rows only.
func wide(c config) bool { return c.opt.Threads <= 2 && (c.opt.Engine != EngineAuto || c.plain()) }

func fbPlain(c config) bool { return c.plain() && wide(c) && c.opt.Engine == EngineForwardBackward }

// csrRows spell no backend; backendRows do — under the standard engine
// rows of their own, under the forward-backward one (plain rows) inert
// spellings — and the inert column holds each to the unspelled plan.
func csrRows() []config {
	return where(func(c config) bool { return wide(c) && c.spelling == "" })
}

func backendRows() (out []config) {
	for _, c := range where(wide) {
		if c.spelling != "" && !c.rcm {
			out = append(out, c)
		}
		for _, alias := range c.inert {
			if fbPlain(c) && alias.spelling != "" && alias.opt == c.opt {
				out = append(out, alias)
			}
		}
	}
	return out
}

// The diff beds: agreement and the bitwise columns that ride its results,
// by backend spelling and entry point group.
func TestDifferentialEngines(t *testing.T) {
	table(t, zoo(t, "diff"), csrRows(), groups(single), agreement, parallel, inert)
}
func TestDifferentialMulti(t *testing.T) {
	table(t, zoo(t, "diff"), csrRows(), groups(batched), agreement, parallel, inert, lanes)
}
func TestDifferentialSymGS(t *testing.T) {
	table(t, zoo(t, "diff"), csrRows(), groups(sweeps), agreement, parallel, inert)
}
func TestBackendDifferentialEngines(t *testing.T) {
	table(t, zoo(t, "diff"), backendRows(), groups(single), agreement, inert, parallel)
}
func TestBackendDifferentialMulti(t *testing.T) {
	table(t, zoo(t, "diff"), backendRows(), groups(func(name string) bool { return name == "m1" || name == "m4" }), agreement, inert, parallel, lanes)
}
func TestBackendDifferentialBaseline(t *testing.T) {
	rows := backendRows()
	for i := range rows {
		rows[i].name = strings.TrimPrefix(rows[i].name, "std/serial/")
	}
	table(t, zoo(t, "diff"), rows, groups(nil), reports)
}

// The degenerate and level shapes: every entry point, every column that
// leaves the plan as it found it, then rejects.
func TestDegenerateShapes(t *testing.T) {
	table(t, zoo(t, "degenerate"), where(wide), groups(nil), agreement, parallel, inert, lanes, rejects)
}
func TestLevelBlockedDegenerateShapes(t *testing.T) {
	table(t, zoo(t, "levels"), where(wide), groups(nil), agreement, parallel, inert, lanes, rejects)
}

// The generated suite matrices: real level structure, long rows (cant)
// and rows of two entries (G3_circuit), where the packed primitives loop
// and where they do not; then the forward-backward rows across all
// fourteen, single and batched.
func TestDifferentialLevelBlocked(t *testing.T) {
	rows := where(func(c config) bool { return !c.opt.ForceABMC && (wide(c) || c.opt.Threads == 4 && c.own()) })
	table(t, zoo(t, "golden")[:1], rows, groups(nil), agreement, parallel, inert)
}
func TestMPKMultiLaneIndependence(t *testing.T) {
	table(t, zoo(t, "golden")[:1], where(fbPlain), groups(func(name string) bool { return name == "m4" || name == "m5" }), lanes, parallel)
}
func TestEnginesAgreeAcrossSuite(t *testing.T) {
	table(t, zoo(t, "suite"), where(fbPlain), groups(single), agreement, parallel)
}
func TestMPKMultiMatchesIndependentSuite(t *testing.T) {
	rows := where(func(c config) bool { return fbPlain(c) && c.opt.BtB })
	table(t, zoo(t, "suite"), rows, groups(func(name string) bool { return name == "m4" }), agreement, parallel)
}

// Every spelling Canonical folds away, on one bed.
func TestInertOptions(t *testing.T) {
	var aliases []config
	for _, c := range where(func(c config) bool { return c.opt.Threads == 0 }) {
		aliases = append(aliases, c.inert...)
	}
	table(t, diff(t, 17)[:1], aliases, groups(nil), inert)
}

// Workers outnumbering rows (the partitioners must hand every worker a
// valid, possibly empty, range): the 4- and 8-worker rows, by size and
// engine.
func TestMoreThreadsThanRows(t *testing.T) {
	wider := where(func(c config) bool { return c.opt.Threads > 2 && c.own() })
	for _, n := range []int{1, 2, 3, 5} {
		for i, first := range wider {
			if i > 0 && wider[i-1].opt.Engine == first.opt.Engine {
				continue
			}
			t.Run(fmt.Sprintf("n%d/%v", n, first.opt.Engine), func(t *testing.T) {
				var rows []config
				for _, c := range wider {
					if c.opt.Threads > n && c.opt.Engine == first.opt.Engine {
						rows = append(rows, c)
					}
				}
				table(t, []*bed{diffBed(n, 3, 0)}, rows, groups(nil), agreement, parallel)
			})
		}
	}
}

// The epoch column on one diff bed of each kind and the degenerate ones.
func TestEpochPurity(t *testing.T) {
	table(t, append(diff(t, 17), zoo(t, "degenerate")...), where(wide), groups(single), refusesDelta, pure)
}

// anon is b without its level of the subtest path: three columns keep
// the paths, by config alone, of the suites the table replaced.
func anon(b *bed) []*bed {
	nameless := *b
	nameless.name = ""
	return []*bed{&nameless}
}

// Degree 0 on a reordered plan once met original-order vectors in the
// permuted numbering; every group's k = 0 now covers it on every bed.
func TestDegenerateCoeffsForceABMC(t *testing.T) {
	constant := groups(nil)
	constant[0].ks = []int{0}
	table(t, anon(diff(t, 17)[0]), where(wide), constant, agreement, parallel)
}

func TestPlanMethodErrors(t *testing.T) {
	table(t, anon(zoo(t, "levels")[3]), where(wide), groups(nil), rejects)
}

// TestCtxParity is the twins contract by method and misuse, serial rows
// first, 2-worker rows second (whose subtests carry Go's #01 suffix).
func TestCtxParity(t *testing.T) {
	b := diff(t, 17)[0]
	methods := groupsBy(func(ep entryPoint) string { return ep.method })
	for _, workers := range []int{0, 2} {
		rows := where(func(c config) bool { return c.plain() && c.opt.Threads == workers })
		for _, g := range methods {
			variants := []string{""} // the good calls
			for _, call := range misuses(b, g.eps[len(g.eps)-1]) {
				if !slices.Contains(variants, call.name) {
					variants = append(variants, call.name)
				}
			}
			for _, variant := range variants {
				t.Run(strings.TrimSuffix(g.name+"/"+variant, "/"), func(t *testing.T) {
					for _, c := range rows {
						apply(t, b, c, g, func(x *cell) {
							if variant == "" {
								twinned(x)
							}
							for _, ep := range g.eps {
								for _, call := range misuses(b, ep) {
									if call.name == variant {
										x.twins(fmt.Sprintf("%s: %s %s k=%d", c.name, ep.name, call.name, call.k), call.b, ep, call.k, call.want)
									}
								}
							}
						})
					}
				})
			}
		}
		for name, col := range map[string]func(*cell){"UpdateValues": pure, "UpdateValues/structure-delta": refusesDelta} {
			t.Run(name, func(t *testing.T) {
				for _, c := range rows {
					apply(t, b, c, groups(single)[0], col)
				}
			})
		}
	}
}

// goldenRows are the rows the digests are keyed by, serial and at 4
// workers.
func goldenRows() []config {
	return where(func(c config) bool { return c.own() && (c.opt.Threads == 0 || c.opt.Threads == 4) })
}

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden/bits.txt from the current code")

const goldenPath = "testdata/golden/bits.txt"

// TestGoldenBits is the golden column: the result bits of every entry
// point (but the m = 5 block and the warm-started smoother, which the
// recording predates) at k = 1, 2,
// 5, 6, on every forced engine and layout at 1 and 4 workers, against
// SHA-256 digests checked in under testdata/golden/. The parallel column
// compares two runs of the same code; this one compares the code against
// a recording, so a refactor that moves a rounding in both at once still
// fails. Regenerate (only when an arithmetic change is intended, and
// licensed by the derived bound, not by a tolerance) with
//
//	go test -run TestGoldenBits -update-golden .
//
// The fbmpk digests date from PR 16 (split accumulation chains, backward
// entries walked downward), the standard ones from PR 12, the
// level-blocked ones from PR 24 (its steps took sparse.SpMVRange).
func TestGoldenBits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are recorded on amd64; FMA-fusing targets round differently")
	}
	got := map[string]string{}
	for _, b := range zoo(t, "golden") {
		for _, c := range goldenRows() {
			p := c.plan(t, b)
			layout := ""
			if c.opt.Engine == EngineForwardBackward {
				layout = map[bool]string{true: "+btb", false: "-btb"}[c.opt.BtB]
			}
			for _, ep := range entryPoints() {
				for _, k := range []int{1, 2, 5, 6} {
					if ep.m == maxBlock || ep.warm || ep.noSplit(p) {
						continue
					}
					key := fmt.Sprintf("%s/%v%s/t%d/k%d/%s", b.name, c.opt.Engine, layout, max(1, c.opt.Threads), k, ep.name)
					vs, err := ep.plain(p, b, k)
					if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					h := sha256.New()
					for _, v := range vs {
						for _, f := range v {
							if math.IsNaN(f) || math.IsInf(f, 0) {
								t.Fatalf("%s: non-finite result; the digest would not pin the arithmetic", key)
							}
						}
						// Each vector's length, then its float64 bits.
						binary.Write(h, binary.LittleEndian, uint64(len(v)))
						binary.Write(h, binary.LittleEndian, v)
					}
					got[key] = hex.EncodeToString(h.Sum(nil))
				}
			}
		}
	}
	if *updateGolden {
		var lines []string
		for key, sum := range got {
			lines = append(lines, key+" "+sum+"\n")
		}
		sort.Strings(lines)
		if err := os.WriteFile(goldenPath, []byte(strings.Join(lines, "")), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(lines), goldenPath)
		return
	}
	recorded, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	words := strings.Fields(string(recorded)) // key, digest, key, digest, ...
	for i := 0; i+1 < len(words); i += 2 {
		if sum, ok := got[words[i]]; !ok {
			t.Errorf("%s: recorded, but no row of the table produces it", words[i])
		} else if sum != words[i+1] {
			t.Errorf("%s: result bits changed (got %s, recorded %s)", words[i], sum[:12], words[i+1][:min(12, len(words[i+1]))])
		}
	}
	if len(words) != 2*len(got) {
		t.Errorf("%s holds %d digests, the table produced %d", goldenPath, len(words)/2, len(got))
	}
}
