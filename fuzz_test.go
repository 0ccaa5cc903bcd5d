package fbmpk

// Fuzzing over the conformance table (conformance_test.go): each
// differential target draws a row — a config from configs(), a matrix
// from the zoo's diffMatrix generator — and a slice of the entry points
// from its arguments and applies the table's columns to that cell;
// FuzzAPIBoundary instead feeds arbitrary bytes through the error
// boundary and requires typed errors, never panics.
//
// All targets take only int64 and []byte arguments so the seed corpus
// files under testdata/fuzz/ stay trivially well-formed; seeds run on
// every plain `go test`, and ci.sh additionally runs each target under
// -fuzz for a short smoke budget.

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

// index folds a fuzz integer into [0, n).
func index(raw int64, n int) int {
	if raw < 0 {
		raw = -(raw + 1)
	}
	return int(raw % int64(n))
}

// fuzzCell applies columns to the cell of a seed-derived diff bed (any
// size up to 40, any kind, its own values), the config cfgRaw picks from
// rows, and the named entry points at power k.
func fuzzCell(t *testing.T, seed, cfgRaw int64, rows []config, k int, cols []func(*cell), names ...string) {
	rng := rand.New(rand.NewSource(seed))
	g := group{ks: []int{k}}
	for _, ep := range entryPoints() {
		for _, name := range names {
			if ep.name == name {
				g.eps = append(g.eps, ep)
			}
		}
	}
	apply(t, diffBed(rng.Intn(41), rng.Intn(4), seed), rows[index(cfgRaw, len(rows))], g, cols...)
}

func FuzzDifferentialMPK(f *testing.F) {
	f.Add(int64(1), int64(0), int64(1))
	f.Add(int64(7), int64(6), int64(4))
	f.Add(int64(42), int64(12), int64(8))
	f.Fuzz(func(t *testing.T, seed, cfgRaw, kRaw int64) {
		fuzzCell(t, seed, cfgRaw, configs(), 1+index(kRaw, maxPower), []func(*cell){agreement, parallel, inert}, "MPK", "MPKAll")
	})
}

func FuzzDifferentialSSpMV(f *testing.F) {
	f.Add(int64(2), int64(3), int64(5))
	f.Add(int64(9), int64(10), int64(1))
	f.Add(int64(13), int64(7), int64(2))
	f.Fuzz(func(t *testing.T, seed, cfgRaw, degRaw int64) {
		fuzzCell(t, seed, cfgRaw, configs(), index(degRaw, maxPower+1), []func(*cell){agreement, parallel, inert}, "SSpMV", "SSpMVComplex")
	})
}

func FuzzDifferentialMulti(f *testing.F) {
	f.Add(int64(3), int64(5), int64(4))
	f.Add(int64(11), int64(11), int64(1))
	f.Add(int64(17), int64(2), int64(3))
	f.Fuzz(func(t *testing.T, seed, cfgRaw, mRaw int64) {
		m := []string{"1", "3", "4", "5"}[index(mRaw, 4)]
		fuzzCell(t, seed, cfgRaw, configs(), 1+index(seed, maxPower), []func(*cell){agreement, parallel, inert, lanes}, "MPKMulti"+m, "SSpMVMulti"+m)
	})
}

func FuzzDifferentialSymGS(f *testing.F) {
	f.Add(int64(4), int64(1), int64(2))
	f.Add(int64(19), int64(3), int64(1))
	f.Add(int64(23), int64(0), int64(3))
	split := where(func(c config) bool { return c.opt.Engine == EngineForwardBackward })
	f.Fuzz(func(t *testing.T, seed, cfgRaw, sweepsRaw int64) {
		fuzzCell(t, seed, cfgRaw, split, 1+index(sweepsRaw, 3), []func(*cell){agreement, parallel}, "SymGS", "SymGSWarm")
	})
}

// FuzzDifferentialBackend draws from the rows that spell a plan backend
// that went: the standard engine's, which inert holds to the unspelled
// CSR plan, and the spellings inert under the other engines.
func FuzzDifferentialBackend(f *testing.F) {
	f.Add(int64(5), int64(0), int64(2), int64(0))
	f.Add(int64(21), int64(4), int64(5), int64(2))
	f.Add(int64(33), int64(9), int64(3), int64(4))
	var rows []config
	for _, c := range configs() {
		for _, spelling := range append([]config{c}, c.inert...) {
			if spelling.spelling != "" {
				rows = append(rows, spelling)
			}
		}
	}
	f.Fuzz(func(t *testing.T, seed, cfgRaw, kRaw, _ int64) {
		c := rows[index(cfgRaw, len(rows))]
		fuzzCell(t, seed, 0, []config{c}, 1+index(kRaw, maxPower), []func(*cell){agreement, inert, parallel}, "MPK", "MPKMulti4")
	})
}

// FuzzDifferentialLevelBlocked draws the block budget (down to byte-sized
// ones that force one level per block; negative selects the default) and
// the worker count of the level-blocked rows from its arguments, and
// holds the standalone LevelBlockedMPK helper to the same bound.
func FuzzDifferentialLevelBlocked(f *testing.F) {
	f.Add(int64(6), int64(3), int64(0), int64(1))
	f.Add(int64(29), int64(7), int64(512), int64(4))
	f.Add(int64(51), int64(1), int64(-9), int64(2))
	f.Fuzz(func(t *testing.T, seed, kRaw, bbRaw, thRaw int64) {
		k := 1 + index(kRaw, maxPower)
		rows := where(func(c config) bool { return c.opt.Engine == EngineLevelBlocked && c.opt.Threads > 1 })
		for i := range rows {
			rows[i].opt.LevelBlockBytes, rows[i].opt.Threads = int(bbRaw%100_000), 2+index(thRaw, 3)
		}
		standalone := func(x *cell) {
			got, err := LevelBlockedMPK(x.b.a, x.b.v[0], k, x.c.opt.LevelBlockBytes)
			if err != nil {
				t.Fatal(err)
			}
			want, bound := x.b.power(0, k)
			compare(t, "LevelBlockedMPK", vecs{got}, vecs{want}, vecs{bound})
		}
		fuzzCell(t, seed, seed, rows, k, []func(*cell){agreement, parallel, standalone}, "MPK")
	})
}

// FuzzAPIBoundary hammers the error boundary with arbitrary bytes
// interpreted as a raw CSR and call arguments, under a config of the
// table. Every call — every entry point, both twins — must either succeed
// or return an error wrapping an exported sentinel; a panic (slice
// bounds, nil deref, runaway allocation) fails the fuzzer.
func FuzzAPIBoundary(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 2, 0, 1, 2, 1, 1, 0, 1, 100, 200})
	f.Add([]byte{3, 3, 0, 1, 1, 3, 0, 1, 2, 9, 9, 9, 5, 5, 5, 5, 5})
	f.Add([]byte{255, 1, 7, 7, 7, 7, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0])
			data = data[1:]
			return v
		}
		rows := next() % 64
		cols := next() % 64
		nrp := next() % 70
		rp := make([]int64, nrp)
		for i := range rp {
			rp[i] = int64(next()) - 16
		}
		nnz := next() % 96
		ci := make([]int32, nnz)
		vals := make([]float64, nnz)
		for i := range ci {
			ci[i] = int32(next()) - 16
			vals[i] = float64(next()-128) / 16
		}
		a := &Matrix{Rows: rows, Cols: cols, RowPtr: rp, ColIdx: ci, Val: vals}
		opt := configs()[next()%len(configs())].opt
		opt.NumBlocks = next() % 9

		wantErr := func(err error) {
			t.Helper()
			if err == nil {
				return
			}
			for _, sentinel := range []error{
				ErrInvalidMatrix, ErrNotSquare, ErrDimension, ErrBadPower,
				ErrBadCoeffs, ErrEmptyBlock, ErrBadSweeps, ErrNoSplit,
			} {
				if errors.Is(err, sentinel) {
					return
				}
			}
			t.Fatalf("error without a typed sentinel: %v", err)
		}

		// Vectors of one arbitrary length stand in for a bed's.
		b := &bed{a: a, rhs: make([]float64, next()%70)}
		for i := range b.rhs {
			b.rhs[i] = 1
		}
		for j := range b.v {
			b.v[j] = b.rhs
		}
		k := next()%8 - 2

		p, err := NewPlan(a, opt)
		wantErr(err)
		if err != nil {
			// The one-shot helpers route through the same validation.
			_, err = MPK(a, b.rhs, k, opt)
			wantErr(err)
			return
		}
		defer p.Close()
		for _, ep := range entryPoints() {
			_, err = ep.plain(p, b, k)
			wantErr(err)
			_, err = ep.ctx(context.Background(), p, b, k)
			wantErr(err)
		}
	})
}
