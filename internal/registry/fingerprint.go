// Package registry implements the plan cache behind fbmpk.Registry: a
// ref-counted, LRU-evicting store of prepared Plans keyed by a content
// fingerprint of the matrix and its canonicalized build options, with
// singleflight deduplication so N concurrent requests for the same
// matrix trigger exactly one preprocessing run.
//
// The cache makes the paper's amortization argument (Section V-F: the
// one-off reorder+split cost is recouped over a sequence of SpMVs)
// hold across plan lifetimes too: a serving process that repeatedly
// plans the same matrix pays preprocessing once, not once per caller.
package registry

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"fbmpk/internal/core"
	"fbmpk/internal/sparse"
)

// Key is the content fingerprint of a (matrix, options) pair: a
// SHA-256 digest over the CSR structure and values plus the
// canonicalized plan options. Two inputs share a Key exactly when
// they would build interchangeable plans.
type Key [sha256.Size]byte

// String renders the key as lowercase hex.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Canonicalize maps options onto their equivalence-class
// representative; see core.Options.Canonical, which NewPlan builds from
// too, so the key and the plan cannot disagree on what a knob means.
func Canonicalize(opt core.Options) core.Options { return opt.Canonical() }

// fingerprintBufLen is the staging buffer size of the streaming
// encoder: large enough to amortize hasher calls, small enough to
// stay cache-resident.
const fingerprintBufLen = 8192

// Fingerprint computes the cache key of building a plan for matrix a
// with options opt. The digest covers the matrix dimensions, the full
// CSR structure (row pointers and column indices) and values (exact
// float64 bits), and the canonicalized options, so perturbing any
// single value, index, dimension, or meaningful option field yields a
// distinct key. The encoding is fixed-width little-endian,
// independent of host architecture.
//
// The key is layered: sha256 over the header words plus the structure
// and values sub-digests (the v3 layout; v2 hashed the raw arrays
// inline). Composing from sub-digests lets callers that need several
// keys for one matrix — Acquire computes the plan key, the
// structure+options key, and the tuner-cache key — hash each array
// exactly once instead of once per key.
func Fingerprint(a *sparse.CSR, opt core.Options) Key {
	s, v := digests(a)
	return fingerprintWithParts(s, v, a, Canonicalize(opt))
}

// digests computes the two sub-digests of a side by side: the values
// hash on its own goroutine while the caller's hashes the structure.
// They read disjoint arrays and share nothing, so the keys are the ones
// a back-to-back pass produces, in about the time of the longer half.
func digests(a *sparse.CSR) (structure, values Key) {
	done := make(chan Key, 1)
	go func() { done <- valuesFingerprint(a) }()
	structure = StructureFingerprint(a)
	return structure, <-done
}

// fingerprintWithParts assembles the plan key from precomputed
// structure and values digests. opt must already be canonicalized.
func fingerprintWithParts(s, v Key, a *sparse.CSR, opt core.Options) Key {
	h := sha256.New()
	var buf [16 + 11*8]byte
	// The tag version moves whenever the key layout changes (v2 added
	// the backend words, v3 switched to sub-digest composition, v4 added
	// the level-blocked engine words, v5 dropped the words of the seven
	// options that went), so keys from different layouts can never
	// collide.
	n := copy(buf[:], "fbmpk-plan-v5\x00")
	for _, w := range headerWords(a, opt) {
		binary.LittleEndian.PutUint64(buf[n:], w)
		n += 8
	}
	h.Write(buf[:n])
	h.Write(s[:])
	h.Write(v[:])
	var k Key
	h.Sum(k[:0])
	return k
}

// valuesFingerprint digests only the value array (exact float64 bits).
func valuesFingerprint(a *sparse.CSR) Key {
	h := sha256.New()
	var buf [fingerprintBufLen]byte
	// Tag written on its own so the loop below stays 8-byte aligned and
	// the exact flush check holds.
	h.Write([]byte("fbmpk-val-v1\x00"))
	n := 0
	for _, v := range a.Val {
		binary.LittleEndian.PutUint64(buf[n:], math.Float64bits(v))
		n += 8
		if n == fingerprintBufLen {
			h.Write(buf[:n])
			n = 0
		}
	}
	if n > 0 {
		h.Write(buf[:n])
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// headerWords flattens the dimensions and canonical options into
// fixed-position words so every field occupies its own slot in the
// digest input (no ambiguity between adjacent fields).
func headerWords(a *sparse.CSR, opt core.Options) [11]uint64 {
	b2u := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	return [11]uint64{
		uint64(a.Rows),
		uint64(a.Cols),
		uint64(a.NNZ()),
		uint64(opt.Engine),
		b2u(opt.BtB),
		uint64(opt.Threads),
		uint64(opt.NumBlocks),
		b2u(opt.ForceABMC),
		b2u(opt.SelfCheck),
		uint64(opt.Backend),
		uint64(opt.LevelBlockBytes),
	}
}

// structOptKey composes the structure fingerprint with the canonical
// option words: the identity of "a cached plan that could serve this
// matrix after an in-place value update". Registry.UpdateValues uses
// it to find the entry whose values to swap — same structure, same
// options, any values. opt must already be canonicalized.
func structOptKey(a *sparse.CSR, opt core.Options) Key {
	return structOptKeyFromStruct(StructureFingerprint(a), a, opt)
}

// structOptKeyFromStruct is structOptKey given a precomputed structure
// fingerprint, so callers needing several keys hash the structure once.
func structOptKeyFromStruct(s Key, a *sparse.CSR, opt core.Options) Key {
	h := sha256.New()
	// v3: one word per field of core.Options, eight since seven went.
	h.Write([]byte("fbmpk-structopt-v3\x00"))
	h.Write(s[:])
	var buf [8]byte
	// Option words only: dimensions and nnz are already covered by the
	// structure fingerprint.
	words := headerWords(a, opt)
	for _, v := range words[3:] {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// StructureFingerprint digests only the matrix sparsity structure —
// dimensions, row pointers, column indices; no values, no options. It
// keys the registry's autotuner verdict cache: the tuner's decision
// depends on the access pattern, not the numeric values, so plans for
// the same structure under different options (or value updates in an
// iterative sequence) reuse one verdict.
func StructureFingerprint(a *sparse.CSR) Key {
	h := sha256.New()
	var buf [fingerprintBufLen]byte

	n := copy(buf[:], "fbmpk-struct-v1\x00")
	binary.LittleEndian.PutUint64(buf[n:], uint64(a.Rows))
	binary.LittleEndian.PutUint64(buf[n+8:], uint64(a.Cols))
	n += 16
	h.Write(buf[:n])

	n = 0
	flushIfFull := func() {
		if n == fingerprintBufLen {
			h.Write(buf[:n])
			n = 0
		}
	}
	for _, v := range a.RowPtr {
		binary.LittleEndian.PutUint64(buf[n:], uint64(v))
		n += 8
		flushIfFull()
	}
	for _, c := range a.ColIdx {
		binary.LittleEndian.PutUint32(buf[n:], uint32(c))
		n += 4
		flushIfFull()
	}
	if n > 0 {
		h.Write(buf[:n])
	}

	var k Key
	h.Sum(k[:0])
	return k
}
