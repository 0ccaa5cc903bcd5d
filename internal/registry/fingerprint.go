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
	"errors"
	"hash"
	"math"
	"sort"
	"sync/atomic"

	"fbmpk/internal/core"
	"fbmpk/internal/parallel"
	"fbmpk/internal/sparse"
)

// Key is the content fingerprint of a (matrix, options) pair: a
// SHA-256 digest over the CSR structure and values plus the
// canonicalized plan options. Two inputs share a Key exactly when
// they would build interchangeable plans.
type Key [sha256.Size]byte

// String renders the key as lowercase hex.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Fingerprint computes the cache key of building a plan for matrix a
// with options opt. The digest covers the matrix dimensions, the full
// CSR structure (row pointers and column indices) and values (exact
// float64 bits), and the canonicalized options, so perturbing any
// single value, index, dimension, or meaningful option field yields a
// distinct key. The encoding is fixed-width little-endian,
// independent of host architecture, worker count and scheduling.
//
// The key is layered: sha256 over the header words plus the structure
// and values digests, each of which is the root of a two-level tree
// over fixed-size leaves of the arrays (contentDigests). Composing from
// the two roots lets callers that need several keys for one matrix —
// Acquire computes the plan key and the structure+options key — read
// each array exactly once instead
// of once per key. Fingerprint only hashes: it is safe on a matrix that
// would not pass Validate.
func Fingerprint(a *sparse.CSR, opt core.Options) Key {
	s, v, _ := contentDigests(a, false)
	return fingerprintWithParts(s, v, a, opt.Canonical())
}

// leafEntries is how many entries of RowPtr, ColIdx or Val one leaf of
// the content tree covers: 1 MiB of the 8-byte arrays, 512 KiB of
// ColIdx, so a column leaf checked and then hashed comes from memory
// once, and a leaf's 16-byte prefix and padding block are noise. Keys
// depend on it: changing it means bumping the tree tags below.
const leafEntries = 1 << 17

// The arrays of a CSR in the order the tree lays them out; the value is
// the array id inside a leaf digest.
const (
	arrRowPtr = iota
	arrColIdx
	arrVal
)

// hostLittleEndian reports whether the arrays' memory already is the
// fixed-width little-endian encoding the digests are defined over.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// contentDigests is the one pass a registry call makes over the content
// of a (DESIGN.md §9): it returns the structure digest (dimensions,
// RowPtr, ColIdx) and the values digest (Val) and, with validate set,
// proves on the way what CSR.Validate proves, returning exactly its
// error when that does not hold.
//
// Each array is cut into leaves of leafEntries entries. A leaf digest is
// SHA-256 over (array id, index of the leaf's first entry, the entries
// as little-endian bytes), so a leaf's bytes cannot stand in for another
// array's or another position's; a root is SHA-256 over a tagged header
// and its arrays' leaf digests in order. Leaves are dealt one at a time
// to min(GOMAXPROCS, leaves) goroutines (parallel.Deal), so the workers
// finish together whatever the ratio of structure to values; leaf
// boundaries are constants, so neither the worker count nor the order
// leaves were taken in reaches a key.
//
// With validate, the O(1) shape checks and the RowPtr monotonicity pass
// complete before any worker starts, so every row range a worker walks
// lies inside ColIdx (CSR.Validate says why nothing less proves that),
// and each ColIdx leaf is range- and ascent-checked just before it is
// hashed, while it is in cache. Without it the leaves are cut by the
// arrays' lengths alone and nothing is indexed through anything else, so
// the pass is safe on arbitrary input.
func contentDigests(a *sparse.CSR, validate bool) (structure, values Key, err error) {
	if validate && !shapeValid(a) {
		return Key{}, Key{}, a.Validate()
	}
	lens := [3]int{arrRowPtr: len(a.RowPtr), arrColIdx: len(a.ColIdx), arrVal: len(a.Val)}
	var first [4]int // first[arr] is the index of arr's first leaf; first[3] the total
	for arr, n := range lens {
		first[arr+1] = first[arr] + (n+leafEntries-1)/leafEntries
	}
	leaves := make([]Key, first[3])

	var failed atomic.Bool
	parallel.Deal(len(leaves), func(i int) {
		arr := arrRowPtr
		for i >= first[arr+1] {
			arr++
		}
		lo := (i - first[arr]) * leafEntries
		hi := min(lo+leafEntries, lens[arr])
		if failed.Load() || validate && arr == arrColIdx && !colsValid(a, lo, hi) {
			failed.Store(true)
			return
		}
		h := sha256.New()
		var prefix [16]byte
		binary.LittleEndian.PutUint64(prefix[:], uint64(arr))
		binary.LittleEndian.PutUint64(prefix[8:], uint64(lo))
		h.Write(prefix[:])
		writeLeaf(h, a, arr, lo, hi, hostLittleEndian)
		h.Sum(leaves[i][:0])
	})
	if failed.Load() {
		if err := a.Validate(); err != nil {
			return Key{}, Key{}, err
		}
		// A leaf check failed and Validate finds nothing wrong: the
		// caller changed the matrix during the call.
		return Key{}, Key{}, errors.New("matrix modified while it was validated")
	}

	structure = root("fbmpk-struct-v2\x00", leaves[:first[arrVal]], uint64(a.Rows), uint64(a.Cols), uint64(lens[arrColIdx]))
	values = root("fbmpk-val-v2\x00", leaves[first[arrVal]:], uint64(lens[arrVal]))
	return structure, values, nil
}

// shapeValid is the part of CSR.Validate that must hold before ColIdx
// may be read through RowPtr: dimensions, array lengths, and the whole
// monotonicity pass.
func shapeValid(a *sparse.CSR) bool {
	if a.Rows < 0 || a.Cols < 0 || len(a.RowPtr) != a.Rows+1 || a.RowPtr[0] != 0 {
		return false
	}
	if nnz := a.RowPtr[a.Rows]; int64(len(a.ColIdx)) != nnz || int64(len(a.Val)) != nnz {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		if a.RowPtr[i] > a.RowPtr[i+1] {
			return false
		}
	}
	return true
}

// colsValid checks ColIdx[lo:hi] of a matrix that passed shapeValid the
// way CSR.Validate checks it: every column in range, and strictly above
// its predecessor in the same row — which, for a row the leaf boundary
// cuts, is the last entry of the previous leaf.
func colsValid(a *sparse.CSR, lo, hi int) bool {
	r := sort.Search(a.Rows, func(i int) bool { return a.RowPtr[i+1] > int64(lo) })
	for k := lo; k < hi; {
		for a.RowPtr[r+1] <= int64(k) {
			r++
		}
		prev := int32(-1)
		if int64(k) > a.RowPtr[r] {
			prev = a.ColIdx[k-1]
		}
		for end := int(min(a.RowPtr[r+1], int64(hi))); k < end; k++ {
			c := a.ColIdx[k]
			if c < 0 || int(c) >= a.Cols || c <= prev {
				return false
			}
			prev = c
		}
	}
	return true
}

// writeLeaf feeds h entries [lo, hi) of one array as little-endian
// bytes: the array's own memory where the host lays it out that way
// (inPlace), an encoding staged through a small buffer where it does
// not — a parameter so that a test can run the second on this host.
func writeLeaf(h hash.Hash, a *sparse.CSR, arr, lo, hi int, inPlace bool) {
	if inPlace {
		switch arr {
		case arrRowPtr:
			h.Write(sparse.RawBytes(a.RowPtr[lo:hi]))
		case arrColIdx:
			h.Write(sparse.RawBytes(a.ColIdx[lo:hi]))
		default:
			h.Write(sparse.RawBytes(a.Val[lo:hi]))
		}
		return
	}
	var buf [4096]byte
	n := 0
	for i := lo; i < hi; i++ {
		switch arr {
		case arrRowPtr:
			binary.LittleEndian.PutUint64(buf[n:], uint64(a.RowPtr[i]))
			n += 8
		case arrColIdx:
			binary.LittleEndian.PutUint32(buf[n:], uint32(a.ColIdx[i]))
			n += 4
		default:
			binary.LittleEndian.PutUint64(buf[n:], math.Float64bits(a.Val[i]))
			n += 8
		}
		if n == len(buf) {
			h.Write(buf[:n])
			n = 0
		}
	}
	h.Write(buf[:n])
}

// root digests a tag, header words and leaf digests into one Key.
func root(tag string, leaves []Key, words ...uint64) Key {
	h := sha256.New()
	h.Write([]byte(tag))
	var buf [8]byte
	for _, w := range words {
		binary.LittleEndian.PutUint64(buf[:], w)
		h.Write(buf[:])
	}
	for i := range leaves {
		h.Write(leaves[i][:])
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// fingerprintWithParts assembles the plan key from precomputed
// structure and values digests. opt must already be canonicalized.
func fingerprintWithParts(s, v Key, a *sparse.CSR, opt core.Options) Key {
	// The tag version moves whenever the key layout changes (v2 added
	// the backend words, v3 switched to sub-digest composition, v4 added
	// the level-blocked engine words, v5 dropped the words of the seven
	// options that went, v6 composes from the tree roots, v7 dropped the
	// backend word, v8 the ForceABMC and SelfCheck words), so keys from
	// different layouts can never collide.
	words := headerWords(a, opt)
	return root("fbmpk-plan-v8\x00", []Key{s, v}, words[:]...)
}

// headerWords flattens the dimensions and canonical options into
// fixed-position words so every field occupies its own slot in the
// digest input (no ambiguity between adjacent fields).
func headerWords(a *sparse.CSR, opt core.Options) [8]uint64 {
	b2u := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	return [8]uint64{
		uint64(a.Rows),
		uint64(a.Cols),
		uint64(len(a.ColIdx)),
		uint64(opt.Engine),
		b2u(opt.BtB),
		uint64(opt.Threads),
		uint64(opt.NumBlocks),
		uint64(opt.LevelBlockBytes),
	}
}

// structOptKeyFromStruct composes the structure digest with the
// canonical option words: the identity of "a cached plan that could
// serve this matrix after an in-place value update".
// Registry.UpdateValues uses it to find the entry whose values to swap —
// same structure, same options, any values. opt must already be
// canonicalized.
func structOptKeyFromStruct(s Key, a *sparse.CSR, opt core.Options) Key {
	// v4: the structure digest is a tree root; v5 dropped the backend
	// word, v6 the ForceABMC and SelfCheck words. Option words only:
	// dimensions and nnz are already covered by the structure digest.
	words := headerWords(a, opt)
	return root("fbmpk-structopt-v6\x00", []Key{s}, words[3:]...)
}
