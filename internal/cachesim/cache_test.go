package cachesim

import (
	"math/rand"
	"testing"

	"fbmpk/internal/matgen"
	"fbmpk/internal/sparse"
)

func tinyCache(t *testing.T, sizeBytes int64, assoc int) *Cache {
	t.Helper()
	c, err := New(Config{SizeBytes: sizeBytes, Assoc: assoc, LineBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{SizeBytes: 1024, Assoc: 4, LineBytes: 48},  // non pow2 line
		{SizeBytes: 1000, Assoc: 4, LineBytes: 64},  // not divisible
		{SizeBytes: 1024, Assoc: 0, LineBytes: 64},  // zero assoc
		{SizeBytes: -1024, Assoc: 4, LineBytes: 64}, // negative
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: New accepted bad config %+v", i, cfg)
		}
	}
	// Non-power-of-two set counts (11-way Xeon) are valid.
	if _, err := New(Config{SizeBytes: 3 * 64 * 4, Assoc: 4, LineBytes: 64}); err != nil {
		t.Errorf("rejected 3-set geometry: %v", err)
	}
	for _, cfg := range []Config{ConfigXeon, ConfigKP920, ConfigThunderX2, ConfigFT2000} {
		if _, err := New(cfg); err != nil {
			t.Errorf("platform preset rejected: %v", err)
		}
	}
}

func TestColdMissesAndHits(t *testing.T) {
	c := tinyCache(t, 64*64*4, 4) // 16KB
	c.Read(0, 8)
	c.Read(8, 8) // same line
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("misses=%d hits=%d, want 1 and 1", st.Misses, st.Hits)
	}
	if st.ReadBytes != 64 {
		t.Errorf("ReadBytes = %d, want 64", st.ReadBytes)
	}
	if st.WriteBytes != 0 {
		t.Errorf("WriteBytes = %d, want 0", st.WriteBytes)
	}
}

func TestStreamingTrafficMatchesFootprint(t *testing.T) {
	// Reading a buffer much larger than the cache once must move
	// exactly the buffer's bytes from DRAM.
	c := tinyCache(t, 16<<10, 8)
	total := int64(1 << 20)
	for a := int64(0); a < total; a += 64 {
		c.Read(uint64(a), 64)
	}
	st := c.Stats()
	if st.ReadBytes != total {
		t.Errorf("ReadBytes = %d, want %d", st.ReadBytes, total)
	}
}

func TestResidentWorkingSetCompulsoryOnly(t *testing.T) {
	// A working set smaller than capacity read many times: only
	// compulsory misses (DESIGN.md §5 invariant).
	c := tinyCache(t, 64<<10, 8)
	ws := int64(16 << 10)
	for rep := 0; rep < 10; rep++ {
		for a := int64(0); a < ws; a += 64 {
			c.Read(uint64(a), 8)
		}
	}
	st := c.Stats()
	if st.ReadBytes != ws {
		t.Errorf("ReadBytes = %d, want %d (compulsory only)", st.ReadBytes, ws)
	}
	if hr := st.HitRate(); hr < 0.89 {
		t.Errorf("hit rate = %.3f, want >= 0.9", hr)
	}
}

func TestWriteBackAndFlush(t *testing.T) {
	c := tinyCache(t, 4*64*2, 2) // 8 lines: 4 sets x 2 ways
	// Dirty a line, then evict it by filling its set.
	c.Write(0, 8)
	c.Read(4*64, 8)   // same set (4 sets -> stride 256)
	c.Read(2*4*64, 8) // evicts line 0 (LRU), which is dirty
	st := c.Stats()
	if st.WriteBytes != 64 {
		t.Errorf("WriteBytes after eviction = %d, want 64", st.WriteBytes)
	}
	// Flush accounts remaining dirty lines.
	c.Write(64, 8)
	before := c.Stats().WriteBytes
	c.Flush()
	after := c.Stats().WriteBytes
	if after-before != 64 {
		t.Errorf("Flush wrote %d, want 64", after-before)
	}
	// Second flush is a no-op.
	c.Flush()
	if c.Stats().WriteBytes != after {
		t.Error("double flush wrote again")
	}
}

func TestLRUOrder(t *testing.T) {
	// 1 set, 2 ways: A, B, touch A, insert C -> B evicted, A survives.
	c := tinyCache(t, 2*64, 2)
	c.Read(0, 8)   // A
	c.Read(64, 8)  // B
	c.Read(0, 8)   // touch A
	c.Read(128, 8) // C evicts B
	c.Read(0, 8)   // A should hit
	st := c.Stats()
	if st.Hits != 2 {
		t.Errorf("hits = %d, want 2 (A touched twice)", st.Hits)
	}
	c.Read(64, 8) // B must miss again
	if c.Stats().Misses != 4 {
		t.Errorf("misses = %d, want 4", c.Stats().Misses)
	}
}

func TestResetClears(t *testing.T) {
	c := tinyCache(t, 16<<10, 4)
	c.Write(0, 64)
	c.Reset()
	st := c.Stats()
	if st.Accesses != 0 || st.ReadBytes != 0 {
		t.Error("Reset did not clear stats")
	}
	c.Read(0, 8)
	if c.Stats().Misses != 1 {
		t.Error("Reset did not clear contents")
	}
}

func TestCrossLineAccess(t *testing.T) {
	c := tinyCache(t, 16<<10, 4)
	c.Read(60, 8) // spans two lines
	if c.Stats().Misses != 2 {
		t.Errorf("cross-line read missed %d lines, want 2", c.Stats().Misses)
	}
}

func TestScaledConfig(t *testing.T) {
	cfg := ScaledConfig(100<<20, 8)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.SizeBytes <= 0 || cfg.SizeBytes > 100<<20 {
		t.Errorf("scaled size = %d", cfg.SizeBytes)
	}
	// Tiny matrix: floor at 64 sets.
	cfg = ScaledConfig(1024, 8)
	if cfg.SizeBytes != 64*64*8 {
		t.Errorf("floored size = %d, want %d", cfg.SizeBytes, 64*64*8)
	}
	// Non-positive ratio falls back to default.
	cfg = ScaledConfig(100<<20, 0)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew accepted bad config")
		}
	}()
	MustNew(Config{SizeBytes: 100, Assoc: 3, LineBytes: 48})
}

// TestFBMPKTrafficRatioShape is the Fig 9 shape check: with the matrix
// far larger than the cache, FBMPK's DRAM traffic over the standard
// MPK's approaches (k+1)/2k plus vector overhead, and decreases as k
// grows.
func TestFBMPKTrafficRatioShape(t *testing.T) {
	spec, err := matgen.ByName("pwtk")
	if err != nil {
		t.Fatal(err)
	}
	a := spec.Generate(0.02, 1)
	tri, err := sparse.Split(a)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ScaledConfig(a.MemoryBytes(), 8)
	var prev float64 = 2
	for _, k := range []int{3, 6, 9} {
		std, fb, err := CompareMPK(cfg, a, tri, k, true)
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(fb.TotalDRAM()) / float64(std.TotalDRAM())
		theory := float64(k+1) / float64(2*k)
		if ratio < theory-0.05 {
			t.Errorf("k=%d: ratio %.3f below theoretical floor %.3f", k, ratio, theory)
		}
		if ratio > 1.05 {
			t.Errorf("k=%d: ratio %.3f, FBMPK should not move more data", k, ratio)
		}
		if ratio > prev+0.02 {
			t.Errorf("k=%d: ratio %.3f did not decrease from %.3f", k, ratio, prev)
		}
		prev = ratio
	}
}

// TestBtBReducesVectorTraffic: with a thin cache the interleaved
// layout should not move more data than the separate layout.
func TestBtBTrafficNotWorse(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	coo := sparse.NewCOO(4096, 4096, 4096*8)
	for i := 0; i < 4096; i++ {
		coo.Add(i, i, 1)
		for kk := 0; kk < 7; kk++ {
			coo.Add(i, rng.Intn(4096), 0.1)
		}
	}
	a := coo.ToCSR()
	tri, err := sparse.Split(a)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{SizeBytes: 16 << 10, Assoc: 8, LineBytes: 64}
	cSep := MustNew(cfg)
	TraceFBMPK(cSep, tri, 5, false)
	cBtB := MustNew(cfg)
	TraceFBMPK(cBtB, tri, 5, true)
	if cBtB.Stats().TotalDRAM() > cSep.Stats().TotalDRAM() {
		t.Errorf("BtB traffic %d > separate %d", cBtB.Stats().TotalDRAM(), cSep.Stats().TotalDRAM())
	}
}

func TestTraceSpMVTrafficLowerBound(t *testing.T) {
	// One SpMV on a cold cache must read at least the matrix bytes.
	spec, _ := matgen.ByName("G3_circuit")
	a := spec.Generate(0.003, 2)
	c := MustNew(ScaledConfig(a.MemoryBytes(), 8))
	TraceSpMV(c, a)
	if c.Stats().ReadBytes < a.MemoryBytes() {
		t.Errorf("SpMV read %d bytes < matrix %d", c.Stats().ReadBytes, a.MemoryBytes())
	}
}

// TestFBTraceBackwardOrder keeps simulator and kernel the same program:
// core.fbBackward1 walks rows and each row's entries downward, so the
// backward sweep's reads of U's column indices and values must each be
// one strictly descending address stream — within every row and across
// rows.
func TestFBTraceBackwardOrder(t *testing.T) {
	spec, err := matgen.ByName("pwtk")
	if err != nil {
		t.Fatal(err)
	}
	tri, err := sparse.Split(spec.Generate(1e-4, 1))
	if err != nil {
		t.Fatal(err)
	}
	// TraceFBMPK places L, then U, first.
	var l layout
	placeCSR(&l, tri.L)
	rU := placeCSR(&l, tri.U)
	nnz := len(tri.U.Val)
	var ci, val []uint64
	c := tinyCache(t, 4096, 4)
	c.tap = func(addr uint64, write bool) {
		switch {
		case addr >= rU.colIdx && addr < rU.colIdx+uint64(nnz)*4:
			ci = append(ci, addr)
		case addr >= rU.val && addr < rU.val+uint64(nnz)*8:
			val = append(val, addr)
		}
	}
	// k = 2: head (U ascending), one forward sweep, one backward sweep.
	TraceFBMPK(c, tri, 2, true)
	for name, seq := range map[string][]uint64{"ColIdx": ci, "Val": val} {
		if len(seq) != 2*nnz {
			t.Fatalf("U.%s read %d times, want head + backward = %d", name, len(seq), 2*nnz)
		}
		back := seq[nnz:]
		for j := 1; j < len(back); j++ {
			if back[j] >= back[j-1] {
				t.Fatalf("U.%s backward read %d at %#x follows %#x: not descending", name, j, back[j], back[j-1])
			}
		}
	}
}
