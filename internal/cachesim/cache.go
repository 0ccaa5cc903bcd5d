// Package cachesim is the memory-traffic measurement substrate.
//
// The paper's Fig 9 measures DRAM read+write volume with LIKWID
// hardware counters. Hardware counters are not available here
// (and Go offers no portable access to them), so this package replays
// the kernels' exact memory reference streams through a set-associative
// write-allocate write-back LRU cache and counts the line fills and
// dirty write-backs — which is precisely the quantity the memory
// controller counters report. In an inclusive hierarchy DRAM traffic
// is determined by the last-level cache alone, so a single simulated
// LLC suffices.
package cachesim

import "fmt"

// Config describes the simulated last-level cache.
type Config struct {
	SizeBytes int64 // total capacity
	Assoc     int   // ways per set
	LineBytes int64 // cache line size
}

// Validate checks that the geometry is consistent (power-of-two line
// size, size divisible into sets).
func (c Config) Validate() error {
	if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cachesim: line size %d not a positive power of two", c.LineBytes)
	}
	if c.Assoc <= 0 {
		return fmt.Errorf("cachesim: associativity %d not positive", c.Assoc)
	}
	if c.SizeBytes <= 0 || c.SizeBytes%(c.LineBytes*int64(c.Assoc)) != 0 {
		return fmt.Errorf("cachesim: size %d not divisible by assoc*line", c.SizeBytes)
	}
	return nil
}

// Platform presets with the last-level capacities of Table I.
// FT 2000+ has no L3; its 2MB L2 is the last level before DRAM.
var (
	ConfigXeon      = Config{SizeBytes: 37_486_592, Assoc: 11, LineBytes: 64} // 35.75 MiB
	ConfigKP920     = Config{SizeBytes: 64 << 20, Assoc: 16, LineBytes: 64}
	ConfigThunderX2 = Config{SizeBytes: 32 << 20, Assoc: 16, LineBytes: 64}
	ConfigFT2000    = Config{SizeBytes: 2 << 20, Assoc: 16, LineBytes: 64}
)

// ScaledConfig builds an LLC whose capacity preserves the paper's
// working-set-to-cache ratio for a scaled-down matrix: the suite
// matrices are hundreds of MB against a 35.75MB Xeon LLC, so replaying
// a small matrix against the full-size cache would make everything
// resident and hide the reuse effect Fig 9 measures. Capacity is
// rounded to a valid geometry and floored at 64 sets.
func ScaledConfig(matrixBytes int64, ratio float64) Config {
	if ratio <= 0 {
		ratio = 8
	}
	c := Config{Assoc: 8, LineBytes: 64}
	setBytes := c.LineBytes * int64(c.Assoc)
	sets := int64(float64(matrixBytes) / ratio / float64(setBytes))
	if sets < 64 {
		sets = 64
	}
	// Round sets down to a power of two for fast indexing.
	p := int64(1)
	for p*2 <= sets {
		p *= 2
	}
	c.SizeBytes = p * setBytes
	return c
}

// Stats aggregates the traffic counters of a simulation run.
type Stats struct {
	Hits       int64
	Misses     int64
	ReadBytes  int64 // DRAM -> cache line fills
	WriteBytes int64 // cache -> DRAM dirty write-backs
}

// TotalDRAM returns read+write DRAM volume, the Fig 9 metric.
func (s Stats) TotalDRAM() int64 { return s.ReadBytes + s.WriteBytes }

type line struct {
	tag   uint64
	ts    int64
	valid bool
	dirty bool
}

// Cache is a single-level set-associative LRU cache with
// write-allocate and write-back policy.
type Cache struct {
	cfg       Config
	sets      [][]line
	numSets   uint64
	setMask   uint64 // numSets-1 when numSets is a power of two, else 0
	pow2      bool
	lineShift uint
	clock     int64
	stats     Stats
	tap       func(addr uint64, write bool) // tests observe the replayed address stream
}

// New builds a cache; the configuration must validate. Power-of-two
// set counts index with a mask; other geometries (e.g. the 11-way
// Xeon LLC) fall back to modulo indexing.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	numSets := cfg.SizeBytes / (cfg.LineBytes * int64(cfg.Assoc))
	c := &Cache{cfg: cfg, sets: make([][]line, numSets), numSets: uint64(numSets)}
	if numSets&(numSets-1) == 0 {
		c.pow2 = true
		c.setMask = uint64(numSets - 1)
	}
	for i := range c.sets {
		c.sets[i] = make([]line, cfg.Assoc)
	}
	shift := uint(0)
	for l := cfg.LineBytes; l > 1; l >>= 1 {
		shift++
	}
	c.lineShift = shift
	return c, nil
}

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// Read replays a read of size bytes at addr.
func (c *Cache) Read(addr uint64, size int64) { c.access(addr, size, false) }

// Write replays a write of size bytes at addr.
func (c *Cache) Write(addr uint64, size int64) { c.access(addr, size, true) }

func (c *Cache) access(addr uint64, size int64, write bool) {
	if c.tap != nil {
		c.tap(addr, write)
	}
	first := addr >> c.lineShift
	last := (addr + uint64(size) - 1) >> c.lineShift
	for ln := first; ln <= last; ln++ {
		c.touchLine(ln, write)
	}
}

func (c *Cache) touchLine(lineAddr uint64, write bool) {
	c.clock++
	var idx uint64
	if c.pow2 {
		idx = lineAddr & c.setMask
	} else {
		idx = lineAddr % c.numSets
	}
	set := c.sets[idx]
	tag := lineAddr // full line address as tag; set bits redundant but harmless
	victim := 0
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			c.stats.Hits++
			set[i].ts = c.clock
			if write {
				set[i].dirty = true
			}
			return
		}
		if !set[i].valid {
			victim = i
		} else if set[victim].valid && set[i].ts < set[victim].ts {
			victim = i
		}
	}
	// Miss: fill from DRAM (write-allocate), evicting the LRU way.
	c.stats.Misses++
	c.stats.ReadBytes += c.cfg.LineBytes
	if set[victim].valid && set[victim].dirty {
		c.stats.WriteBytes += c.cfg.LineBytes
	}
	set[victim] = line{tag: tag, ts: c.clock, valid: true, dirty: write}
}

// Flush writes back all dirty lines, counting them as DRAM writes —
// call at the end of a kernel so resident dirty output is accounted,
// mirroring what the memory controller eventually sees.
func (c *Cache) Flush() {
	for i := range c.sets {
		for j := range c.sets[i] {
			if c.sets[i][j].valid && c.sets[i][j].dirty {
				c.stats.WriteBytes += c.cfg.LineBytes
				c.sets[i][j].dirty = false
			}
		}
	}
}
