package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"
)

// hostInfo is the context every report carries: the cache sizes that
// decide whether a matrix is out of cache, and (traced runs only — it
// costs seconds) the STREAM-triad bandwidth the kernels are normalised
// against.
type hostInfo struct {
	NProc int   `json:"nproc"`
	L2    int64 `json:"l2_bytes"`
	LLC   int64 `json:"llc_bytes"`
	// CacheSource says where L2/LLC came from: "sysfs" or "fallback".
	CacheSource string `json:"cache_source"`
	// TriadGBs uses NProc goroutines (the host ceiling); Triad1GBs one
	// (what a serial kernel can reach). 0 when the triad did not run.
	TriadGBs       float64 `json:"triad_gbs,omitempty"`
	Triad1GBs      float64 `json:"triad1_gbs,omitempty"`
	TriadArrayByte int64   `json:"triad_array_bytes,omitempty"`
}

// Fallback cache sizes when sysfs is unreadable (non-Linux, masked
// /sys): a typical server core's 1 MiB L2 and a 32 MiB LLC. A wrong
// guess only mis-sizes the triad arrays and the llc_ratio flag; the
// report says which source was used.
const (
	fallbackL2  = 1 << 20
	fallbackLLC = 32 << 20
)

// readCacheSizes reads cpu0's unified/data caches from sysfs: L2 is
// the level-2 size, LLC the size of the highest level present.
func readCacheSizes() (l2, llc int64, source string) {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	topLevel := 0
	for _, d := range dirs {
		typ, err := os.ReadFile(filepath.Join(d, "type"))
		if err != nil || strings.TrimSpace(string(typ)) == "Instruction" {
			continue
		}
		lvlRaw, err1 := os.ReadFile(filepath.Join(d, "level"))
		sizeRaw, err2 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil {
			continue
		}
		lvl, err := strconv.Atoi(strings.TrimSpace(string(lvlRaw)))
		size := parseCacheSize(strings.TrimSpace(string(sizeRaw)))
		if err != nil || size <= 0 {
			continue
		}
		if lvl == 2 {
			l2 = size
		}
		if lvl > topLevel {
			topLevel, llc = lvl, size
		}
	}
	if l2 <= 0 || llc <= 0 {
		return fallbackL2, fallbackLLC, "fallback"
	}
	return l2, llc, "sysfs"
}

// parseCacheSize parses sysfs cache sizes such as "2048K" or "260M".
func parseCacheSize(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "G"):
		mult, s = 1<<30, strings.TrimSuffix(s, "G")
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0
	}
	return v * mult
}

func probeCaches() hostInfo {
	l2, llc, src := readCacheSizes()
	return hostInfo{NProc: runtime.GOMAXPROCS(0), L2: l2, LLC: llc, CacheSource: src}
}

// triad runs a[i] = b[i] + s*c[i] over three arrays of elems float64
// each on `threads` goroutines and returns the best-of-reps bandwidth
// in GB/s, counting the STREAM convention of 24 bytes per element.
func triad(a, b, c []float64, threads, reps int) float64 {
	best := 0.0
	for r := 0; r < reps; r++ {
		var wg sync.WaitGroup
		start := time.Now()
		for t := 0; t < threads; t++ {
			lo, hi := t*len(a)/threads, (t+1)*len(a)/threads
			wg.Add(1)
			go func() {
				defer wg.Done()
				x, y, z := a[lo:hi], b[lo:hi], c[lo:hi]
				for i := range x {
					x[i] = y[i] + 3.0*z[i]
				}
			}()
		}
		wg.Wait()
		if gbs := 24 * float64(len(a)) / time.Since(start).Seconds() / 1e9; gbs > best {
			best = gbs
		}
	}
	return best
}

// probeTriad measures the host's sustainable bandwidth with three
// arrays of arrayBytes each (4 x LLC outside smoke runs), then returns
// the memory to the OS before the workload's set-up starts.
func (h *hostInfo) probeTriad(arrayBytes int64) {
	elems := int(arrayBytes / 8)
	a, b, c := make([]float64, elems), make([]float64, elems), make([]float64, elems)
	for i := range b {
		b[i], c[i] = 1.5, 0.25
	}
	h.TriadArrayByte = int64(elems) * 8
	h.Triad1GBs = triad(a, b, c, 1, 3)
	h.TriadGBs = triad(a, b, c, h.NProc, 3)
	if a[elems/2] != 2.25 {
		panic("hostprobe: triad produced a wrong value")
	}
	a, b, c = nil, nil, nil
	debug.FreeOSMemory()
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}
