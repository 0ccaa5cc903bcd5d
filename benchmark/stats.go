package main

import (
	"math"
	"sort"
)

// summary is how every timing is reported: the median, the quartiles
// (so a comparator can state the spread), the sample count, and the
// highest percentile that still has at least ten samples beyond it —
// a p99 read off 40 samples is one outlier, not a tail.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	// HiPct is 0 when no percentile above the median is supported.
	HiPct float64 `json:"hi_pct,omitempty"`
	Hi    float64 `json:"hi,omitempty"`
}

// tailPerMille are the candidates for summary.HiPct (p99.9, p99, p95,
// p90, p75), highest first, in tenths of a percent so the sample
// arithmetic is exact.
var tailPerMille = []int{999, 990, 950, 900, 750}

// supportedTail returns the highest candidate percentile with at least
// ten samples beyond it, 0 if n is too small for any.
func supportedTail(n int) float64 {
	for _, pm := range tailPerMille {
		if n*(1000-pm) >= 10*1000 {
			return float64(pm) / 10
		}
	}
	return 0
}

// percentile reads the p-th percentile off sorted samples by linear
// interpolation between closest ranks.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func summarize(samples []float64) summary {
	if len(samples) == 0 {
		return summary{Median: math.NaN(), Q1: math.NaN(), Q3: math.NaN(), Min: math.NaN(), Max: math.NaN()}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	out := summary{
		N:      len(s),
		Median: percentile(s, 50),
		Q1:     percentile(s, 25),
		Q3:     percentile(s, 75),
		Min:    s[0],
		Max:    s[len(s)-1],
	}
	if p := supportedTail(len(s)); p > 0 {
		out.HiPct, out.Hi = p, percentile(s, p)
	}
	return out
}

func median(samples []float64) float64 { return summarize(samples).Median }

// runBlocks is how many contiguous blocks a run's samples of one op
// are cut into for bestBlock.
const runBlocks = 8

// blockOf says which of runBlocks blocks sample i of n falls into.
func blockOf(i, n int) int { return i * min(runBlocks, n) / n }

// bestBlock is how a run's samples of one op become its one value: cut
// them, in the order they were measured, into runBlocks contiguous
// blocks and take the best block median — the lowest, or the highest
// for a higher-is-better metric. With fewer samples than blocks that is
// the best sample.
//
// The reference host is a shared VM whose interference comes in
// stretches of seconds to minutes and only ever adds time. The median
// of a whole run moves with however much of the run was disturbed (its
// run-to-run spread reached 12-23 % in a noisy hour); the best block
// median needs one quiet eighth of the run, and unlike a plain minimum
// it is not an extreme value of a thousand samples.
func bestBlock(samples []float64, higherIsBetter bool) float64 {
	n := len(samples)
	best := math.NaN()
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && blockOf(hi, n) == blockOf(lo, n) {
			hi++
		}
		m := median(samples[lo:hi])
		if lo == 0 || (higherIsBetter && m > best) || (!higherIsBetter && m < best) {
			best = m
		}
		lo = hi
	}
	return best
}

// sampleSet collects named timing samples of one run.
type sampleSet map[string][]float64

func (s sampleSet) add(name string, v float64) { s[name] = append(s[name], v) }
