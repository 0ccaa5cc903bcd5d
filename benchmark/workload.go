package main

import (
	"fmt"
	"math"
	"runtime/debug"
	"time"
)

const reportSchema = "fbmpk-benchmark/1"

type runOptions struct {
	spec    workloadSpec
	seed    uint64
	seconds float64
	trace   bool
	smoke   bool
	outDir  string
}

type matrixInfo struct {
	Name     string  `json:"name"`
	Scale    float64 `json:"scale"`
	Rows     int     `json:"rows"`
	NNZ      int     `json:"nnz"`
	CSRBytes int64   `json:"csr_bytes"`
}

// metricValue is one reported metric of one run. Within summarises the
// samples behind Value when it is a median of many (absent for counts
// and single measurements).
type metricValue struct {
	metricDef
	Value  float64  `json:"value"`
	Within *summary `json:"within,omitempty"`
}

// runReport is everything one run of one workload produced.
type runReport struct {
	Schema   string   `json:"schema"`
	Workload string   `json:"workload"`
	Why      string   `json:"why"`
	Seed     uint64   `json:"seed"`
	Trace    bool     `json:"trace"`
	Smoke    bool     `json:"smoke,omitempty"`
	Host     hostInfo `json:"host"`
	// Matrix is the subject; StandIn the bed of the legs the workload
	// is not about (absent on serve-vec, whose subject is that matrix).
	Matrix  matrixInfo  `json:"matrix"`
	StandIn *matrixInfo `json:"stand_in_matrix,omitempty"`
	// LLCRatio is subject CSR bytes over the LLC. Below 4 the matrix is
	// not safely out of cache and NonProbative is set: its timings say
	// nothing about DRAM traffic.
	LLCRatio     float64       `json:"llc_ratio"`
	NonProbative bool          `json:"non_probative"`
	Attempted    int           `json:"attempted"`
	Failed       int           `json:"failed"`
	Failures     []string      `json:"failures,omitempty"`
	Metrics      []metricValue `json:"metrics"`
	TraceFile    string        `json:"trace_file,omitempty"`
	WallS        float64       `json:"wall_s"`
}

func describe(b *bed) matrixInfo {
	return matrixInfo{Name: b.matrix, Scale: b.scale, Rows: b.a.Rows, NNZ: len(b.a.Val), CSRBytes: b.a.MemoryBytes()}
}

// phase is one bed of a run with the legs that run on it. A run is a
// sequence of phases and beds are never co-resident: with the 1.1 GB
// matrix (or any large live heap) in the process the Go collector runs
// so rarely that an allocation-heavy leg faults in fresh pages on every
// op, which doubled the stand-in's request tail. The stand-in phase
// goes first, so its conditions — a fresh process — are the same in
// every workload.
type phase struct {
	matrix  string
	scale   float64
	threads int
	seeds   int
	legs    bedNeeds
	subject bool
}

func phases(w workloadSpec) []phase {
	on := w.OnSubject
	subject := phase{w.Matrix, w.Scale, w.Threads, w.BuildSeeds, on, true}
	rest := bedNeeds{lib: !on.lib, registry: !on.registry, http: !on.http}
	if rest == (bedNeeds{}) {
		return []phase{subject}
	}
	seeds := 1 // cold builds belong to the registry leg; without it one matrix is enough
	if rest.registry {
		seeds = standInSeeds
	}
	return []phase{{standInMatrix, w.StandInScale, standInThreads, seeds, rest, false}, subject}
}

// setUp runs the set-up of one phase reps times, keeping the last bed,
// and adds each repetition's duration to setupS[i].
func (p phase) setUp(r *run, seed uint64, setupS []float64) (*bed, error) {
	var b *bed
	for i := range setupS {
		if b != nil {
			b.close()
		}
		start := time.Now()
		var err error
		if b, err = newBed(r, p.matrix, p.scale, seed, p.threads, p.seeds, p.legs); err != nil {
			return nil, err
		}
		setupS[i] += time.Since(start).Seconds()
	}
	return b, nil
}

// legCounts are the count caps of one pass over a phase's legs.
type legCounts struct{ libWarm, libCycles, regRounds, httpWarm, httpTimed int }

// runLegs runs the legs of the phase on its bed, in the fixed order
// library, registry, HTTP.
func (p phase) runLegs(r *run, b *bed, tr *tracer, ids *opIDs, c legCounts, budget time.Duration) {
	if p.legs.lib {
		libLeg(r, b, tr, ids, c.libWarm, c.libCycles, budget)
	}
	if p.legs.registry {
		registryLeg(r, b, tr, ids, c.regRounds, budget)
	}
	if p.legs.http {
		recordHTTP(r, httpLeg(r, b, tr, ids, c.httpWarm, c.httpTimed, budget))
	}
}

// tearDown closes a phase's bed and hands its memory back, so the next
// phase starts from a small heap.
func tearDown(r *run, b *bed, rep *runReport, p phase) {
	b.checkRegistry(r)
	m := describe(b)
	if p.subject {
		rep.Matrix = m
	} else {
		rep.StandIn = &m
	}
	b.close()
	debug.FreeOSMemory()
}

func budget(o runOptions) time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

// runWorkload executes one run: the end-to-end measurement with spans
// off, or (trace) the traced pass with the per-layer probes.
func runWorkload(o runOptions) (*runReport, error) {
	began := time.Now()
	rep := &runReport{Schema: reportSchema, Workload: o.spec.Name, Why: o.spec.Why, Seed: o.seed,
		Trace: o.trace, Smoke: o.smoke, Host: probeCaches()}
	r := newRun()
	var err error
	if o.trace {
		err = tracedRun(r, o, rep)
	} else {
		err = endToEndRun(r, o, rep)
	}
	if err != nil {
		return nil, err
	}
	rep.LLCRatio = float64(rep.Matrix.CSRBytes) / float64(rep.Host.LLC)
	rep.NonProbative = rep.LLCRatio < 4
	rep.Attempted, rep.Failed, rep.Failures = r.attempted, r.failed, r.failures
	rep.WallS = time.Since(began).Seconds()
	return rep, nil
}

func endToEndRun(r *run, o runOptions, rep *runReport) error {
	w := o.spec
	setupS := make([]float64, w.SetupReps)
	ids := &opIDs{}
	for _, p := range phases(w) {
		b, err := p.setUp(r, o.seed, setupS)
		if err != nil {
			return err
		}
		p.runLegs(r, b, nil, ids, legCounts{w.LibWarm, w.LibCycles, w.RegRounds, w.HTTPWarm, w.HTTPTimed}, budget(o))
		tearDown(r, b, rep, p)
	}
	r.samples["setup_s"] = setupS

	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.samples.add("peak_rss_mb", rss)
	for _, def := range endToEnd {
		mv := metricValue{metricDef: def}
		samples := r.samples[def.Name]
		mv.Value = median(samples)
		if def.Stat == statBestBlock {
			mv.Value = bestBlock(samples, def.Better == higher)
		}
		if len(samples) > 1 {
			sum := summarize(samples)
			mv.Within = &sum
		}
		if math.IsNaN(mv.Value) || mv.Value <= 0 {
			r.fail("metric %s has no positive value (%v)", def.Name, mv.Value)
		}
		rep.Metrics = append(rep.Metrics, mv)
	}
	return nil
}

// exitError is a failed run: the report was printed, the exit code
// must still be non-zero.
type exitError struct{ failed int }

func (e exitError) Error() string { return fmt.Sprintf("%d operations failed", e.failed) }
