package main

import "fmt"

// K is the power every MPK in the benchmark computes, and coeffCount
// the SSpMV polynomial length (degree K).
const (
	K          = 6
	coeffCount = K + 1
	// multiRHS is the block width of the MPKMulti op.
	multiRHS = 4
	// vectorPool is how many seeded start vectors a bed carries; the
	// HTTP clients rotate through all of them, the library leg through
	// the first multiRHS.
	vectorPool = 8
	// httpClients is the closed-loop client count of the HTTP leg; it
	// never exceeds nproc on the 2-vCPU reference host.
	httpClients = 2
	// acquiresPerRound is how many hit-acquire+MPK+release ops run
	// between two value updates in the registry leg.
	acquiresPerRound = 8
	// registryCapacity is small enough that the cold builds of a
	// set-up overflow it, so eviction runs beside the builds.
	registryCapacity = 4
	// cachesimMatrix/cachesimScale is the matrix the cache simulator
	// replays: small enough to simulate in a second, against a simulated
	// cache an eighth of its size.
	cachesimMatrix = "pwtk"
	cachesimScale  = 0.01
)

// The stand-in bed carries the legs a workload is not about. Every
// run reports every end-to-end metric (the driver contract), but a
// workload's own matrix is the wrong place for most of them: a
// full-vector request on the 1.1 GB matrix is 35 MB of JSON, and
// serial kernels on the 28 MB LLC-resident one drift by 10 % between
// runs. So each workload runs its subject leg on its subject matrix and
// the other legs on this one 5 MB matrix, where every leg repeats to
// within 1-4 % (it is serve-vec's subject). Those cells are a control
// group: they should read the same in every workload and never move
// with a change aimed at the subject.
const (
	standInMatrix  = "G3_circuit"
	standInScale   = 0.05
	standInSeeds   = 9
	standInThreads = 1
)

// workloadSpec fixes one workload: its subject matrix and legs, thread
// count, and the count caps of every leg. Sizes never change with
// --seconds; only cycle counts are cut when the time cap binds.
type workloadSpec struct {
	Name string
	Why  string

	// Matrix/Scale is the subject matrix, OnSubject the legs that run
	// on it; the others run on the stand-in bed.
	Matrix    string
	Scale     float64
	OnSubject bedNeeds
	// Threads is the worker count of the plans the registry and HTTP
	// legs build on the subject matrix. The library leg always runs
	// serial plans.
	Threads int
	// BuildSeeds is how many fresh-structure matrices one set-up of the
	// subject bed builds cold (one FB and one level-blocked plan each)
	// through registry misses. The last one is the bed's matrix.
	BuildSeeds int
	// StandInScale is standInScale except in smoke runs.
	StandInScale float64
	// SubjectOps names the timing samples of the subject leg; the
	// tracing overhead is taken over them.
	SubjectOps []string

	// SetupReps repeats the whole set-up; setup_s is the median.
	SetupReps int

	LibWarm, LibCycles  int // library leg: cycles of {std, fb, lb, multi, sspmv}
	RegRounds           int // registry leg: rounds of {8 acquire+MPK+release, 1 UpdateValues}
	HTTPWarm, HTTPTimed int // HTTP leg: requests per client
	TracedCycles        int // library cycles per pass of a traced run (four passes: off, on, on, off)
	TracedRounds        int // registry rounds per pass of a traced run
	TracedHTTP          int // requests per client per pass of a traced run
	ProbeReps           int // repetitions of each per-layer probe on the registry bed
}

// Counts of a leg that runs on the stand-in bed.
const (
	standInLibWarm, standInLibCycles = 4, 40
	standInRounds                    = 12
	standInHTTPWarm, standInHTTP     = 8, 80
)

// libOps are the library leg's timing samples, in cycle order.
var libOps = []string{"std_mpk_ms", "fb_mpk_ms", "lb_mpk_ms", "multi_mpk_ms", "sspmv_ms"}

func workloads() []workloadSpec {
	return []workloadSpec{
		{
			Name:   "mpk-dram",
			Why:    "1.1 GB matrix, over 4x the LLC: the only regime where the paper's reads-of-A saving can move wall clock; kernel sweeps are nearly all the time",
			Matrix: "pwtk", Scale: 8.0, OnSubject: bedNeeds{lib: true}, Threads: 1, BuildSeeds: 1, StandInScale: standInScale,
			SubjectOps: libOps, SetupReps: 1,
			// No warm-up cycle: it would cost 6 s, and first-touch of the
			// pooled workspaces is under 5 % of one 1 s op in one of 5 samples.
			LibWarm: 0, LibCycles: 7,
			RegRounds: standInRounds, HTTPWarm: standInHTTPWarm, HTTPTimed: standInHTTP,
			TracedCycles: 1, TracedRounds: 4, TracedHTTP: 30, ProbeReps: 10,
		},
		{
			Name:   "mpk-cache",
			Why:    "same kernels on a 1.3 MB L2-resident matrix: DRAM taken away, so per-call overhead and instruction count dominate; a traffic optimisation must predict no change here",
			Matrix: "pwtk", Scale: 0.01, OnSubject: bedNeeds{lib: true}, Threads: 1, BuildSeeds: 1, StandInScale: standInScale,
			SubjectOps: libOps, SetupReps: 3,
			LibWarm: 50, LibCycles: 1000,
			RegRounds: standInRounds, HTTPWarm: standInHTTPWarm, HTTPTimed: standInHTTP,
			TracedCycles: 150, TracedRounds: 4, TracedHTTP: 30, ProbeReps: 10,
		},
		{
			Name:   "serve-vec",
			Why:    "full-vector /v1/mpk round trips on a 5 MB low-nnz/row matrix with 2 closed-loop clients: JSON float codec and registry fingerprint are most of a request, the kernel about a sixth",
			Matrix: standInMatrix, Scale: standInScale, OnSubject: bedNeeds{lib: true, registry: true, http: true},
			Threads: standInThreads, BuildSeeds: standInSeeds, StandInScale: standInScale,
			SubjectOps: []string{"req_ms"}, SetupReps: 3,
			LibWarm: standInLibWarm, LibCycles: standInLibCycles,
			RegRounds: standInRounds, HTTPWarm: 10, HTTPTimed: 120,
			TracedCycles: 10, TracedRounds: 4, TracedHTTP: 30, ProbeReps: 10,
		},
		{
			Name:   "plan-churn",
			Why:    "11 cold 2-thread builds through a capacity-4 registry, then hit-acquires beside value updates on a 28 MB LLC-resident matrix: a read-path gain bought with update or build cost shows here",
			Matrix: "pwtk", Scale: 0.2, OnSubject: bedNeeds{registry: true}, Threads: 2, BuildSeeds: 11, StandInScale: standInScale,
			SubjectOps: []string{"acquire_exec_ms", "update_ms"}, SetupReps: 1,
			LibWarm: standInLibWarm, LibCycles: standInLibCycles,
			RegRounds: 12, HTTPWarm: standInHTTPWarm, HTTPTimed: standInHTTP,
			TracedCycles: 10, TracedRounds: 3, TracedHTTP: 30, ProbeReps: 8,
		},
	}
}

// smoke shrinks a workload to about a second: tiny matrices, a handful
// of cycles. It exercises every code path; its numbers mean nothing.
func (w workloadSpec) smoke() workloadSpec {
	w.Scale = map[string]float64{"pwtk": 0.004, "G3_circuit": 0.002}[w.Matrix]
	w.StandInScale = 0.002
	w.SetupReps, w.BuildSeeds = 1, min(w.BuildSeeds, 3)
	w.LibWarm, w.LibCycles = 1, 12
	w.RegRounds = 3
	w.HTTPWarm, w.HTTPTimed = 2, 12
	w.TracedCycles, w.TracedRounds, w.TracedHTTP = 2, 1, 4
	w.ProbeReps = 3
	return w
}

func findWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

// metricDef names one metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change
// counts as a regression; per-layer metrics carry none. Moves says
// which end-to-end metric a per-layer metric is expected to move, on
// which workload — written down before anything was measured.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Stat is how a run's samples become its one value: "best_block"
	// (see bestBlock) or "median"; empty for single measurements and
	// counts.
	Stat  string `json:"stat,omitempty"`
	Layer string `json:"layer,omitempty"`
	Moves string `json:"moves,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"

	statBestBlock = "best_block"
	statMedian    = "median"
)

// endToEnd is what a user of the system sees. Every workload reports
// every one of them (the driver contract); the README table says which
// workload is the subject of which metric.
//
// A run's value for a per-op timing is its best block median (see
// bestBlock), not the median of the whole run; req_p50_ms and req_per_s
// are the best block's median latency and rate. Every report carries
// the median, quartiles and tail percentile of the same samples beside
// it.
//
// Bounds are two to three times the widest run-to-run spread
// (interquartile range over median of ten runs) any workload showed on
// the reference host, capped at the contract's 0.25.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25, Stat: statMedian},
	{Name: "peak_rss_mb", Unit: "MB", Better: lower, Bound: 0.10},
	{Name: "std_mpk_ms", Unit: "ms", Better: lower, Bound: 0.25, Stat: statBestBlock},
	{Name: "fb_mpk_ms", Unit: "ms", Better: lower, Bound: 0.25, Stat: statBestBlock},
	{Name: "lb_mpk_ms", Unit: "ms", Better: lower, Bound: 0.25, Stat: statBestBlock},
	{Name: "multi_mpk_ms", Unit: "ms", Better: lower, Bound: 0.25, Stat: statBestBlock},
	{Name: "sspmv_ms", Unit: "ms", Better: lower, Bound: 0.25, Stat: statBestBlock},
	{Name: "build_fb_ms", Unit: "ms", Better: lower, Bound: 0.25, Stat: statBestBlock},
	{Name: "build_lb_ms", Unit: "ms", Better: lower, Bound: 0.25, Stat: statBestBlock},
	{Name: "acquire_exec_ms", Unit: "ms", Better: lower, Bound: 0.25, Stat: statBestBlock},
	{Name: "update_ms", Unit: "ms", Better: lower, Bound: 0.25, Stat: statBestBlock},
	{Name: "req_p50_ms", Unit: "ms", Better: lower, Bound: 0.25, Stat: statBestBlock},
	{Name: "req_per_s", Unit: "1/s", Better: higher, Bound: 0.25, Stat: statBestBlock},
}

func pl(layer, name, unit, better, moves string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, Layer: layer, Moves: moves}
}

// perLayer is measured in the traced run. The Moves text is the
// metric-interaction table of the README in machine-readable form.
var perLayer = []metricDef{
	pl("host", "host.triad_gbs", "GB/s", higher, "context: bandwidth ceiling, all cores"),
	pl("host", "host.triad1_gbs", "GB/s", higher, "context: bandwidth one serial kernel can reach"),
	pl("host", "host.llc_mb", "MB", higher, "context"),
	pl("host", "host.l2_kb", "KB", higher, "context"),
	pl("host", "host.nproc", "count", higher, "context"),
	pl("host", "host.llc_ratio", "ratio", higher, "context: subject CSR bytes / LLC; < 4 flags the workload non_probative for DRAM claims"),

	pl("matgen", "matgen.generate_s", "s", lower, "setup_s everywhere"),

	pl("sparse", "sparse.spmv_ms", "ms", lower, "std_mpk_ms (about K times) on mpk-dram, mpk-cache"),
	pl("sparse", "sparse.spmv_gbs", "GB/s", higher, "std_mpk_ms on mpk-dram (computed bytes)"),
	pl("sparse", "sparse.spmv_frac_triad", "ratio", higher, "std_mpk_ms on mpk-dram"),
	pl("sparse", "sparse.split_ms", "ms", lower, "build_fb_ms on plan-churn; setup_s on mpk-dram"),
	pl("sparse", "sparse.sell_spmv_ms", "ms", lower, "none today (ROADMAP 3 SELL re-measurement)"),
	pl("sparse", "sparse.bsr_spmv_ms", "ms", lower, "none today (ROADMAP 3)"),

	pl("reorder", "reorder.rcm_ms", "ms", lower, "none by default (PreRCM is off); build_fb_ms if enabled"),
	pl("reorder", "reorder.perm_ms", "ms", lower, "build_fb_ms, build_lb_ms on plan-churn"),
	pl("reorder", "reorder.abmc_ms", "ms", lower, "build_fb_ms on plan-churn"),
	pl("graph", "graph.blockgraph_ms", "ms", lower, "build_fb_ms on plan-churn"),
	pl("graph", "graph.color_ms", "ms", lower, "build_fb_ms on plan-churn"),
	pl("reorder", "reorder.abmc_colors", "count", lower, "barriers per sweep, so core.fb.t2_mpk_ms"),

	pl("parallel", "parallel.run_us", "us", lower, "core.*.t2_mpk_ms; acquire_exec_ms on plan-churn; nothing on serial plans"),
	pl("parallel", "parallel.fb.wait_share", "ratio", lower, "core.fb.t2_mpk_ms; acquire_exec_ms on plan-churn"),

	pl("core", "core.std.t2_mpk_ms", "ms", lower, "none gated (2-thread medians drift between processes)"),
	pl("core", "core.fb.t2_mpk_ms", "ms", lower, "acquire_exec_ms on plan-churn"),
	pl("core", "core.lb.t2_mpk_ms", "ms", lower, "none gated"),
	pl("core", "core.fb.nobtb_mpk_ms", "ms", lower, "BtB ablation: differs from fb_mpk_ms on mpk-dram, about equal on mpk-cache"),
	pl("core", "core.std.reads_per_spmv", "ratio", lower, "exact counter: 1 for the standard engine"),
	pl("core", "core.fb.reads_per_spmv", "ratio", lower, "exact counter: about (K+1)/2K = 7/12; fb_mpk_ms on mpk-dram only"),
	pl("core", "core.lb.reads_per_spmv", "ratio", lower, "exact counter (cache-level reads; the DRAM saving is cachesim.lb_dram_ratio)"),
	pl("core", "core.multi.reads_per_spmv", "ratio", lower, "exact counter: fb / 4; multi_mpk_ms on mpk-dram only"),
	pl("core", "core.std.gbs", "GB/s", higher, "std_mpk_ms on mpk-dram (computed bytes)"),
	pl("core", "core.fb.gbs", "GB/s", higher, "fb_mpk_ms on mpk-dram (computed bytes)"),
	pl("core", "core.lb.gbs", "GB/s", higher, "lb_mpk_ms on mpk-dram (computed bytes)"),
	pl("core", "core.fb.frac_triad", "ratio", higher, "fb_mpk_ms on mpk-dram"),
	pl("core", "core.fb.speedup", "ratio", higher, "std_mpk_ms / fb_mpk_ms; meaningful on mpk-dram only"),
	pl("core", "core.lb.speedup", "ratio", higher, "std_mpk_ms / lb_mpk_ms; meaningful on mpk-dram only"),
	pl("core", "core.mpk_k1_overhead_us", "us", lower, "every *_mpk_ms on mpk-cache; about 0 on mpk-dram"),
	pl("core", "core.admission_us", "us", lower, "every *_mpk_ms on mpk-cache"),
	pl("core", "core.epoch_us", "us", lower, "every *_mpk_ms on mpk-cache (epoch pin, cancel bridge, workspace loan)"),
	pl("core", "core.execute_ms", "ms", lower, "fb_mpk_ms everywhere"),
	pl("core", "core.allocs_per_mpk", "count", lower, "every *_mpk_ms on mpk-cache"),
	pl("core", "core.bytes_per_mpk", "B", lower, "every *_mpk_ms on mpk-cache; peak_rss_mb"),
	pl("core", "core.symgs_ms", "ms", lower, "none today (solve path)"),
	pl("core", "core.update_values_ms", "ms", lower, "update_ms"),
	pl("core", "core.lb.levels", "count", lower, "build_lb_ms, lb_mpk_ms"),
	pl("core", "core.lb.blocks", "count", lower, "build_lb_ms, lb_mpk_ms"),
	pl("core", "core.tune.auto_build_ms", "ms", lower, "none today (ROADMAP 5)"),
	pl("core", "core.tune.auto_mpk_ms", "ms", lower, "none today (ROADMAP 5)"),
	pl("core", "core.tune.regret", "ratio", lower, "none today: auto / best forced engine"),

	pl("registry", "registry.fingerprint_ms", "ms", lower, "acquire_exec_ms, update_ms on plan-churn; req_p50_ms on serve-vec"),
	pl("registry", "registry.acquire_hit_ms", "ms", lower, "acquire_exec_ms on plan-churn; req_p50_ms on serve-vec"),
	pl("registry", "registry.acquire_miss_ms", "ms", lower, "build_fb_ms, build_lb_ms"),
	pl("registry", "registry.release_us", "us", lower, "acquire_exec_ms on plan-churn"),
	pl("registry", "registry.update_rekey_ms", "ms", lower, "update_ms (registry self time: fingerprints and re-key)"),
	pl("registry", "registry.hits", "count", higher, "exact"),
	pl("registry", "registry.misses", "count", lower, "exact"),
	pl("registry", "registry.builds", "count", lower, "exact"),
	pl("registry", "registry.updated", "count", higher, "exact"),
	pl("registry", "registry.rebuilt", "count", lower, "exact; must be 0"),
	pl("registry", "registry.evictions", "count", lower, "exact"),
	pl("registry", "registry.hit_ratio", "ratio", higher, "exact"),

	pl("serve", "serve.decode_ms", "ms", lower, "req_p50_ms, req_per_s on serve-vec"),
	pl("serve", "serve.encode_ms", "ms", lower, "req_p50_ms, req_per_s on serve-vec"),
	pl("serve", "serve.acquire_ms", "ms", lower, "req_p50_ms on serve-vec"),
	pl("serve", "serve.execute_ms", "ms", lower, "req_p50_ms on serve-vec (about a tenth of it)"),
	pl("serve", "serve.req_p95_ms", "ms", lower, "the request tail; not a gate: its run-to-run spread reached 23 %"),
	pl("serve", "serve.server_elapsed_ms", "ms", lower, "req_p50_ms on serve-vec"),
	pl("serve", "serve.transport_ms", "ms", lower, "req_p50_ms minus the replayed steps: HTTP, admission, obs, client read"),
	pl("serve", "serve.codec_share", "ratio", lower, "req_p50_ms on serve-vec"),
	pl("serve", "serve.checksum_req_ms", "ms", lower, "the same request with the codec bypassed"),
	pl("serve", "serve.req_kb", "KB", lower, "serve.decode_ms"),
	pl("serve", "serve.resp_kb", "KB", lower, "serve.encode_ms"),
	pl("serve", "serve.shed", "count", lower, "must be 0 in a closed loop of 2 clients"),

	pl("cachesim", "cachesim.fb_dram_ratio", "ratio", lower, "should agree in direction with core.fb.speedup on mpk-dram"),
	pl("cachesim", "cachesim.lb_dram_ratio", "ratio", lower, "should agree in direction with core.lb.speedup on mpk-dram"),

	pl("bench", "bench.trace_overhead_pct", "%", lower, "none: cost of the benchmark's own spans"),
}
