package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"fbmpk"
	"fbmpk/internal/cachesim"
	"fbmpk/internal/core"
	"fbmpk/internal/parallel"
	"fbmpk/internal/reorder"
	"fbmpk/internal/serve"
	"fbmpk/internal/sparse"
)

// The traced run measures each layer from outside: it times calls
// into the layer's public functions on the workload's matrix and reads
// the counters the program already exports (Plan.Metrics, Plan.Stats,
// Registry.Stats, request timelines). Nothing inside the program is
// instrumented by the benchmark.

// layerValues collects per-layer results; samples holds the ones that
// are medians of many so the report can carry their summary.
type layerValues struct {
	value   map[string]float64
	samples sampleSet
}

func (l *layerValues) set(name string, v float64) { l.value[name] = v }

// med stores the median of samples under name and returns it.
func (l *layerValues) med(name string, samples []float64) float64 {
	l.samples[name] = samples
	l.value[name] = median(samples)
	return l.value[name]
}

// spmvBytes is the computed traffic of one CSR SpMV: 12 bytes per
// stored entry (value + int32 column), the row pointers, and 16 bytes
// per row for one read of x and one write of y. Computed from array
// sizes — cache misses on x are not in it.
func spmvBytes(rows, nnz int) float64 {
	return 12*float64(nnz) + 8*float64(rows+1) + 16*float64(rows)
}

// engineCounters is what Plan.Metrics reported for one call.
type engineCounters struct {
	readsPerSpMV float64
	bytes        float64 // computed: streamed nonzeros plus per-sweep vector traffic
}

// counterCycle runs each library op once, reading Plan.Metrics around
// it, and doubles as the warm-up of the traced passes. The counters
// are exact: they repeat on every run of the same matrix.
func counterCycle(r *run, b *bed) map[string]engineCounters {
	ctx := context.Background()
	out := make(map[string]engineCounters)
	one := func(name string, p *fbmpk.Plan, call func() error) {
		before := p.Metrics()
		err := call()
		after := p.Metrics()
		if !r.check("counter cycle "+name, err) {
			return
		}
		nnz := float64(after.NnzStreamed - before.NnzStreamed)
		spmvs := float64(after.SpMVs - before.SpMVs)
		sweeps := float64(after.Sweeps - before.Sweeps)
		n := b.a.Rows
		out[name] = engineCounters{
			readsPerSpMV: nnz / float64(after.MatrixNnz) / spmvs,
			bytes:        12*nnz + sweeps*(8*float64(n+1)+16*float64(n)),
		}
	}
	x := b.xs[0]
	one("std", b.std, func() error { _, err := b.std.MPKCtx(ctx, x, K); return err })
	one("fb", b.fb, func() error { _, err := b.fb.MPKCtx(ctx, x, K); return err })
	one("lb", b.lb, func() error { _, err := b.lb.MPKCtx(ctx, x, K); return err })
	one("multi", b.fb, func() error { _, err := b.fb.MPKMultiCtx(ctx, b.xs[:multiRHS], K); return err })
	return out
}

func tracedRun(r *run, o runOptions, rep *runReport) error {
	w := o.spec
	arrayBytes := 4 * rep.Host.LLC
	if o.smoke {
		arrayBytes = 8 << 20
	}
	rep.Host.probeTriad(arrayBytes)
	l := &layerValues{value: map[string]float64{}, samples: sampleSet{}}
	h := rep.Host
	l.set("host.triad_gbs", h.TriadGBs)
	l.set("host.triad1_gbs", h.Triad1GBs)
	l.set("host.llc_mb", float64(h.LLC)/(1<<20))
	l.set("host.l2_kb", float64(h.L2)/(1<<10))
	l.set("host.nproc", float64(h.NProc))

	// Each phase runs its legs four times, never overlapping: spans
	// off, on, on, off, so that drift over the run cancels between the
	// two modes. The difference over the workload's subject ops is the
	// tracing overhead; the probes read the pooled samples.
	tr := newTracer()
	ids := &opIDs{}
	off, on := sampleSet{}, sampleSet{}
	for _, p := range phases(w) {
		b, err := p.setUp(r, o.seed, make([]float64, 1))
		if err != nil {
			return err
		}
		var counters map[string]engineCounters
		if p.legs.lib {
			counters = counterCycle(r, b)
		}
		for _, mode := range []struct {
			tr   *tracer
			into sampleSet
		}{{nil, off}, {tr, on}, {tr, on}, {nil, off}} {
			saved := r.samples
			r.samples = mode.into
			p.runLegs(r, b, mode.tr, ids, legCounts{0, w.TracedCycles, w.TracedRounds, 2, w.TracedHTTP}, budget(o))
			r.samples = saved
		}
		pooled := func(name string) []float64 { return append(append([]float64(nil), off[name]...), on[name]...) }

		// A probe runs on the bed of the leg it explains: kernels and
		// per-call overheads on the library bed; the probes that build
		// more plans or convert formats on the registry bed (on mpk-dram
		// that keeps them off the 1.1 GB matrix, on plan-churn they see
		// its own matrix and thread count); the replay on the HTTP bed.
		// The content fingerprint is always timed on the subject matrix.
		if p.legs.lib {
			probeCore(r, l, tr, b, counters, pooled, h)
		}
		if p.legs.registry {
			probeFormats(r, l, tr, b, w.ProbeReps)
			probeThreads(r, l, tr, b, w.ProbeReps)
			probeTune(r, l, b, w.ProbeReps)
			probeRegistry(r, l, tr, b, pooled)
		}
		if p.legs.http {
			probeServe(r, l, tr, ids, b, pooled, w.ProbeReps)
		}
		if p.subject {
			l.set("host.llc_ratio", float64(b.a.MemoryBytes())/float64(h.LLC))
			l.set("matgen.generate_s", b.generateS)
			var fp []float64
			for began := time.Now(); len(fp) < 2 || (len(fp) < w.ProbeReps && time.Since(began) < time.Second); {
				fp = append(fp, tr.timed("registry.fingerprint", -1, 0, func() { fbmpk.PlanFingerprint(b.a, b.opts...) }))
			}
			l.med("registry.fingerprint_ms", fp)
			if err := probeCachesim(l, b, o.smoke); err != nil {
				return err
			}
		}
		tearDown(r, b, rep, p)
	}
	var sumOff, sumOn float64
	for _, name := range w.SubjectOps {
		sumOff += median(off[name])
		sumOn += median(on[name])
	}
	l.set("bench.trace_overhead_pct", 100*(sumOn-sumOff)/sumOff)

	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	rep.TraceFile = filepath.Join(o.outDir, "trace-"+w.Name+".json")
	if err := writeTrace(rep.TraceFile, w.Name, tr.snapshot()); err != nil {
		return err
	}
	for _, def := range perLayer {
		v, ok := l.value[def.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail("per-layer metric %s has no finite value (%v)", def.Name, v)
		}
		mv := metricValue{metricDef: def, Value: v}
		if s := l.samples[def.Name]; len(s) > 1 {
			sum := summarize(s)
			mv.Within = &sum
		}
		rep.Metrics = append(rep.Metrics, mv)
	}
	return nil
}

// probeCore covers the sparse kernel and the core layer on the subject
// matrix: raw SpMV against the triad, per-engine traffic and speedups
// from the passes, the per-call overheads, and the BtB ablation.
func probeCore(r *run, l *layerValues, tr *tracer, b *bed, counters map[string]engineCounters, pooled func(string) []float64, h hostInfo) {
	ctx := context.Background()
	n, nnz := b.a.Rows, len(b.a.Val)
	x := b.xs[0]
	y := make([]float64, n)
	reps := max(3, min(200, int(2e9/spmvBytes(n, nnz))))
	var spmv []float64
	for i := 0; i < reps; i++ {
		spmv = append(spmv, tr.timed("sparse.spmv", -1, 0, func() { sparse.SpMV(b.a, x, y) }))
	}
	spmvMS := l.med("sparse.spmv_ms", spmv)
	gbs := spmvBytes(n, nnz) / spmvMS / 1e6
	l.set("sparse.spmv_gbs", gbs)
	l.set("sparse.spmv_frac_triad", gbs/h.TriadGBs)
	l.set("sparse.split_ms", ms(b.fb.Stats().SplitTime))

	medians := map[string]float64{}
	for eng, metric := range map[string]string{"std": "std_mpk_ms", "fb": "fb_mpk_ms", "lb": "lb_mpk_ms", "multi": "multi_mpk_ms"} {
		medians[eng] = median(pooled(metric))
		l.set("core."+eng+".reads_per_spmv", counters[eng].readsPerSpMV)
		if eng != "multi" {
			l.set("core."+eng+".gbs", counters[eng].bytes/medians[eng]/1e6)
		}
	}
	l.set("core.fb.frac_triad", l.value["core.fb.gbs"]/h.TriadGBs)
	l.set("core.fb.speedup", medians["std"]/medians["fb"])
	l.set("core.lb.speedup", medians["std"]/medians["lb"])
	st := b.lb.Stats()
	l.set("core.lb.levels", float64(st.NumLevels))
	l.set("core.lb.blocks", float64(st.NumBlocks))

	// Per-call overhead: a k=1 MPK on the standard plan is one SpMV
	// plus everything the plan wraps around it.
	var k1 []float64
	for i := 0; i < reps; i++ {
		k1 = append(k1, tr.timed("core.std.mpk_k1", -1, 0, func() { _, _ = b.std.MPKCtx(ctx, x, 1) }))
	}
	l.set("core.mpk_k1_overhead_us", (median(k1)-spmvMS)*1e3)

	// The plan's own account of one FB call, read off a request
	// timeline: admission gate, then epoch pin / cancel bridge /
	// workspace loan up to the first kernel instruction, then execution.
	calls := max(3, min(100, reps))
	var adm, epoch, exec []float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < calls; i++ {
		tl := fbmpk.NewRequestTimeline("benchmark", time.Now())
		_, err := b.fb.MPKCtx(fbmpk.ContextWithTimeline(ctx, tl), x, K)
		if !r.check("FB MPK with timeline", err) {
			continue
		}
		var a, e fbmpk.RequestPhase
		for _, ph := range tl.Snapshot() {
			switch ph.Name {
			case "plan.admission":
				a = ph
			case "plan.execute":
				e = ph
			}
		}
		adm = append(adm, float64(a.Dur.Nanoseconds())/1e3)
		epoch = append(epoch, float64((e.Start-a.End()).Nanoseconds())/1e3)
		exec = append(exec, ms(e.Dur))
	}
	runtime.ReadMemStats(&ms1)
	l.med("core.admission_us", adm)
	l.med("core.epoch_us", epoch)
	l.med("core.execute_ms", exec)
	// Includes the timeline and its context (a handful of small
	// objects); the result vector dominates bytes.
	l.set("core.allocs_per_mpk", float64(ms1.Mallocs-ms0.Mallocs)/float64(calls))
	l.set("core.bytes_per_mpk", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(calls))

	var symgs []float64
	sol := make([]float64, n)
	for i := 0; i < calls; i++ {
		var err error
		symgs = append(symgs, tr.timed("core.fb.symgs", -1, 0, func() { err = b.fb.SymGSCtx(ctx, x, sol, 1) }))
		r.check("SymGS", err)
	}
	l.med("core.symgs_ms", symgs)

	// BtB ablation: the same serial FB pipeline without the interleaved
	// vector layout.
	nobtb, err := fbmpk.NewPlan(b.a, fbmpk.WithBtB(false), fbmpk.WithThreads(1))
	if !r.check("building the no-BtB plan", err) {
		return
	}
	defer nobtb.Close()
	var t []float64
	for i := 0; i < max(2, calls/4); i++ {
		var out []float64
		t = append(t, tr.timed("core.fb.nobtb_mpk", -1, 0, func() { out, err = nobtb.MPKCtx(ctx, x, K) }))
		if r.check("no-BtB FB MPK", err) {
			if d := sparse.RelMaxDiff(out, b.refK[0]); !(d <= relTol) {
				r.fail("no-BtB FB MPK: differs from Algorithm 1 by %g", d)
			}
		}
	}
	l.med("core.fb.nobtb_mpk_ms", t)
}

// probeFormats times SpMV in the SELL-C-sigma and BSR formats (default
// chunk 8, sigma 256; detected block size) and the RCM pass. It runs on
// the registry bed: the conversions alone cost 15 s on the mpk-dram
// matrix.
func probeFormats(r *run, l *layerValues, tr *tracer, b *bed, reps int) {
	x := b.xs[0]
	y := make([]float64, b.a.Rows)
	want := make([]float64, b.a.Rows)
	sparse.SpMV(b.a, x, want)
	check := func(what string) {
		r.attempted++
		if d := sparse.RelMaxDiff(y, want); !(d <= relTol) {
			r.fail("%s SpMV differs from CSR by %g", what, d)
		}
	}
	sell := sparse.ToSELL(b.a, 8, 256)
	var t []float64
	for i := 0; i < reps; i++ {
		t = append(t, tr.timed("sparse.sell_spmv", -1, 0, func() { sell.SpMV(x, y) }))
	}
	check("SELL")
	l.med("sparse.sell_spmv_ms", t)

	blk := core.DetectBSRBlock(b.a)
	bsr := sparse.ToBSR(b.a, blk, blk)
	t = nil
	for i := 0; i < reps; i++ {
		t = append(t, tr.timed("sparse.bsr_spmv", -1, 0, func() { bsr.SpMV(x, y) }))
	}
	check("BSR")
	l.med("sparse.bsr_spmv_ms", t)

	t = nil
	for i := 0; i < max(1, reps/4); i++ {
		var err error
		t = append(t, tr.timed("reorder.rcm", -1, 0, func() { _, err = reorder.RCM(b.a) }))
		r.check("RCM", err)
	}
	l.med("reorder.rcm_ms", t)
}

// probeThreads builds the three engines with 2 workers,
// reads the reorder breakdown of the FB build from Plan.Stats, times
// their MPK calls interleaved, and reads the barrier wait share from
// Plan.Metrics. Two-thread medians drift between processes, which is
// why none of them is an end-to-end gate.
func probeThreads(r *run, l *layerValues, tr *tracer, b *bed, reps int) {
	ctx := context.Background()
	two := fbmpk.WithThreads(2)
	plans := map[string]*fbmpk.Plan{}
	for eng, opts := range map[string][]fbmpk.Option{
		"std": {fbmpk.WithEngine(fbmpk.EngineStandard), two},
		"fb":  {two},
		"lb":  {fbmpk.WithEngine(fbmpk.EngineLevelBlocked), two},
	} {
		p, err := fbmpk.NewPlan(b.a, opts...)
		if !r.check("building the 2-thread "+eng+" plan", err) {
			return
		}
		defer p.Close()
		plans[eng] = p
	}
	st := plans["fb"].Stats()
	l.set("reorder.abmc_ms", ms(st.ReorderTime))
	l.set("reorder.perm_ms", ms(st.PermTime))
	l.set("graph.blockgraph_ms", ms(st.GraphTime))
	l.set("graph.color_ms", ms(st.ColorTime))
	l.set("reorder.abmc_colors", float64(st.NumColors))

	x := b.xs[0]
	times := sampleSet{}
	for i := 0; i < reps+1; i++ {
		for _, eng := range []string{"std", "fb", "lb"} {
			var out []float64
			var err error
			d := tr.timed("core."+eng+".t2_mpk", -1, 0, func() { out, err = plans[eng].MPKCtx(ctx, x, K) })
			if !r.check("2-thread "+eng+" MPK", err) {
				continue
			}
			if i == 0 { // warm-up call: verify it instead of timing it
				if err := fbmpk.Verify(b.a, x, out, K, relTol); err != nil {
					r.fail("2-thread %s MPK: %v", eng, err)
				}
				continue
			}
			times.add(eng, d)
		}
	}
	for _, eng := range []string{"std", "fb", "lb"} {
		l.med("core."+eng+".t2_mpk_ms", times[eng])
	}
	m := plans["fb"].Metrics()
	l.set("parallel.fb.wait_share", float64(m.WaitTime)/float64(m.WaitTime+m.ComputeTime))

	pool := parallel.NewPool(2)
	defer pool.Close()
	var runs []float64
	for i := 0; i < 2000; i++ {
		start := time.Now()
		pool.Run(func(int) {})
		runs = append(runs, float64(time.Since(start).Nanoseconds())/1e3)
	}
	l.med("parallel.run_us", runs)
}

// probeTune builds an EngineAuto plan with the bed's thread count and
// compares its MPK with the better of the two engines it arbitrates
// between, forced.
func probeTune(r *run, l *layerValues, b *bed, reps int) {
	ctx := context.Background()
	thr := fbmpk.WithThreads(b.threads)
	x := b.xs[0]
	times := sampleSet{}
	var plans []*fbmpk.Plan
	names := []string{"auto", "fb", "lb"}
	for _, eng := range []fbmpk.Engine{fbmpk.EngineAuto, fbmpk.EngineForwardBackward, fbmpk.EngineLevelBlocked} {
		start := time.Now()
		p, err := fbmpk.NewPlan(b.a, fbmpk.WithEngine(eng), thr)
		if !r.check("building the tune-probe plan", err) {
			return
		}
		defer p.Close()
		if eng == fbmpk.EngineAuto {
			l.set("core.tune.auto_build_ms", ms(time.Since(start)))
		}
		plans = append(plans, p)
	}
	for i := 0; i < reps+1; i++ {
		for pi, p := range plans {
			start := time.Now()
			_, err := p.MPKCtx(ctx, x, K)
			if r.check("tune-probe MPK", err) && i > 0 {
				times.add(names[pi], ms(time.Since(start)))
			}
		}
	}
	auto := l.med("core.tune.auto_mpk_ms", times["auto"])
	l.set("core.tune.regret", auto/min(median(times["fb"]), median(times["lb"])))
}

// probeRegistry reads the registry leg's samples, the cold builds of
// its set-up, and its registry's exact counters.
func probeRegistry(r *run, l *layerValues, tr *tracer, b *bed, pooled func(string) []float64) {
	l.med("registry.acquire_hit_ms", pooled("registry.acquire_hit_ms"))
	l.med("registry.release_us", pooled("registry.release_us"))
	l.med("registry.acquire_miss_ms", append(append([]float64(nil), r.samples["build_fb_ms"]...), r.samples["build_lb_ms"]...))

	// The update span's self time is the registry's own share of an
	// update; its adopted child is the plan-level value swap.
	spans := tr.snapshot()
	l.med("registry.update_rekey_ms", selfTimes(spans)["registry.update_values"])
	l.med("core.update_values_ms", durations(spans)["registry.update"])

	st := b.reg.Stats()
	l.set("registry.hits", float64(st.Hits))
	l.set("registry.misses", float64(st.Misses))
	l.set("registry.builds", float64(st.Builds))
	l.set("registry.updated", float64(st.Updated))
	l.set("registry.rebuilt", float64(st.Rebuilt))
	l.set("registry.evictions", float64(st.Evictions))
	l.set("registry.hit_ratio", st.HitRate())
}

// probeServe replays the handler's steps for one request directly —
// decode, acquire, execute, encode as child spans of one replayed
// request, with the registry's and plan's own timeline phases adopted
// beneath them — and sets the client-observed median against them.
// What the replay cannot see (HTTP, admission, observability, the
// client's read, contention from the second client) is transport_ms.
func probeServe(r *run, l *layerValues, tr *tracer, ids *opIDs, b *bed, pooled func(string) []float64, reps int) {
	steps := sampleSet{}
	reg := b.srv.Registry()
	for i := 0; i < reps+1; i++ {
		body := b.bodies[i%len(b.bodies)]
		op := ids.new()
		root := tr.begin("serve.replay", -1, op)
		ctx, tl := tr.timeline(context.Background())
		var (
			req  serve.OpRequest
			plan *fbmpk.Plan
			out  []float64
			err  error
		)
		dDec := tr.timed("serve.decode", root, op, func() { err = json.Unmarshal(body, &req) })
		if !r.check("replay decode", err) {
			tr.end(root)
			continue
		}
		acq := tr.begin("serve.acquire", root, op)
		start := time.Now()
		plan, err = reg.AcquireCtx(ctx, b.a, b.opts...)
		dAcq := ms(time.Since(start))
		tr.end(acq)
		if !r.check("replay acquire", err) {
			tr.end(root)
			continue
		}
		exe := tr.begin("serve.execute", root, op)
		start = time.Now()
		out, err = plan.MPKCtx(ctx, req.X0, req.K)
		dExe := time.Since(start)
		tr.end(exe)
		reg.Release(plan) //nolint:errcheck // release of a just-acquired plan
		if !r.check("replay execute", err) {
			tr.end(root)
			continue
		}
		var enc []byte
		dEnc := tr.timed("serve.encode", root, op, func() {
			enc, err = json.Marshal(serve.OpResponse{APIVersion: serve.APIVersion, Op: "mpk", N: len(out),
				Result: out, ElapsedNS: dExe.Nanoseconds()})
		})
		tr.end(root)
		tr.adopt(tl, acq, op, "registry.fingerprint")
		tr.adopt(tl, exe, op, "plan.admission", "plan.execute")
		if r.check("replay encode", err) && i > 0 {
			steps.add("serve.decode_ms", dDec)
			steps.add("serve.acquire_ms", dAcq)
			steps.add("serve.execute_ms", ms(dExe))
			steps.add("serve.encode_ms", dEnc)
			steps.add("serve.resp_kb", float64(len(enc))/1024)
		}
	}
	sum := 0.0
	for _, name := range []string{"serve.decode_ms", "serve.acquire_ms", "serve.execute_ms", "serve.encode_ms"} {
		sum += l.med(name, steps[name])
	}
	sorted := pooled("req_ms")
	sort.Float64s(sorted)
	p50 := percentile(sorted, 50)
	l.set("serve.req_p95_ms", percentile(sorted, 95))
	l.set("serve.transport_ms", p50-sum)
	l.set("serve.codec_share", (l.value["serve.decode_ms"]+l.value["serve.encode_ms"])/p50)
	l.med("serve.server_elapsed_ms", pooled("serve.server_elapsed_ms"))
	l.set("serve.req_kb", float64(len(b.bodies[0]))/1024)
	l.med("serve.resp_kb", pooled("serve.resp_kb"))
	l.set("serve.shed", float64(r.shed))

	// The same request with the codec bypassed: default x0, checksum
	// reply.
	body, _ := json.Marshal(serve.OpRequest{Matrix: b.key, K: K, Return: serve.ReturnChecksum})
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	var buf bytes.Buffer
	var t []float64
	for i := 0; i < reps+1; i++ {
		start := time.Now()
		status, err := post(hc, b.url+"/v1/mpk", body, &buf)
		d := ms(time.Since(start))
		if err == nil && status != 200 {
			err = fmt.Errorf("status %d: %.200s", status, buf.Bytes())
		}
		if r.check("checksum request", err) && i > 0 {
			t = append(t, d)
		}
	}
	hc.CloseIdleConnections()
	l.med("serve.checksum_req_ms", t)
}

// probeCachesim replays the three schedules on the reference-size
// matrix against a simulated cache an eighth of its size, and reports
// DRAM bytes relative to the standard schedule. Exact: the simulator
// is deterministic.
func probeCachesim(l *layerValues, sub *bed, smoke bool) error {
	a := sub.a
	if sub.matrix != cachesimMatrix || sub.scale != cachesimScale {
		scale := cachesimScale
		if smoke {
			scale = 0.004
		}
		var err error
		if a, err = fbmpk.GenerateSuiteMatrix(cachesimMatrix, scale, sub.seed); err != nil {
			return err
		}
	}
	tri, err := sparse.Split(a)
	if err != nil {
		return err
	}
	cfg := cachesim.ScaledConfig(a.MemoryBytes(), 8)
	std, fb, err := cachesim.CompareMPK(cfg, a, tri, K, true)
	if err != nil {
		return err
	}
	lp, err := core.BFSLevels(a)
	if err != nil {
		return err
	}
	pa, err := reorder.Perm(lp.Rows).ApplySym(a)
	if err != nil {
		return err
	}
	c, err := cachesim.New(cfg)
	if err != nil {
		return err
	}
	cachesim.TraceLevelBlockedMPK(c, pa, cachesim.LevelBlockSchedule{
		LevelPtr: lp.LevelPtr, BlockPtr: core.GroupLevels(a, lp, int(cfg.SizeBytes/2))}, K)
	l.set("cachesim.fb_dram_ratio", float64(fb.TotalDRAM())/float64(std.TotalDRAM()))
	l.set("cachesim.lb_dram_ratio", float64(c.Stats().TotalDRAM())/float64(std.TotalDRAM()))
	return nil
}
