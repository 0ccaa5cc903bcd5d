// Command solve runs the iterative solvers of the solver package on a
// generated suite matrix or a MatrixMarket file, with every matrix
// application accelerated by the FBMPK plan.
//
// Usage:
//
//	solve -matrix af_shell10 -method cg -tol 1e-8
//	solve -matrix G3_circuit -method chebyshev -degree 8
//	solve -matrix ldoor -method power
//	solve -file m.mtx -method cg
//	solve -matrix audikw_1 -engine standard -backend auto   # storage format picked by census (standard engine only)
//	solve -matrix G3_circuit -engine auto        # the recommended engine (today FBMPK)
//	solve -matrix cant -trace solve.trace.json   # Chrome/Perfetto execution trace
//	solve -matrix cant -http :6060 -linger 30s   # /metrics, /trace, /debug/pprof
package main

import (
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"runtime"
	"strconv"
	"time"

	"fbmpk"
	"fbmpk/internal/serve"
	"fbmpk/solver"
)

func main() {
	var (
		file    = flag.String("file", "", "MatrixMarket file")
		matrix  = flag.String("matrix", "", "suite matrix name")
		scale   = flag.Float64("scale", 0.006, "suite matrix scale")
		seed    = flag.Uint64("seed", 1, "generator seed")
		method  = flag.String("method", "cg", "cg | pcg | chebyshev | power | krylov | gmres | lanczos | subspace")
		tol     = flag.Float64("tol", 1e-8, "convergence tolerance")
		maxIter = flag.Int("maxiter", 2000, "iteration budget")
		degree  = flag.Int("degree", 8, "chebyshev polynomial degree / krylov s")
		threads = flag.Int("threads", runtime.GOMAXPROCS(0), "worker threads")
		backend = flag.String("backend", "csr", "storage backend of -engine standard (inert under the other engines): csr | auto | bsr")
		engine  = flag.String("engine", "fbmpk", "MPK engine: fbmpk | standard | levelblock | auto")
		cache   = flag.Bool("cache", false, "acquire the plan through a fingerprint-keyed plan registry (prints the cache key and counters; -http then also exposes fbmpk_cache_* metrics)")
		metrics = flag.Bool("metrics", false, "print the plan's PlanMetrics snapshot (JSON) after solving")
		trace   = flag.String("trace", "", "record an execution trace of the solve and write Chrome trace-event JSON to this file")
		addr    = flag.String("http", "", "serve the plan's debug surface (/metrics, /trace, /debug/pprof) on this address")
		linger  = flag.Duration("linger", 0, "keep the -http debug server up this long after solving (0 with -http = until interrupted)")
	)
	flag.Parse()
	if err := run(*file, *matrix, *scale, *seed, *method, *tol, *maxIter, *degree, *threads, *backend, *engine, *cache, *metrics, *trace, *addr, *linger); err != nil {
		fmt.Fprintln(os.Stderr, "solve:", err)
		os.Exit(1)
	}
}

func run(file, matrix string, scale float64, seed uint64, method string, tol float64, maxIter, degree, threads int, backend, engine string, cache, metrics bool, traceFile, httpAddr string, linger time.Duration) error {
	bk, err := fbmpk.ParseBackend(backend)
	if err != nil {
		return err
	}
	eng, err := fbmpk.ParseEngine(engine)
	if err != nil {
		return err
	}
	planOpts := []fbmpk.Option{fbmpk.WithThreads(threads), fbmpk.WithBackend(bk), fbmpk.WithEngine(eng)}
	var a *fbmpk.Matrix
	switch {
	case file != "":
		a, _, err = fbmpk.LoadMatrixMarket(file)
	case matrix != "":
		a, err = fbmpk.GenerateSuiteMatrix(matrix, scale, seed)
	default:
		return fmt.Errorf("one of -file or -matrix is required")
	}
	if err != nil {
		return err
	}
	fmt.Printf("matrix: %v\n", a)
	var (
		plan *fbmpk.Plan
		reg  *fbmpk.Registry
	)
	if cache {
		// Registry path: the plan is built once under its content
		// fingerprint; a repeated -cache run in a long-lived process
		// (or a second Acquire) would hit instead of rebuilding.
		reg = fbmpk.NewRegistry(4)
		defer reg.Close()
		key := fbmpk.PlanFingerprint(a, planOpts...)
		fmt.Printf("plan fingerprint: %s\n", key)
		plan, err = reg.Acquire(a, planOpts...)
		if err != nil {
			return err
		}
		defer reg.Release(plan) //nolint:errcheck // teardown on exit
		defer func() {
			s := reg.Stats()
			fmt.Printf("registry: %d build(s) in %v, %d hit(s), %d coalesced\n",
				s.Builds, s.BuildTime, s.Hits, s.Coalesced)
		}()
	} else {
		plan, err = fbmpk.NewPlan(a, planOpts...)
		if err != nil {
			return err
		}
		defer plan.Close()
	}
	bs := plan.Stats()
	fmt.Printf("plan build: %v (reorder %v, split %v)\n", bs.BuildTime, bs.ReorderTime, bs.SplitTime)
	if bs.Backend != "" {
		line := fmt.Sprintf("plan backend: %s", bs.Backend)
		if tune := bs.Tune; tune != nil {
			// The census's candidates, each priced relative to CSR's.
			line += fmt.Sprintf(" (auto in %v, census of %d rows, price vs csr:", bs.TuneTime, tune.SampleRows)
			for _, c := range tune.Candidates {
				name := c.Backend.String()
				if c.Block > 0 {
					name += strconv.Itoa(c.Block)
				}
				line += fmt.Sprintf(" %s %.2f", name, c.PriceNs/tune.Candidates[0].PriceNs)
			}
			line += ")"
		}
		fmt.Println(line)
	}
	if eng == fbmpk.EngineAuto || eng == fbmpk.EngineLevelBlocked {
		fmt.Printf("plan engine: %s\n", plan.Engine())
	}
	if metrics {
		// Dump the traffic/time counters accumulated across the whole
		// solve: every matrix application below runs through this plan.
		defer func() { fmt.Printf("metrics: %s\n", plan.Metrics()) }()
	}
	var rec *fbmpk.TraceRecorder
	if traceFile != "" {
		rec = fbmpk.NewTraceRecorder(fbmpk.TraceConfig{Workers: plan.Workers()})
		if err := plan.StartTrace(rec); err != nil {
			return err
		}
	}
	if httpAddr != "" {
		ln, err := net.Listen("tcp", httpAddr)
		if err != nil {
			return err
		}
		fmt.Printf("debug server: http://%s (metrics, trace, debug/pprof)\n", ln.Addr())
		handler := fbmpk.DebugHandler(plan)
		if reg != nil {
			handler = fbmpk.RegistryDebugHandler(reg, plan)
		}
		hs := serve.NewHTTPServer(handler)
		go hs.Serve(ln)                         //nolint:errcheck // best-effort debug surface
		defer serve.Shutdown(hs, 2*time.Second) //nolint:errcheck
	}

	n := a.Rows
	xStar := make([]float64, n)
	for i := range xStar {
		xStar[i] = math.Cos(float64(i) * 0.61)
	}
	b, err := plan.MPK(xStar, 1)
	if err != nil {
		return err
	}

	switch method {
	case "cg":
		res, err := solver.CG(plan, b, tol, maxIter)
		if err != nil {
			return err
		}
		fmt.Printf("CG converged in %d iterations, relative residual %.3e\n",
			res.Iterations, res.Residuals[len(res.Residuals)-1]/res.Residuals[0])
	case "chebyshev":
		lo, hi := solver.Gershgorin(a)
		if lo <= 0 {
			lo = hi * 1e-4
		}
		x, err := solver.ChebyshevSolve(plan, b, lo, hi, degree)
		if err != nil {
			return err
		}
		ax, err := plan.MPK(x, 1)
		if err != nil {
			return err
		}
		var r, bn float64
		for i := range ax {
			d := b[i] - ax[i]
			r += d * d
			bn += b[i] * b[i]
		}
		fmt.Printf("Chebyshev degree %d: relative residual %.3e (spectrum [%.3g, %.3g])\n",
			degree, math.Sqrt(r/bn), lo, hi)
	case "power":
		x0 := make([]float64, n)
		s := uint64(99)
		for i := range x0 {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			x0[i] = float64(int64(s%2000)-1000) / 1000
		}
		res, err := solver.PowerMethod(plan, x0, 4, maxIter, tol)
		if err != nil {
			fmt.Printf("power method: %v\n", err)
		}
		fmt.Printf("dominant eigenvalue ~= %.8g (residual %.3e, %d applications)\n",
			res.Lambda, res.Residual, res.Iterations)
	case "krylov":
		basis, err := solver.KrylovBasis(plan, b, degree)
		if err != nil {
			return err
		}
		fmt.Printf("s-step Krylov basis: %d orthonormal vectors from one fused sweep (s=%d)\n",
			len(basis), degree)
	case "gmres":
		res, err := solver.GMRES(plan, b, 30, tol, maxIter)
		if err != nil {
			return err
		}
		fmt.Printf("GMRES(30) converged in %d iterations, relative residual %.3e\n",
			res.Iterations, res.Residuals[len(res.Residuals)-1]/res.Residuals[0])
	case "pcg":
		res, err := solver.PCG(plan, b, &solver.SymGSPreconditioner{Plan: plan}, tol, maxIter)
		if err != nil {
			return err
		}
		fmt.Printf("SYMGS-PCG converged in %d iterations, relative residual %.3e\n",
			res.Iterations, res.Residuals[len(res.Residuals)-1]/res.Residuals[0])
	case "lanczos":
		lo, hi, err := solver.ExtremalEigenvalues(plan, b, degree)
		if err != nil {
			return err
		}
		fmt.Printf("Lanczos(%d) spectrum estimate: [%.6g, %.6g]\n", degree, lo, hi)
	case "subspace":
		res, err := solver.SubspaceIteration(plan, 3, 3, maxIter, tol, seed)
		if err != nil {
			fmt.Printf("subspace iteration: %v\n", err)
		}
		fmt.Printf("3 dominant eigenvalues: %.6g %.6g %.6g (residual %.3e)\n",
			res.Lambdas[0], res.Lambdas[1], res.Lambdas[2], res.Residual)
	default:
		return fmt.Errorf("unknown method %q", method)
	}

	if rec != nil {
		// The recorder stays attached so a lingering /trace endpoint can
		// serve the same capture; WriteTrace snapshots safely.
		f, err := os.Create(traceFile)
		if err != nil {
			return err
		}
		if err := fbmpk.WriteTrace(f, rec); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("trace: wrote %d spans to %s\n", rec.Len(), traceFile)
	}
	if httpAddr != "" {
		if linger > 0 {
			fmt.Printf("lingering %v for scrapes\n", linger)
			time.Sleep(linger)
		} else {
			fmt.Println("serving until interrupted (ctrl-c to exit)")
			select {}
		}
	}
	return nil
}
