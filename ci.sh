#!/bin/sh
# Repo verification: vet, build, full test suite, a short -race pass
# over the concurrent engines (worker pool, barrier, parallel FBMPK and
# its batched multi-RHS executor, plus the root differential sweeps),
# and a fuzz smoke stage that gives every fuzz target a short random
# exploration budget (-fuzz runs one target per invocation, hence one
# line per target; seed corpora under testdata/fuzz/ already ran as
# plain tests in the suite above).
set -eux

go vet ./...
go build ./...
# The m = 4 row primitives (internal/sparse/rowacc*.go) are assembly on
# amd64 and Go elsewhere: build everything, and vet the two packages that
# hold and call them, for a platform that takes the Go side. No cgo, so
# this needs no cross toolchain.
GOOS=linux GOARCH=arm64 go build ./...
GOOS=linux GOARCH=arm64 go vet ./internal/sparse ./internal/core
go test ./...
# Size ratchets (ROADMAP item 2): non-test lines only go down; a PR
# that shrinks them lowers the limit to its own count. One for the
# kernels (internal/core + internal/sparse), one for everything outside
# benchmark/. Hand-written assembly counts like Go. PR 20 raised both
# once, on purpose (6,467 and 17,327 before it): the packed m = 4 row
# primitives, priced in CHANGES.md against what they bought. PR 21
# raised the second once more (17,593 before it): the one-pass request
# codec and acquire-by-key, less the expvar publication code, priced
# the same way. PR 22 lowered both (6,733 and 17,992 before it); PR 24
# lowered both again (6,500 and 17,679 before it): the level-blocked steps' private
# kernel, ValueMap's second gather-and-sort and FromCSRPattern's double
# merge paid for the pattern-only transpose. PR 25 raised the second
# once (17,641 before it, +141): internal/registry/fingerprint.go 213 ->
# 332 — the content pass (leaf dealing, the fused RowPtr/ColIdx checks,
# the big-endian staging encoder) less the two streaming encoders,
# fingerprintBufLen and structOptKey — and 22 lines of godoc for the
# held-reference contract and the canceled-context path; priced in
# CHANGES.md against acquire_exec_ms 33.4 -> 22.6 ms on plan-churn. The
# core + sparse ratchet did not move. PR 26 lowered both (6,496 and
# 17,782 before it): the fused permute-and-split (internal/reorder/perm.go
# 179 -> 322) and NewPlan's share of it (+39 in core) were paid for by
# cmd/mpk (145) and the FBParallel/FBParallelMulti wrappers, which only
# core's own tests called and which now live in parallel_test.go (52).
lines=$(cat $(ls internal/core/*.go internal/sparse/*.go internal/core/*.s internal/sparse/*.s 2> /dev/null | grep -v _test.go) | wc -l)
[ "$lines" -le 6482 ]
lines=$(find . \( -name '*.go' -o -name '*.s' \) ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' -print0 | xargs -0 cat | wc -l)
[ "$lines" -le 17767 ]
# Knob ratchet (ROADMAP item 2, "Options <= 8 fields"): the exported
# fields of core.Options, counted from the source. A new option has to
# displace one.
knobs=$(awk '/^type Options struct \{/ { in_opts = 1; next } in_opts && /^}/ { exit } in_opts && /^\t[A-Z][A-Za-z]* / { n++ } END { print n + 0 }' internal/core/options.go)
[ "$knobs" -ge 1 ] && [ "$knobs" -le 8 ]
# Bounds-check ratchet (PR 16): in the scalar FB sweeps (fbForward1,
# fbBackward1) the unrolled inner loops read each entry through
# a window w and must keep one IsInBounds per nonzero — the gather, which
# no idiom removes. Nonzeros per trip are the `s += w[j] * ...` lines;
# checks are the IsInBounds sites the compiler reports on any `w[j]` line.
go build -gcflags=-d=ssa/check_bce ./internal/core 2> /tmp/fbmpk_ci_bce.txt
awk '
  NR == FNR {
    if ($0 ~ /^func fbForward1\(/) scalar = 1
    if ($0 ~ /^func fbForwardM\(/) scalar = 0
    if (scalar && $0 ~ /w\[[0-9]\]/) {
      win[FNR] = 1
      if ($0 ~ /^[ \t]*s[0-9]? \+= w\[/) nnz++
    }
    next
  }
  /fbsweeps\.go:[0-9]+:[0-9]+: Found IsInBounds/ { split($0, f, ":"); if (f[2] in win) checks++ }
  END { printf "fbsweeps.go scalar sweeps: %d IsInBounds for %d unrolled nonzeros\n", checks, nnz; exit !(nnz > 0 && checks <= nnz) }
' internal/core/fbsweeps.go /tmp/fbmpk_ci_bce.txt
go test -race ./internal/parallel/ -count 1
go test -race ./internal/core/ -run 'Parallel|Multi' -count 1
# TestGoldenBits rides along: result bits of every entry point, engine
# and worker count against recorded digests — the FB ones from PR 16,
# when the sweeps re-associated their sums (split accumulators, entries
# of the backward sweep walked downward), the level-blocked ones from
# PR 24, when its steps took the shared four-accumulator SpMV kernel.
# What licensed moving them is the derived bound gamma_{k(r+2)} *
# |A|^k|x| that internal/core TestDerivedErrorBound holds every engine
# and kernel variant to against math/big.
go test -race -run 'Differential|TestGoldenBits' -count 1 .
# Level-blocked engine: the dedicated differential battery (serial vs
# parallel bitwise, vs standard and ABMC-FB within tolerance, degenerate
# level shapes) and the engine-verdict registry replay, under -race.
go test -race -run 'TestDifferentialLevelBlocked|TestLevelBlockedDegenerate|TestRegistryEngineVerdict|TestRegistryForcedEngine' -count 1 .
# Its build primitives against the formulations they replaced (kept as
# test-only oracles): BFS levels vs the merged-adjacency BFS over a value
# transpose; the run-based symmetric permutation, ValueMap and the fused
# permute-and-split (SplitSym) vs gather + insertion sort, and
# sparse.Split of it, serial and at 2 and 3 workers (the permutation
# kinds of TestPermutedRowsKinds, FuzzApplySym's and FuzzPermutedRows'
# seeds); and the allocation guards that trip if a value transpose, a
# second full-size copy or the FB build's permuted copy comes back. Then
# what the two cost, printed, not gated (-build-scale=8 is the
# benchmark's 1.1 GB bed).
go test -race ./internal/core/ -run 'TestBFSLevels|TestFBPlanBuildAllocation|TestSelfCheckAuditsFusedSplit' -count 1
go test -race ./internal/reorder/ -run 'ApplySym|PermutedRows' -count 1
go test ./internal/core -run '^$' -bench 'BFSLevels' -benchtime 5x
go test ./internal/reorder -run '^$' -bench 'ApplySym' -benchtime 5x
# Forced-backend differential sweep (SELL-C-sigma, BSR, auto, and the
# two replayed-verdict configurations) across the standard engine's
# serial/parallel/multi-RHS paths under -race: every backend must agree
# with CSR bitwise-modulo-summation-order (<= 1e-12). The FB rows no
# longer ride a backend — an FB plan builds none — and instead hold the
# option to changing nothing, bitwise.
go test -race -run 'TestBackendDifferential' -count 1 .
# Concurrent-serving contract: shared plan under >= 8 goroutines,
# cancellation, graceful close, metrics accounting (bounded iterations).
go test -race -run 'TestConcurrent|TestPlan(Cancellation|Close|Metrics)' -count 1 .
# Trace capture under the same concurrent-serving stress (well-nested
# spans per lane, bounded rings, debug HTTP surface).
go test -race -run 'TestTrace|TestDebugHandler' -count 1 .

# Plan registry: fingerprint determinism, singleflight coalescing, and
# a bounded -race churn pass (12 goroutines + evictor against a 3-entry
# LRU over 6 matrices) plus cached-vs-fresh bitwise determinism across
# every public entry point and double-Close/Close-in-flight regression;
# the history model (random Acquire / AcquireKey / UpdateValues / Release
# / Close sequences in lockstep with a map-backed reference) and its
# eight-goroutine invariants-only variant run here under -race too.
go test -race ./internal/registry/ -count 1
# The content pass (one read of the matrix per registry call: validation
# fused into a tree of SHA-256 leaves dealt to GOMAXPROCS workers) must
# key identically with one worker — the -race line above runs it with
# this host's count and TestFingerprintWorkerIndependence with 1, 2 and
# 8 — and its big-endian staging encoder must at least compile. Then
# what it costs on the plan-churn bed in MB/s, one and two workers,
# beside CSR.Validate and a bare sha256.Sum256 (printed, not gated).
GOMAXPROCS=1 go test -run 'Fingerprint' ./internal/registry/ -count 1
GOOS=linux GOARCH=s390x go build ./internal/registry/
go test ./internal/registry -run '^$' -bench 'Fingerprint' -cpu 1,2 -benchtime 5x
go test -race -run 'TestRegistryCachedVsFresh|TestRegistryDebugHandler|TestPlanFingerprint' -count 1 .
go test -race ./internal/core/ -run 'TestClose' -count 1

# Mutable matrices: the epoch/RCU churn audit under -race (concurrent
# solvers must see bitwise epoch-pure results while updaters flip the
# values). What an update costs against a rebuild is update_ms vs
# build_fb_ms on the benchmark's plan-churn workload, not a gate here.
go test -race -run 'TestUpdateChurnEpochConsistency' -count 1 .
go test -race ./internal/core/ -run 'TestUpdateValues' -count 1

# Observability smoke: a briefly started debug server must serve valid
# Prometheus text. (The traffic bound, tuner and registry assertions a
# saved bench report used to be checked for are tests in the suite
# above; DESIGN.md §8 has the ledger.)
go build -o /tmp/fbmpk_ci_solve ./cmd/solve
rm -f /tmp/fbmpk_ci_solve.log
/tmp/fbmpk_ci_solve -matrix cant -scale 0.003 -method cg -threads 2 \
  -http 127.0.0.1:0 -linger 20s > /tmp/fbmpk_ci_solve.log &
SOLVE_PID=$!
scrape_ok=0
for _ in 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20; do
  ADDR=$(sed -n 's#^debug server: http://\([^ ]*\) .*#\1#p' /tmp/fbmpk_ci_solve.log)
  if [ -n "$ADDR" ] \
    && curl -sf "http://$ADDR/metrics" > /tmp/fbmpk_ci_metrics.txt \
    && grep -q 'fbmpk_reads_of_a_per_spmv{' /tmp/fbmpk_ci_metrics.txt \
    && grep -q 'fbmpk_op_latency_seconds_bucket{' /tmp/fbmpk_ci_metrics.txt; then
    scrape_ok=1
    break
  fi
  sleep 1
done
kill "$SOLVE_PID" 2> /dev/null || true
wait "$SOLVE_PID" 2> /dev/null || true
[ "$scrape_ok" -eq 1 ]

# Serving daemon end-to-end: the full contract suite (deadline
# propagation, deterministic 429 shed, graceful-drain bitwise
# identity, N concurrent clients, trace-ID correlation across header /
# body / access log / flight recorder / exemplar) under -race, then the
# tracing-overhead gate — the instrumented request path must stay
# within 2% of the stripped one, plus the noise floor the test measures
# between two stripped arms and prints — and a live fbmpkd + fbmpkload
# round trip: start the daemon on an ephemeral port, offer a short open-loop
# load curve, gate the JSON report (-check: zero hard errors, finite
# p99), scrape /metrics for the daemon, plan-cache, and build-info
# families, and SIGTERM it — the drain must exit 0.
go test -race ./internal/serve/ -count 1
FBMPK_OVERHEAD_GATE=1 go test ./internal/serve/ -run TestDetachedOverheadGate -count 1 -v
go build -o /tmp/fbmpk_ci_fbmpkd ./cmd/fbmpkd
go build -o /tmp/fbmpk_ci_fbmpkload ./cmd/fbmpkload
rm -f /tmp/fbmpk_ci_fbmpkd.log
/tmp/fbmpk_ci_fbmpkd -addr 127.0.0.1:0 -threads 2 > /tmp/fbmpk_ci_fbmpkd.log 2>&1 &
FBMPKD_PID=$!
DADDR=
for _ in 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20; do
  DADDR=$(sed -n 's#.*msg=listening url=http://\([^ ]*\).*#\1#p' /tmp/fbmpk_ci_fbmpkd.log)
  if [ -n "$DADDR" ] && curl -sf "http://$DADDR/healthz" > /dev/null; then
    break
  fi
  DADDR=
  sleep 1
done
[ -n "$DADDR" ]
/tmp/fbmpk_ci_fbmpkload -addr "http://$DADDR" -matrix cant -scale 0.004 \
  -qps 10,25,50 -duration 2s -k 4 -json /tmp/fbmpk_ci_load.json
/tmp/fbmpk_ci_fbmpkload -check /tmp/fbmpk_ci_load.json
# Request-tracing correlation, live: send one op with a fixed W3C
# traceparent and demand the trace ID back in the response body, the
# structured access log, the /v1/debug/requests flight recorder, and
# as a /metrics histogram exemplar (which ?exemplars=0 must strip).
# The traced op uploads a matrix the load run did NOT (seed 7), so its
# request carries a fresh plan build and reliably outranks the load
# traffic in the slowest-N flight set — a cached-plan hit can be too
# fast to retain.
CI_TRACE=4bf92f3577b34da6a3ce929d0e0e4736
CI_MKEY=$(curl -sf -X POST "http://$DADDR/v1/matrix" -H 'Content-Type: application/json' \
  -d '{"name":"cant","scale":0.004,"seed":7}' | sed -n 's/.*"key":"\([^"]*\)".*/\1/p')
[ -n "$CI_MKEY" ]
curl -sf -X POST "http://$DADDR/v1/mpk" -H 'Content-Type: application/json' \
  -H "traceparent: 00-$CI_TRACE-00f067aa0ba902b7-01" \
  -d "{\"matrix\":\"$CI_MKEY\",\"k\":4,\"return\":\"checksum\"}" \
  | grep -q "\"trace_id\":\"$CI_TRACE\""
grep -q "trace_id=$CI_TRACE" /tmp/fbmpk_ci_fbmpkd.log
curl -sf "http://$DADDR/v1/debug/requests" > /tmp/fbmpk_ci_flight.json
grep -q "\"trace_id\":\"$CI_TRACE\"" /tmp/fbmpk_ci_flight.json
grep -q '"plan.execute"' /tmp/fbmpk_ci_flight.json
curl -sf "http://$DADDR/metrics" > /tmp/fbmpk_ci_daemon_metrics.txt
grep -q 'fbmpkd_requests_total{op="mpk",outcome="ok"}' /tmp/fbmpk_ci_daemon_metrics.txt
grep -q 'fbmpkd_build_info{' /tmp/fbmpk_ci_daemon_metrics.txt
grep -q 'fbmpk_cache_hits_total{' /tmp/fbmpk_ci_daemon_metrics.txt
grep -q '# {trace_id="' /tmp/fbmpk_ci_daemon_metrics.txt
curl -sf "http://$DADDR/metrics?exemplars=0" | grep -c '# {trace_id="' | grep -qx 0
kill -TERM "$FBMPKD_PID"
wait "$FBMPKD_PID"
grep -q 'msg="drained cleanly"' /tmp/fbmpk_ci_fbmpkd.log

FUZZTIME=${FUZZTIME:-10s}
go test -run '^$' -fuzz '^FuzzDifferentialMPK$'   -fuzztime "$FUZZTIME" .
go test -run '^$' -fuzz '^FuzzDifferentialSSpMV$' -fuzztime "$FUZZTIME" .
go test -run '^$' -fuzz '^FuzzDifferentialMulti$' -fuzztime "$FUZZTIME" .
go test -run '^$' -fuzz '^FuzzDifferentialSymGS$' -fuzztime "$FUZZTIME" .
go test -run '^$' -fuzz '^FuzzDifferentialBackend$' -fuzztime "$FUZZTIME" .
go test -run '^$' -fuzz '^FuzzDifferentialLevelBlocked$' -fuzztime "$FUZZTIME" .
go test -run '^$' -fuzz '^FuzzAPIBoundary$'       -fuzztime "$FUZZTIME" .
go test -run '^$' -fuzz '^FuzzFBMPKEquivalence$'  -fuzztime "$FUZZTIME" ./internal/core
go test -run '^$' -fuzz '^FuzzApplySym$'          -fuzztime "$FUZZTIME" ./internal/reorder
go test -run '^$' -fuzz '^FuzzPermutedRows$'      -fuzztime "$FUZZTIME" ./internal/reorder
go test -run '^$' -fuzz '^FuzzRowAcc$'            -fuzztime "$FUZZTIME" ./internal/sparse
go test -run '^$' -fuzz '^FuzzContentPassValidate$' -fuzztime "$FUZZTIME" ./internal/registry
go test -run '^$' -fuzz '^FuzzRead$'              -fuzztime "$FUZZTIME" ./internal/mmio
go test -run '^$' -fuzz '^FuzzTraceparent$'       -fuzztime "$FUZZTIME" ./internal/serve
go test -run '^$' -fuzz '^FuzzOpRequestDecode$'   -fuzztime "$FUZZTIME" ./internal/serve
