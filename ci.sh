#!/bin/sh
# Repo verification: vet, build, the full test suite, the size and
# bounds-check ratchets, every test of the eight packages that run
# concurrent code once more under -race (timed), the printed gauges, two
# live daemons, and a fuzz smoke stage that gives every fuzz target a
# short random exploration budget (-fuzz runs one target per invocation;
# seed corpora under testdata/fuzz/ already ran as plain tests in the
# suite above).
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
# Size ratchets (ROADMAP item 2): non-test lines, hand-written assembly
# counted like Go, only go down — a PR that shrinks them lowers the limit
# to its own count, one that must raise one prices the rise in CHANGES.md
# (which has the history). The first measures the kernels (internal/core
# + internal/sparse): the FB sweeps exist in near-copies, and this is
# where a new one would land. The second measures everything outside
# benchmark/: what a reader has to hold to change the system. Deleting
# the product code only tests called (ROADMAP 2(g)) met item 2's targets
# of 5,100 and 15,400; TestNoTestOnlyProductCode keeps such code out.
# Keeping the registry's updated entry in the key map through the swap
# took the second to 15,203; dropping ForceABMC and SelfCheck (the
# standard engine's reorder branch and the build-time audit, now test
# code) took them to 4,993 and 14,973; removing the solvers that apply A
# one vector at a time (GMRES, Lanczos) and the uncalled WithOptions
# took them to 4,988 and 14,640.
lines=$(cat $(ls internal/core/*.go internal/sparse/*.go internal/core/*.s internal/sparse/*.s 2> /dev/null | grep -v _test.go) | wc -l)
[ "$lines" -le 4988 ]
lines=$(find . \( -name '*.go' -o -name '*.s' \) ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' -print0 | xargs -0 cat | wc -l)
[ "$lines" -le 14640 ]
# Test-lines ratchet (ROADMAP item 23(a)): every _test.go outside
# benchmark/, which should fall toward the product count. Set at the
# count the first ratcheted tree has and lowered by each fold (18,679,
# then 17,708 when core's differential tests shared one driver, then
# 17,599 when GMRES and Lanczos went with their tests); a PR may raise
# it only by a count it prices in CHANGES.md.
lines=$(find . -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' -print0 | xargs -0 cat | wc -l)
[ "$lines" -le 17599 ]
# Test-name floor (ROADMAP item 23(b)): folds share test bodies, never
# drop a test. The top-level Test, Fuzz and Example names only go up; a
# PR that retires one on purpose lowers this and names it in CHANGES.md.
names=$(go test -list '.*' ./... | grep -cE '^(Test|Fuzz|Example)')
[ "$names" -ge 435 ]
# Kernel layout (ROADMAP "Three standing rules"): code layout moves the
# 64-byte phase of the hot kernels in the benchmark binary, and a kernel
# metric can move with it though no kernel changed. Printed, not gated:
# compare with the parent's binary when a kernel metric moves.
go build -o /tmp/fbmpk_ci_benchmark ./benchmark
go tool nm /tmp/fbmpk_ci_benchmark \
  | grep -E ' T fbmpk/internal/(sparse\.(SpMVRange|SpMMRange|rowAcc.*Asm)|core\.(fb[A-Za-z0-9]*|standardPowers))(\.abi0)?$' \
  | while read -r addr _ sym; do echo "$sym 0x$addr phase $((0x$addr % 64))"; done
# Knob ratchet (ROADMAP item 2, "Options <= 5 fields"): the exported
# fields of core.Options, counted from the source. A new option has to
# displace one.
knobs=$(awk '/^type Options struct \{/ { in_opts = 1; next } in_opts && /^}/ { exit } in_opts && /^\t[A-Z][A-Za-z]* / { n++ } END { print n + 0 }' internal/core/options.go)
[ "$knobs" -ge 1 ] && [ "$knobs" -le 5 ]
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
# Race detector: every test of the eight packages that run concurrent code
# (worker pool, barrier, Deal and DealRows; the engines, their batched
# executors, Close and UpdateValues with its dealt refill; the
# conformance table — every engine x option x entry point, see DESIGN.md
# section 5 — with the concurrent-serving, trace and update-churn suites;
# the registry's churn and history model; the daemon; the pooled
# permutation builders; the chunked adjacency and block graph; the L+D+U
# split's row fills, dealt over workers by its test).
# No -run filters: a new test is
# race-checked because it exists. The m = 4 row primitives are their Go
# forms here (rowacc_noasm.go), TestGoldenBits included, so both forms
# are held to the same digests.
race_start=$(date +%s)
go test -race -count 1 .
go test -race -count 1 ./internal/core
go test -race -count 1 ./internal/registry
go test -race -count 1 ./internal/serve
go test -race -count 1 ./internal/reorder
go test -race -count 1 ./internal/parallel
go test -race -count 1 ./internal/graph
go test -race -count 1 ./internal/sparse
echo "race section: $(($(date +%s) - race_start)) s"
# The registry's content pass (one read of the matrix per call:
# validation fused into a tree of SHA-256 leaves dealt to GOMAXPROCS
# workers) must key identically with one worker — the -race line above
# runs it with this host's count and TestFingerprintWorkerIndependence
# with 1, 2 and 8 — and its big-endian staging encoder must at least
# compile.
GOMAXPROCS=1 go test -run 'Fingerprint' ./internal/registry/ -count 1
GOOS=linux GOARCH=s390x go build ./internal/registry/
# What the build primitives, the value swap, the content pass and the
# codec cost, printed, not gated: BFS levels (serial and with the
# adjacency on two workers) and the run-based symmetric permutation
# against the formulations they replaced (-build-scale=8 is the
# benchmark's 1.1 GB bed), one build of each plan kind — forward-backward,
# level-blocked and EngineAuto (the forward-backward build under another
# spelling), 1 and 2 threads, with their graph and permutation stages,
# and the serial standard build — so a build regression shows here, the
# whole k = 6 MPKs of ROADMAP 1(a)'s gauge (standard and
# forward-backward, serial and on two workers, with colours, reads of A
# per SpMV and the wait share), one
# value swap on the
# plan-churn bed down each refill path (FB slot gather and row copies,
# standard and level-blocked gather), the content pass in MB/s on the
# plan-churn bed beside
# CSR.Validate and a bare sha256.Sum256, and the daemon's codec on the
# serve-vec body beside encoding/json with a request's
# decode/acquire/execute/encode split from the daemon's own timelines.
go test ./internal/core -run '^$' -bench 'BFSLevels' -benchtime 5x
go test ./internal/core -run '^$' -bench 'NewPlan' -benchtime 1x
go test ./internal/core -run '^$' -bench 'Sweep/(std6|fb6)' -benchtime 1x
go test ./internal/core -run '^$' -bench 'UpdateValues' -benchtime 5x -sweep-scale=0.2
go test ./internal/reorder -run '^$' -bench 'ApplySym' -benchtime 5x
go test ./internal/registry -run '^$' -bench 'Fingerprint' -cpu 1,2 -benchtime 5x
go test ./internal/serve -run '^$' -bench 'OpDecode|OpEncode|OpRequestBudget' -benchtime 3x

# Observability smoke: a briefly started debug server must serve valid
# Prometheus text. (The traffic bound, tuner and registry assertions a
# saved bench report used to be checked for are tests in the suite
# above; DESIGN.md §8 has the ledger.)
go build -o /tmp/fbmpk_ci_solve ./cmd/solve
# Truncate rather than delete the logs the loops below poll: the
# background process opens its log only once it runs, and a sed on a
# missing file fails the command substitution under set -e.
: > /tmp/fbmpk_ci_solve.log
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

# Serving daemon end-to-end (its contract suite — deadline propagation,
# deterministic 429 shed, graceful-drain bitwise identity, N concurrent
# clients, trace-ID correlation across header / body / access log /
# flight recorder — ran under -race above): the
# tracing-overhead gate — the instrumented request path must stay
# within 2% of the stripped one, plus the noise floor the test measures
# between two stripped arms and prints — and a live fbmpkd + fbmpkload
# round trip: start the daemon on an ephemeral port, offer a short open-loop
# load curve, gate the JSON report (-check: zero hard errors, finite
# p99), scrape /metrics for the daemon, plan-cache, and build-info
# families, and SIGTERM it — the drain must exit 0.
FBMPK_OVERHEAD_GATE=1 go test ./internal/serve/ -run TestDetachedOverheadGate -count 1 -v
go build -o /tmp/fbmpk_ci_fbmpkd ./cmd/fbmpkd
go build -o /tmp/fbmpk_ci_fbmpkload ./cmd/fbmpkload
: > /tmp/fbmpk_ci_fbmpkd.log
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
# Request-tracing correlation, live, before any load: send one op with
# a fixed W3C traceparent and demand the trace ID back in the response
# body, the structured access log and the /v1/debug/requests flight
# recorder — and nowhere else: /metrics carries no trace ID, and the
# daemon's /trace is a 404 (one home per fact, DESIGN.md section 8). The
# recorder then holds only the upload and the traced op, so the op is
# always in its slowest-N set.
CI_TRACE=4bf92f3577b34da6a3ce929d0e0e4736
CI_MKEY=$(curl -sf -X POST "http://$DADDR/v1/matrix" -H 'Content-Type: application/json' \
  -d '{"name":"cant","scale":0.004}' | sed -n 's/.*"key":"\([^"]*\)".*/\1/p')
[ -n "$CI_MKEY" ]
curl -sf -X POST "http://$DADDR/v1/mpk" -H 'Content-Type: application/json' \
  -H "traceparent: 00-$CI_TRACE-00f067aa0ba902b7-01" \
  -d "{\"matrix\":\"$CI_MKEY\",\"k\":4,\"return\":\"checksum\"}" \
  | grep -q "\"trace_id\":\"$CI_TRACE\""
grep -q "trace_id=$CI_TRACE" /tmp/fbmpk_ci_fbmpkd.log
curl -sf "http://$DADDR/v1/debug/requests" > /tmp/fbmpk_ci_flight.json
grep -q "\"trace_id\":\"$CI_TRACE\"" /tmp/fbmpk_ci_flight.json
grep -q '"plan.execute"' /tmp/fbmpk_ci_flight.json
/tmp/fbmpk_ci_fbmpkload -addr "http://$DADDR" -matrix cant -scale 0.004 \
  -qps 10,25,50 -duration 2s -k 4 -json /tmp/fbmpk_ci_load.json
/tmp/fbmpk_ci_fbmpkload -check /tmp/fbmpk_ci_load.json
curl -sf "http://$DADDR/metrics" > /tmp/fbmpk_ci_daemon_metrics.txt
grep -q 'fbmpkd_requests_total{op="mpk",outcome="ok"}' /tmp/fbmpk_ci_daemon_metrics.txt
grep -q 'fbmpkd_build_info{' /tmp/fbmpk_ci_daemon_metrics.txt
grep -q 'fbmpk_cache_hits_total{' /tmp/fbmpk_ci_daemon_metrics.txt
grep -c 'trace_id' /tmp/fbmpk_ci_daemon_metrics.txt | grep -qx 0
[ "$(curl -s -o /dev/null -w '%{http_code}' "http://$DADDR/trace")" = 404 ]
kill -TERM "$FBMPKD_PID"
wait "$FBMPKD_PID"
grep -q 'msg="drained cleanly"' /tmp/fbmpk_ci_fbmpkd.log

FUZZTIME=${FUZZTIME:-10s}
for target in FuzzDifferentialMPK FuzzDifferentialSSpMV FuzzDifferentialMulti FuzzDifferentialSymGS \
  FuzzDifferentialBackend FuzzDifferentialLevelBlocked FuzzAPIBoundary; do
  go test -run '^$' -fuzz "^$target\$" -fuzztime "$FUZZTIME" .
done
go test -run '^$' -fuzz '^FuzzFBMPKEquivalence$'  -fuzztime "$FUZZTIME" ./internal/core
go test -run '^$' -fuzz '^FuzzApplySym$'          -fuzztime "$FUZZTIME" ./internal/reorder
go test -run '^$' -fuzz '^FuzzPermutedRows$'      -fuzztime "$FUZZTIME" ./internal/reorder
go test -run '^$' -fuzz '^FuzzRowAcc$'            -fuzztime "$FUZZTIME" ./internal/sparse
go test -run '^$' -fuzz '^FuzzContentPassValidate$' -fuzztime "$FUZZTIME" ./internal/registry
go test -run '^$' -fuzz '^FuzzRead$'              -fuzztime "$FUZZTIME" ./internal/mmio
go test -run '^$' -fuzz '^FuzzTraceparent$'       -fuzztime "$FUZZTIME" ./internal/serve
go test -run '^$' -fuzz '^FuzzOpRequestDecode$'   -fuzztime "$FUZZTIME" ./internal/serve
go test -run '^$' -fuzz '^FuzzJSONFloat$'         -fuzztime "$FUZZTIME" ./internal/serve
