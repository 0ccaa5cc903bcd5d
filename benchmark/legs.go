package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"fbmpk"
	"fbmpk/internal/serve"
	"fbmpk/internal/sparse"
)

// A leg is one access path into the system, run as a closed loop:
// the library leg calls plans directly, the registry leg goes through
// acquire/release beside value updates, the HTTP leg through the
// daemon. Every leg times each op on its own, interleaves its op kinds
// round-robin so drift hits all of them equally, verifies every result
// outside the timed intervals, and stops starting new cycles once
// budget has elapsed (count caps are the normal end).

// opIDs hands out the identifier the spans of one operation share.
type opIDs struct{ next int64 }

func (o *opIDs) new() int64 { o.next++; return o.next }

// libLeg runs cycles of {standard MPK, FB MPK, level-blocked MPK, FB
// MPKMulti m=4, FB SSpMV} on the bed's serial plans.
func libLeg(r *run, b *bed, tr *tracer, ids *opIDs, warm, cycles int, budget time.Duration) {
	ctx := context.Background()
	lastFB := make([][]float64, multiRHS)
	var start time.Time
	for c := -warm; c < cycles; c++ {
		if c == 0 {
			runtime.GC()
			start = time.Now()
		}
		if c > 0 && time.Since(start) > budget {
			break
		}
		j := (c + warm) % multiRHS
		x := b.xs[j]
		op := ids.new()
		var (
			yStd, yFB, yLB, ySS []float64
			yMulti              [][]float64
			errs                [5]error
		)
		cyc := tr.begin("bench.lib_cycle", -1, op)
		d := [5]float64{
			tr.timed("core.std.mpk", cyc, op, func() { yStd, errs[0] = b.std.MPKCtx(ctx, x, K) }),
			tr.timed("core.fb.mpk", cyc, op, func() { yFB, errs[1] = b.fb.MPKCtx(ctx, x, K) }),
			tr.timed("core.lb.mpk", cyc, op, func() { yLB, errs[2] = b.lb.MPKCtx(ctx, x, K) }),
			tr.timed("core.fb.mpk_multi", cyc, op, func() { yMulti, errs[3] = b.fb.MPKMultiCtx(ctx, b.xs[:multiRHS], K) }),
			tr.timed("core.fb.sspmv", cyc, op, func() { ySS, errs[4] = b.fb.SSpMVCtx(ctx, b.coeffs, x) }),
		}
		tr.end(cyc)
		if c >= 0 {
			for i, name := range libOps {
				r.samples.add(name, d[i])
			}
		}

		verify := func(what string, err error, got, want []float64) {
			if r.check(what, err) {
				if diff := sparse.RelMaxDiff(got, want); !(diff <= relTol) {
					r.fail("%s: differs from Algorithm 1 by %g (tolerance %g)", what, diff, relTol)
				}
			}
		}
		verify("standard MPK", errs[0], yStd, b.refK[j])
		verify("FB MPK", errs[1], yFB, b.refK[j])
		verify("level-blocked MPK", errs[2], yLB, b.refK[j])
		verify("FB SSpMV", errs[4], ySS, b.refCombo[j])
		if r.check("FB MPKMulti", errs[3]) {
			for m := range yMulti {
				if diff := sparse.RelMaxDiff(yMulti[m], b.refK[m]); !(diff <= relTol) {
					r.fail("FB MPKMulti rhs %d: differs from Algorithm 1 by %g", m, diff)
					break
				}
			}
		}
		// The serial FB pipeline is deterministic: the same vector must
		// give the same bits on every repeat.
		if errs[1] == nil {
			if lastFB[j] != nil && !bitwiseEqual(lastFB[j], yFB) {
				r.fail("FB MPK: result for vector %d changed between repeats", j)
			}
			lastFB[j] = yFB
		}
	}
}

// registryLeg runs rounds of {8 x (hit-acquire, MPK, release), 1 x
// UpdateValues alternating two value sets} against the bed's registry.
// Each MPK result must equal bitwise the fresh-plan reference of the
// value set current when it was admitted.
func registryLeg(r *run, b *bed, tr *tracer, ids *opIDs, rounds int, budget time.Duration) {
	ctx := context.Background()
	mats := [2]*fbmpk.Matrix{b.a, b.alt}
	cur := 0
	acquireExec := func(record bool) {
		op := ids.new()
		var (
			p         *fbmpk.Plan
			y         []float64
			aErr, err error
		)
		root := tr.begin("bench.acquire_exec", -1, op)
		start := time.Now()
		dAcq := tr.timed("registry.acquire", root, op, func() { p, aErr = b.reg.AcquireCtx(ctx, mats[cur], b.opts...) })
		dRel := 0.0
		if aErr == nil {
			tr.timed("core.fb.mpk", root, op, func() { y, err = p.MPKCtx(ctx, b.xs[0], K) })
			dRel = tr.timed("registry.release", root, op, func() { b.reg.Release(p) }) //nolint:errcheck // release of a just-acquired plan
		} else {
			err = aErr
		}
		d := time.Since(start)
		tr.end(root)
		if record {
			r.samples.add("acquire_exec_ms", ms(d))
			r.samples.add("registry.acquire_hit_ms", dAcq)
			r.samples.add("registry.release_us", dRel*1e3)
		}
		if r.check("acquire+MPK+release", err) && !bitwiseEqual(y, b.regRef[cur]) {
			r.fail("acquire+MPK+release: result is not the bitwise reference of value set %d", cur)
		}
	}
	update := func(record bool) {
		cur ^= 1
		op := ids.new()
		var (
			p       *fbmpk.Plan
			swapped bool
			err     error
		)
		// When tracing, a request timeline makes the registry report the
		// plan-level swap it performs inside the call; that phase becomes
		// the child span, so the update's self time is the registry's own
		// share (fingerprints and re-key).
		uctx, tl := tr.timeline(ctx)
		sp := tr.begin("registry.update_values", -1, op)
		t0 := time.Now()
		p, swapped, err = b.reg.UpdateValuesCtx(uctx, mats[cur], b.opts...)
		d := ms(time.Since(t0))
		tr.end(sp)
		tr.adopt(tl, sp, op, "registry.update")
		if record {
			r.samples.add("update_ms", d)
		}
		if r.check("UpdateValues", err) {
			b.reg.Release(p) //nolint:errcheck // release of a just-acquired plan
			b.expectUpdated++
			if !swapped {
				r.fail("UpdateValues: fell back to a rebuild")
			}
		}
	}

	acquireExec(false)
	acquireExec(false)
	runtime.GC()
	start := time.Now()
	for round := 0; round < rounds; round++ {
		if round > 0 && time.Since(start) > budget {
			break
		}
		for i := 0; i < acquiresPerRound; i++ {
			acquireExec(true)
		}
		update(true)
	}
	if cur != 0 {
		// Leave the bed on its original values for whatever runs next.
		update(false)
	}
}

// httpResult is what one client keeps of a timed request.
type httpResult struct {
	client     int
	block      int // which eighth of its client's timed requests
	start, end time.Time
	serverMS   float64
	bytes      int
}

// keptReply is a reply body set aside for the bitwise check after the
// leg: decoding 1.5 MB of JSON inside the loop would steal the CPU the
// other client's request is being served on.
type keptReply struct {
	vec  int
	body []byte
}

// httpLeg drives POST /v1/mpk with full x0 and full result from
// httpClients closed-loop keep-alive clients (a solver needs the reply
// before its next step, so callers wait). Every reply is checked for
// 200 and n; one in eight is decoded afterwards and compared bitwise
// with the library result. It returns the timed requests.
func httpLeg(r *run, b *bed, tr *tracer, ids *opIDs, warm, timed int, budget time.Duration) (lat []httpResult) {
	type client struct {
		hc   *http.Client
		buf  bytes.Buffer
		res  []httpResult
		kept []keptReply
		att  int
		shed int
		errs []string
	}
	clients := make([]*client, httpClients)
	for i := range clients {
		clients[i] = &client{hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
	}
	nField := []byte(`"n":` + strconv.Itoa(b.a.Rows) + `,`)
	var opMu sync.Mutex
	nextOp := func() int64 { opMu.Lock(); defer opMu.Unlock(); return ids.new() }

	phase := func(count int, record bool) {
		var wg sync.WaitGroup
		start := time.Now()
		for ci, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < count; i++ {
					if i > 0 && time.Since(start) > budget {
						return
					}
					vec := (i*httpClients + ci) % len(b.bodies)
					op := nextOp()
					sp := tr.begin("serve.client_request", -1, op)
					t0 := time.Now()
					status, err := post(c.hc, b.url+"/v1/mpk", b.bodies[vec], &c.buf)
					d := time.Since(t0)
					tr.end(sp)
					c.att++
					body := c.buf.Bytes()
					switch {
					case err != nil:
						c.errs = append(c.errs, err.Error())
					case status != http.StatusOK:
						if status == http.StatusTooManyRequests {
							c.shed++
						}
						c.errs = append(c.errs, fmt.Sprintf("status %d: %.200s", status, body))
					case !bytes.Contains(body[:min(len(body), 256)], nField):
						c.errs = append(c.errs, fmt.Sprintf("reply does not carry %s", nField))
					default:
						if record {
							c.res = append(c.res, httpResult{client: ci, block: blockOf(i, count), start: t0, end: t0.Add(d),
								serverMS: elapsedField(body), bytes: len(body)})
						}
						if i%8 == 0 {
							c.kept = append(c.kept, keptReply{vec, append([]byte(nil), body...)})
						}
					}
				}
			}()
		}
		wg.Wait()
	}
	phase(warm, false)
	runtime.GC()
	phase(timed, true)

	refs := make(map[int][]float64)
	for _, c := range clients {
		c.hc.CloseIdleConnections()
		r.attempted += c.att
		r.shed += c.shed
		for _, e := range c.errs {
			r.fail("POST /v1/mpk: %s", e)
		}
		lat = append(lat, c.res...)
		for _, k := range c.kept {
			var resp serve.OpResponse
			if err := json.Unmarshal(k.body, &resp); err != nil {
				r.fail("POST /v1/mpk: undecodable reply: %v", err)
				continue
			}
			if refs[k.vec] == nil {
				ref, err := b.refPlan[0].MPK(b.xs[k.vec], K)
				if err != nil {
					r.fail("library reference: %v", err)
					continue
				}
				refs[k.vec] = ref
			}
			if !bitwiseEqual(resp.Result, refs[k.vec]) {
				r.fail("POST /v1/mpk: reply for vector %d is not bitwise the library result", k.vec)
			}
		}
	}
	return lat
}

// post sends one request and reads the whole reply into buf.
func post(hc *http.Client, url string, body []byte, buf *bytes.Buffer) (int, error) {
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := io.Copy(buf, resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// elapsedField reads the reply's elapsed_ns (the daemon's own timing of
// the plan call) without decoding the result array before it; 0 if
// absent.
func elapsedField(body []byte) float64 {
	const field = `"elapsed_ns":`
	i := bytes.LastIndex(body, []byte(field))
	if i < 0 {
		return 0
	}
	rest := body[i+len(field):]
	end := bytes.IndexAny(rest, ",}")
	if end < 0 {
		return 0
	}
	ns, err := strconv.ParseInt(string(rest[:end]), 10, 64)
	if err != nil {
		return 0
	}
	return float64(ns) / 1e6
}

// recordHTTP turns the leg's requests into samples: every latency as
// req_ms, and per block (the same eighth of each client's requests,
// which ran side by side) the median latency as a req_p50_ms sample and
// the clients' summed rates — each client's requests over the time it
// spent on them — as a req_per_s sample.
func recordHTTP(r *run, lat []httpResult) {
	type span struct {
		n          int
		start, end time.Time
	}
	var latencies [runBlocks][]float64
	var perClient [runBlocks][httpClients]span
	for _, l := range lat {
		d := ms(l.end.Sub(l.start))
		r.samples.add("req_ms", d)
		r.samples.add("serve.server_elapsed_ms", l.serverMS)
		r.samples.add("serve.resp_kb", float64(l.bytes)/1024)
		latencies[l.block] = append(latencies[l.block], d)
		c := &perClient[l.block][l.client]
		if c.n == 0 {
			c.start = l.start
		}
		c.n, c.end = c.n+1, l.end
	}
	for b := range latencies {
		if len(latencies[b]) == 0 {
			continue
		}
		r.samples.add("req_p50_ms", median(latencies[b]))
		rate := 0.0
		for _, c := range perClient[b] {
			if c.n > 0 {
				rate += float64(c.n) / c.end.Sub(c.start).Seconds()
			}
		}
		r.samples.add("req_per_s", rate)
	}
}
