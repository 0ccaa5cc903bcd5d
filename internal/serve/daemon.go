package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fbmpk"
	"fbmpk/internal/expo"
	"fbmpk/internal/mmio"
)

// Config sizes a daemon Server. The zero value is serviceable: an
// unbounded registry, 4x-GOMAXPROCS admission, 30s default deadlines.
type Config struct {
	// RegistryCapacity bounds the plan cache (<= 0 = unbounded).
	RegistryCapacity int
	// MaxInFlight bounds concurrently executing operation requests;
	// excess requests are shed with 429 (<= 0 = 4x GOMAXPROCS).
	MaxInFlight int
	// DefaultTimeout is the per-request deadline applied when a request
	// carries no timeout_ms (<= 0 = 30s).
	DefaultTimeout time.Duration
	// MaxTimeout clamps client-requested deadlines (<= 0 = 5m).
	MaxTimeout time.Duration
	// MaxBodyBytes caps request bodies, uploads included
	// (<= 0 = 256 MiB).
	MaxBodyBytes int64
	// MaxMatrices caps resident uploaded matrices (<= 0 = 64).
	MaxMatrices int
	// PlanOptions are the fixed build options (threads, engine, ...)
	// every plan the daemon builds uses; they are part of the
	// fingerprint keys handed back from upload.
	PlanOptions []fbmpk.Option
	// Logger receives the structured access/lifecycle records (one
	// per finished request). nil disables access logging; tracing,
	// histograms, and the flight recorder stay on regardless.
	Logger *slog.Logger
}

func (c Config) defaultTimeout() time.Duration {
	if c.DefaultTimeout <= 0 {
		return 30 * time.Second
	}
	return c.DefaultTimeout
}

func (c Config) maxTimeout() time.Duration {
	if c.MaxTimeout <= 0 {
		return 5 * time.Minute
	}
	return c.MaxTimeout
}

func (c Config) maxBody() int64 {
	if c.MaxBodyBytes <= 0 {
		return 256 << 20
	}
	return c.MaxBodyBytes
}

func (c Config) maxMatrices() int {
	if c.MaxMatrices <= 0 {
		return 64
	}
	return c.MaxMatrices
}

// Server is the daemon state behind the fbmpkd HTTP surface: the
// uploaded-matrix store, the fingerprint-keyed plan registry every
// operation runs against, and the admission gate. Create one with
// New, mount Handler on an http.Server (NewHTTPServer), and Close it
// after the HTTP server has drained.
type Server struct {
	cfg Config
	reg *fbmpk.Registry
	adm *admission

	// matrices is the uploaded-matrix store. Each matrix sits under the
	// string form of PlanFingerprint(a, PlanOptions...) — kept beside it
	// as key — and is never mutated once stored (a value update stores a
	// new matrix under a new key), so its key stays its fingerprint.
	// That is what lets handleOp acquire the plan by key, without the
	// registry validating and hashing the matrix again per request.
	mu       sync.RWMutex
	matrices map[string]resident

	started time.Time
	// outcomes counts finished requests by op and outcome class, the
	// daemon's contribution to /metrics beyond the registry families.
	outcomes sync.Map // "op|outcome" -> *atomic.Uint64
	// obs is the request-observability state: access logger, flight
	// recorder, per-(op, outcome) latency histograms.
	obs *obs
}

// resident is one stored matrix with its fingerprint in registry form.
type resident struct {
	a   *fbmpk.Matrix
	key fbmpk.PlanKey
}

// New builds a daemon server. Close it to tear down the plan
// registry after the HTTP layer has drained.
func New(cfg Config) *Server {
	return &Server{
		cfg:      cfg,
		reg:      fbmpk.NewRegistry(cfg.RegistryCapacity),
		adm:      newAdmission(cfg.MaxInFlight),
		matrices: make(map[string]resident),
		started:  time.Now(),
		obs:      newObs(cfg.Logger),
	}
}

// Registry exposes the plan cache (for tests and metrics embedding).
func (s *Server) Registry() *fbmpk.Registry { return s.reg }

// Close releases the plan registry. Call only after the HTTP server
// has shut down; plans still referenced by in-flight requests are
// closed by their final Release.
func (s *Server) Close() { s.reg.Close() }

// Handler returns the daemon's HTTP surface (wire contract version
// APIVersion; see DESIGN.md):
//
//	POST /v1/matrix               upload (MatrixMarket body, or JSON generator spec)
//	POST /v1/matrix/{key}/values  swap the values of a resident matrix
//	POST /v1/mpk                  A^k x0 against an uploaded matrix
//	POST /v1/sspmv                sum coeffs[i] A^i x0
//	POST /v1/solve                symmetric Gauss-Seidel sweeps for A x = b
//	GET  /v1/matrices             resident matrices and their keys
//	GET  /v1/debug/requests       flight recorder: slowest + recently failed request timelines
//	GET  /healthz                 readiness probe
//	GET  /metrics                 Prometheus text: daemon counters + plan cache
//	/debug/pprof                  via RegistryDebugHandler
//
// Any other path, the pre-versioning aliases (/matrix, /mpk, ...)
// included, is a 404 with a not_found body.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/matrix", s.handleUpload)
	mux.HandleFunc("/v1/matrix/", s.handleValues)
	mux.HandleFunc("/v1/mpk", s.handleOp("mpk"))
	mux.HandleFunc("/v1/sspmv", s.handleOp("sspmv"))
	mux.HandleFunc("/v1/solve", s.handleOp("solve"))
	mux.HandleFunc("/v1/matrices", s.handleList)
	mux.HandleFunc("/v1/debug/requests", s.handleDebugRequests)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", s.handleMetrics)
	// Only pprof is taken from the library's debug surface: its /metrics
	// is superseded by the daemon's (which embeds the same registry
	// families), and its /trace has nothing to show — daemon plans run
	// with no lane recorder, and a request's phases are the flight
	// recorder's.
	mux.Handle("/debug/", fbmpk.RegistryDebugHandler(s.reg))
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			writeErr(w, http.StatusNotFound, KindNotFound, "no such endpoint")
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "fbmpkd: FBMPK serving daemon (API "+APIVersion+")")
		fmt.Fprintln(w, "  POST /v1/matrix               upload a matrix (MatrixMarket body or JSON generator spec)")
		fmt.Fprintln(w, "  POST /v1/matrix/{key}/values  swap the values of a resident matrix (same body formats)")
		fmt.Fprintln(w, "  POST /v1/mpk                  {\"matrix\":key,\"k\":5}")
		fmt.Fprintln(w, "  POST /v1/sspmv                {\"matrix\":key,\"coeffs\":[...]}")
		fmt.Fprintln(w, "  POST /v1/solve                {\"matrix\":key,\"sweeps\":2}")
		fmt.Fprintln(w, "  GET  /v1/matrices             resident matrices")
		fmt.Fprintln(w, "  GET  /v1/debug/requests       slowest and recently failed request timelines")
		fmt.Fprintln(w, "  GET  /metrics                 Prometheus text exposition")
		fmt.Fprintln(w, "  GET  /debug/pprof             profiling")
	})
	return mux
}

// matrix looks up an uploaded matrix by its fingerprint key.
func (s *Server) matrix(key string) (resident, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, ok := s.matrices[key]
	return m, ok
}

// handleUpload ingests a matrix and answers with its fingerprint key.
// JSON bodies are generator specs; anything else is parsed as a
// MatrixMarket document.
func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	q := s.begin(w, r, "upload")
	if r.Method != http.MethodPost {
		q.fail(w, http.StatusMethodNotAllowed, KindBadRequest, "POST required")
		return
	}
	decStart := time.Now()
	a, err := s.parseMatrixBody(w, r)
	if err != nil {
		q.fail(w, http.StatusBadRequest, KindBadRequest, err.Error())
		return
	}
	fp := fbmpk.PlanFingerprint(a, s.cfg.PlanOptions...)
	key := fp.String()
	q.phase("decode", decStart)

	s.mu.Lock()
	_, cached := s.matrices[key]
	if !cached {
		if len(s.matrices) >= s.cfg.maxMatrices() {
			s.mu.Unlock()
			q.fail(w, http.StatusInsufficientStorage, KindOverload,
				fmt.Sprintf("matrix store at its %d-matrix limit", s.cfg.maxMatrices()))
			return
		}
		s.matrices[key] = resident{a: a, key: fp}
	}
	s.mu.Unlock()

	q.ok(w, UploadResponse{
		APIVersion: APIVersion,
		Key:        key, Rows: a.Rows, Cols: a.Cols, NNZ: len(a.Val), Cached: cached,
	})
}

// parseMatrixBody decodes the matrix body shared by upload and value
// update: a JSON body is a generator spec, anything else is parsed as
// a MatrixMarket document.
func (s *Server) parseMatrixBody(w http.ResponseWriter, r *http.Request) (*fbmpk.Matrix, error) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.maxBody())
	if strings.HasPrefix(r.Header.Get("Content-Type"), "application/json") {
		var spec GeneratorSpec
		if err := json.NewDecoder(body).Decode(&spec); err != nil {
			return nil, fmt.Errorf("decoding generator spec: %v", err)
		}
		a, err := fbmpk.GenerateSuiteMatrix(spec.Name, spec.Scale, spec.Seed)
		if err != nil {
			return nil, fmt.Errorf("generating matrix: %v", err)
		}
		return a, nil
	}
	a, _, err := mmio.Read(body)
	if err != nil {
		return nil, fmt.Errorf("parsing MatrixMarket body: %v", err)
	}
	return a, nil
}

// handleValues serves POST /v1/matrix/{key}/values: replace the values
// of a resident matrix, preferring an in-place epoch swap on its
// cached plan over a full rebuild (Registry.UpdateValues). The matrix
// moves to the new content fingerprint returned in the response;
// in-flight operations admitted before the swap finish bitwise on the
// values they started with.
func (s *Server) handleValues(w http.ResponseWriter, r *http.Request) {
	key, sub, ok := strings.Cut(strings.TrimPrefix(r.URL.Path, "/v1/matrix/"), "/")
	if !ok || sub != "values" || key == "" {
		writeErr(w, http.StatusNotFound, KindNotFound, "no such endpoint")
		return
	}
	q := s.begin(w, r, "update")
	if r.Method != http.MethodPost {
		q.fail(w, http.StatusMethodNotAllowed, KindBadRequest, "POST required")
		return
	}
	if _, ok := s.matrix(key); !ok {
		q.fail(w, http.StatusNotFound, KindNotFound,
			fmt.Sprintf("no matrix with key %q (upload it via POST /v1/matrix)", key))
		return
	}
	decStart := time.Now()
	a, err := s.parseMatrixBody(w, r)
	if err != nil {
		q.fail(w, http.StatusBadRequest, KindBadRequest, err.Error())
		return
	}
	q.phase("decode", decStart)
	// Updates do plan work — an O(nnz) swap, or a full build on the
	// rebuild fallback — so they pass the same admission gate as
	// operations.
	if !s.adm.tryEnter() {
		q.shed(w, fmt.Sprintf("admission limit of %d concurrent requests reached", s.adm.limit()))
		return
	}
	defer s.adm.leave()
	ctx, cancel := context.WithTimeout(q.ctx(r), s.cfg.defaultTimeout())
	defer cancel()

	acqStart := time.Now()
	plan, fp, updated, err := s.reg.UpdateValuesKeyed(ctx, a, s.cfg.PlanOptions...)
	if err != nil {
		q.opErr(w, err)
		return
	}
	q.phase("acquire", acqStart)
	epoch := plan.Epoch()
	defer s.reg.Release(plan) //nolint:errcheck // release of a just-acquired plan

	// Re-home the resident matrix under its new content key; operation
	// requests reference the new key from here on.
	newKey := fp.String()
	s.mu.Lock()
	delete(s.matrices, key)
	s.matrices[newKey] = resident{a: a, key: fp}
	s.mu.Unlock()

	q.ok(w, UpdateResponse{
		APIVersion: APIVersion,
		OldKey:     key, Key: newKey,
		Rows: a.Rows, NNZ: len(a.Val),
		Updated: updated, Epoch: epoch,
	})
}

// getOnly answers 405 with an error body to anything but GET and
// reports whether the request may proceed. The read-only endpoints it
// guards run outside a reqScope: they do no plan work, so they are
// neither counted nor logged.
func getOnly(w http.ResponseWriter, r *http.Request) bool {
	if r.Method == http.MethodGet {
		return true
	}
	writeErr(w, http.StatusMethodNotAllowed, KindBadRequest, "GET required")
	return false
}

// handleList reports the resident matrices.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	if !getOnly(w, r) {
		return
	}
	type entry struct {
		Key  string `json:"key"`
		Rows int    `json:"rows"`
		NNZ  int    `json:"nnz"`
	}
	s.mu.RLock()
	out := make([]entry, 0, len(s.matrices))
	for k, m := range s.matrices {
		out = append(out, entry{Key: k, Rows: m.a.Rows, NNZ: len(m.a.Val)})
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	writeJSON(w, http.StatusOK, out)
}

// timeout resolves a request's deadline from its timeout_ms, clamped
// to the daemon maximum.
func (s *Server) timeout(req *OpRequest) time.Duration {
	d := s.cfg.defaultTimeout()
	if req.TimeoutMS > 0 {
		d = time.Duration(req.TimeoutMS * float64(time.Millisecond))
	}
	if max := s.cfg.maxTimeout(); d > max {
		d = max
	}
	return d
}

// handleOp serves one operation endpoint: admission, decode, deadline
// propagation into the registry acquire and the plan's *Ctx entry
// point, and outcome-classified encoding.
func (s *Server) handleOp(op string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q := s.begin(w, r, op)
		if r.Method != http.MethodPost {
			q.fail(w, http.StatusMethodNotAllowed, KindBadRequest, "POST required")
			return
		}
		if !s.adm.tryEnter() {
			// Shed immediately; the Retry-After hint quotes the op's own
			// observed median service time back to the client.
			q.shed(w, fmt.Sprintf("admission limit of %d concurrent requests reached", s.adm.limit()))
			return
		}
		defer s.adm.leave()

		// One pooled buffer holds the request body while it is decoded
		// (the decoder copies everything it keeps) and then the reply.
		buf := bodyPool.Get().(*bytes.Buffer)
		defer bodyPool.Put(buf)
		buf.Reset()

		decStart := time.Now()
		var req OpRequest
		_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.maxBody()))
		if err == nil {
			err = decodeOpRequest(buf.Bytes(), &req)
		}
		if err != nil {
			q.fail(w, http.StatusBadRequest, KindBadRequest, fmt.Sprintf("decoding request: %v", err))
			return
		}
		q.phase("decode", decStart)
		m, ok := s.matrix(req.Matrix)
		if !ok {
			q.fail(w, http.StatusNotFound, KindNotFound,
				fmt.Sprintf("no matrix with key %q (upload it via POST /v1/matrix)", req.Matrix))
			return
		}

		// The deadline covers plan acquisition (including a coalesced
		// wait on another request's build) and the execution itself;
		// r.Context() chains client disconnects in as cancellation, and
		// q.ctx threads the phase timeline into both layers.
		ctx, cancel := context.WithTimeout(q.ctx(r), s.timeout(&req))
		defer cancel()

		// The store key is the plan key, so the usual request is a lookup;
		// only a plan that is not there yet, or not there any more
		// (evicted), takes the matrix through validation and hashing.
		acqStart := time.Now()
		plan, err := s.reg.AcquireKey(ctx, m.key)
		if errors.Is(err, fbmpk.ErrNotCached) {
			plan, err = s.reg.AcquireCtx(ctx, m.a, s.cfg.PlanOptions...)
		}
		if err != nil {
			q.opErr(w, err)
			return
		}
		q.phase("acquire", acqStart)
		defer s.reg.Release(plan) //nolint:errcheck // release of a just-acquired plan

		start := time.Now()
		var out []float64
		switch op {
		case "mpk":
			out, err = plan.MPKCtx(ctx, s.x0(&req, plan.N()), req.K)
		case "sspmv":
			out, err = plan.SSpMVCtx(ctx, req.Coeffs, s.x0(&req, plan.N()))
		case "solve":
			b := req.B
			if b == nil {
				b = DefaultVector(plan.N())
			}
			sweeps := req.Sweeps
			if sweeps == 0 {
				sweeps = 1
			}
			x := make([]float64, plan.N())
			if err = plan.SymGSCtx(ctx, b, x, sweeps); err == nil {
				out = x
			}
		default:
			err = fmt.Errorf("unknown op %q", op)
		}
		elapsed := time.Since(start)
		if err != nil {
			q.opErr(w, err)
			return
		}

		resp := OpResponse{APIVersion: APIVersion, Op: op, N: len(out),
			ElapsedNS: elapsed.Nanoseconds(), TraceID: q.traceID()}
		switch req.Return {
		case ReturnNone:
		case ReturnChecksum:
			resp.Checksum = Checksum(out)
		case "", ReturnFull:
			resp.Result = out
		default:
			q.fail(w, http.StatusBadRequest, KindBadRequest,
				fmt.Sprintf("unknown return shape %q", req.Return))
			return
		}
		encStart := time.Now()
		buf.Reset()
		buf.Grow(len(resp.Result)*maxFloatText + 512) // the reply fits: no regrowth outside the pool
		reply, err := appendOpResponse(buf.AvailableBuffer(), &resp)
		var nf *nonFiniteError
		switch {
		case errors.As(err, &nf):
			q.fail(w, http.StatusUnprocessableEntity, KindNonFinite, err.Error())
		case err != nil:
			q.fail(w, http.StatusInternalServerError, KindInternal, fmt.Sprintf("encoding response: %v", err))
		default:
			writeBody(w, http.StatusOK, append(reply, '\n')) // as json.Encoder ends a document
			q.phase("encode", encStart)
			q.finish(http.StatusOK, outcomeOK)
		}
	}
}

// x0 resolves the request's start vector.
func (s *Server) x0(req *OpRequest, n int) []float64 {
	if req.X0 != nil {
		return req.X0
	}
	return DefaultVector(n)
}

// classifyErr maps an execution error onto status + kind. The error
// text is passed through verbatim, so a deadline failure surfaces the
// wrapped context.DeadlineExceeded message the *Ctx entry points
// produce.
func classifyErr(err error) (status int, kind string) {
	status, kind = http.StatusInternalServerError, KindInternal
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		status, kind = http.StatusGatewayTimeout, KindDeadline
	case errors.Is(err, context.Canceled):
		// The client went away; the status is mostly for logs.
		status, kind = http.StatusRequestTimeout, KindCanceled
	case errors.Is(err, fbmpk.ErrClosed), errors.Is(err, fbmpk.ErrRegistryClosed):
		status, kind = http.StatusServiceUnavailable, KindClosed
	case errors.Is(err, fbmpk.ErrDimension), errors.Is(err, fbmpk.ErrBadPower),
		errors.Is(err, fbmpk.ErrBadCoeffs), errors.Is(err, fbmpk.ErrBadSweeps),
		errors.Is(err, fbmpk.ErrEmptyBlock), errors.Is(err, fbmpk.ErrNoSplit),
		errors.Is(err, fbmpk.ErrInvalidMatrix), errors.Is(err, fbmpk.ErrNotSquare):
		status, kind = http.StatusBadRequest, KindBadRequest
	}
	return status, kind
}

// opErr settles the scope with an execution error.
func (q *reqScope) opErr(w http.ResponseWriter, err error) {
	status, kind := classifyErr(err)
	q.fail(w, status, kind, err.Error())
}

// count bumps the per-(op, outcome) request counter.
func (s *Server) count(op, outcome string) {
	key := op + "|" + outcome
	c, ok := s.outcomes.Load(key)
	if !ok {
		c, _ = s.outcomes.LoadOrStore(key, new(atomic.Uint64))
	}
	c.(*atomic.Uint64).Add(1)
}

// handleDebugRequests serves the flight-recorder capture: the N
// slowest request timelines since startup and the N most recent
// errored/shed ones, trace IDs and phase breakdowns included.
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	if !getOnly(w, r) {
		return
	}
	slowest, failures, seen := s.obs.flight.snapshot()
	writeJSON(w, http.StatusOK, DebugRequestsResponse{
		APIVersion:   APIVersion,
		RequestsSeen: seen,
		Slowest:      slowest,
		RecentErrors: failures,
	})
}

// handleMetrics renders the daemon families (via the shared expo
// writer) followed by the plan-cache families, as one text document.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = expo.WriteDaemonMetrics(w, s.daemonSnapshot())
	_ = expo.WriteRegistryMetrics(w, expo.RegistrySnapshot{Name: "registry", Stats: s.reg.Stats()})
}

// daemonSnapshot captures the daemon-side metric state.
func (s *Server) daemonSnapshot() expo.DaemonSnapshot {
	var counts []expo.DaemonRequestCount
	s.outcomes.Range(func(k, v any) bool {
		op, outcome, _ := strings.Cut(k.(string), "|")
		counts = append(counts, expo.DaemonRequestCount{
			Op: op, Outcome: outcome, Count: v.(*atomic.Uint64).Load(),
		})
		return true
	})
	sort.Slice(counts, func(i, j int) bool {
		if counts[i].Op != counts[j].Op {
			return counts[i].Op < counts[j].Op
		}
		return counts[i].Outcome < counts[j].Outcome
	})
	lats := s.obs.snapshotHists()
	sort.Slice(lats, func(i, j int) bool {
		if lats[i].Op != lats[j].Op {
			return lats[i].Op < lats[j].Op
		}
		return lats[i].Outcome < lats[j].Outcome
	})
	s.mu.RLock()
	resident := len(s.matrices)
	s.mu.RUnlock()
	return expo.DaemonSnapshot{
		GoVersion:      runtime.Version(),
		APIVersion:     APIVersion,
		UptimeSeconds:  time.Since(s.started).Seconds(),
		InFlight:       s.adm.inFlight(),
		AdmissionLimit: s.adm.limit(),
		Matrices:       resident,
		Rejected:       s.adm.rejected.Load(),
		Requests:       counts,
		Latency:        lats,
	}
}

// writeJSON encodes v as the response body with the given status. The
// body is encoded before the header goes out, so a value encoding/json
// refuses is a 500 with an error body, not the given status and no
// bytes.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		body, _ = json.Marshal(ErrorResponse{APIVersion: APIVersion,
			Error: fmt.Sprintf("encoding response: %v", err), Kind: KindInternal})
	}
	writeBody(w, status, append(body, '\n'))
}

// writeBody sends an encoded JSON body with its length.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body) // a failed write is a client that left
}

// writeErr encodes an ErrorResponse with the given status and kind.
func writeErr(w http.ResponseWriter, status int, kind, msg string) {
	writeJSON(w, status, ErrorResponse{APIVersion: APIVersion, Error: msg, Kind: kind})
}
