package serve

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
)

// Wire types of the fbmpkd HTTP/JSON API. Requests reference matrices
// by the fingerprint key returned from upload, so the daemon never
// re-reads matrix bytes on the hot path; vectors may be omitted to
// select a deterministic default, keeping load-generator payloads
// O(1) in the matrix size.
//
// The wire contract is versioned: every endpoint lives under a
// /v1/... path and every response body carries an explicit api_version
// field. See DESIGN.md for the full contract.

// APIVersion is the wire-contract version stamped into every response
// body and reflected in the /v1/... path prefix. It moves only on a
// breaking change to the request or response shapes.
const APIVersion = "v1"

// GeneratorSpec is the JSON body of a generator-backed matrix upload:
// one of the paper's Table II suite stand-ins, scaled and seeded.
type GeneratorSpec struct {
	Name  string  `json:"name"`
	Scale float64 `json:"scale"`
	Seed  uint64  `json:"seed"`
}

// UploadResponse acknowledges a matrix upload with the fingerprint
// key subsequent operation requests reference it by. Cached reports
// that the same matrix (same key under the daemon's plan options) was
// already resident.
type UploadResponse struct {
	APIVersion string `json:"api_version"`
	Key        string `json:"key"`
	Rows       int    `json:"rows"`
	Cols       int    `json:"cols"`
	NNZ        int    `json:"nnz"`
	Cached     bool   `json:"cached"`
}

// UpdateResponse acknowledges a value update
// (POST /v1/matrix/{key}/values). The matrix moves to a new
// fingerprint key (values are part of the content fingerprint);
// subsequent operation requests must reference Key, not OldKey.
// Updated reports the fast path: true when a cached plan was updated
// in place by an epoch swap (its permutation, split, schedule, and
// tuning all reused), false when the daemon fell back to a full plan
// build (structure delta, or no plan cached). Epoch is the serving
// plan's value-epoch sequence number after the update.
type UpdateResponse struct {
	APIVersion string `json:"api_version"`
	OldKey     string `json:"old_key"`
	Key        string `json:"key"`
	Rows       int    `json:"rows"`
	NNZ        int    `json:"nnz"`
	Updated    bool   `json:"updated"`
	Epoch      uint64 `json:"epoch"`
}

// Result-shape selectors for OpRequest.Return.
const (
	// ReturnFull sends the whole result vector back (the default).
	ReturnFull = "full"
	// ReturnChecksum sends only a bitwise FNV-1a digest of the result —
	// what load generators use to verify determinism without paying
	// O(n) response bandwidth per request.
	ReturnChecksum = "checksum"
	// ReturnNone acknowledges completion with no result payload.
	ReturnNone = "none"
)

// OpRequest is the JSON body of /v1/mpk, /v1/sspmv and /v1/solve.
type OpRequest struct {
	// Matrix is the fingerprint key from a prior upload.
	Matrix string `json:"matrix"`
	// K is the power for MPK requests.
	K int `json:"k,omitempty"`
	// Coeffs are the polynomial coefficients for SSpMV requests.
	Coeffs []float64 `json:"coeffs,omitempty"`
	// X0 is the start vector; nil selects DefaultVector(n).
	X0 []float64 `json:"x0,omitempty"`
	// B is the right-hand side for solve requests; nil selects
	// DefaultVector(n).
	B []float64 `json:"b,omitempty"`
	// Sweeps is the symmetric Gauss-Seidel sweep count for solve
	// requests (0 = 1 sweep).
	Sweeps int `json:"sweeps,omitempty"`
	// TimeoutMS overrides the daemon's default per-request deadline,
	// clamped to its maximum. Fractional values are honored.
	TimeoutMS float64 `json:"timeout_ms,omitempty"`
	// Return selects the result shape: ReturnFull (default),
	// ReturnChecksum, or ReturnNone.
	Return string `json:"return,omitempty"`
}

// OpResponse is the success body of an operation request. TraceID is
// the request's W3C trace ID (also echoed in the Traceparent response
// header), the key that joins this response to the daemon's access
// log and /v1/debug/requests timelines.
type OpResponse struct {
	APIVersion string    `json:"api_version"`
	Op         string    `json:"op"`
	N          int       `json:"n"`
	Result     []float64 `json:"result,omitempty"`
	Checksum   string    `json:"checksum,omitempty"`
	ElapsedNS  int64     `json:"elapsed_ns"`
	TraceID    string    `json:"trace_id,omitempty"`
}

// ErrorKind classifies an ErrorResponse for programmatic clients; the
// HTTP status carries the same information for plain ones.
const (
	KindBadRequest = "bad_request"
	KindNotFound   = "not_found"
	KindOverload   = "overload"
	KindDeadline   = "deadline"
	KindCanceled   = "canceled"
	KindClosed     = "closed"
	KindInternal   = "internal"
	// KindNonFinite marks a 422: the operation ran, but its result holds
	// a NaN or infinity and the full vector was asked for, which JSON
	// cannot carry. "return":"checksum" (or "none") still answers.
	KindNonFinite = "non_finite"
)

// ErrorResponse is the JSON body of every non-2xx answer. TraceID
// carries the request's trace ID so a failed request is correlatable
// without a response body to inspect server-side.
type ErrorResponse struct {
	APIVersion string `json:"api_version"`
	Error      string `json:"error"`
	Kind       string `json:"kind,omitempty"`
	TraceID    string `json:"trace_id,omitempty"`
}

// DebugRequestsResponse is the body of GET /v1/debug/requests: the
// flight-recorder capture. Slowest holds the N slowest request
// timelines since startup (slowest first); RecentErrors the N most
// recent errored/shed ones (newest first). RequestsSeen counts every
// request the recorder was offered.
type DebugRequestsResponse struct {
	APIVersion   string        `json:"api_version"`
	RequestsSeen uint64        `json:"requests_seen"`
	Slowest      []FlightEntry `json:"slowest"`
	RecentErrors []FlightEntry `json:"recent_errors"`
}

// DefaultVector returns the deterministic start vector used when a
// request omits x0/b: the same cosine profile cmd/solve seeds its
// reference solution with, so daemon results are reproducible across
// processes without shipping vectors.
func DefaultVector(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Cos(float64(i) * 0.61)
	}
	return x
}

// Checksum digests a vector's exact bit patterns (FNV-1a over the
// little-endian float64 encoding). Two vectors share a checksum
// exactly when they are bitwise identical, which is the determinism
// contract the serving tests and load harness verify.
func Checksum(v []float64) string {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:]) //nolint:errcheck // hash.Hash never errors
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
