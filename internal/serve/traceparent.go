package serve

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
)

// W3C Trace Context (https://www.w3.org/TR/trace-context/) support:
// the daemon accepts an incoming "traceparent" header, continues its
// trace ID, and echoes a new server span under the same trace back to
// the client. A missing or malformed header restarts the trace with a
// freshly generated ID — the restart semantics the spec prescribes —
// so every request ends up with exactly one well-formed trace ID,
// carried by the response, the access log and the flight recorder.

// TraceparentHeader is the canonical header name.
const TraceparentHeader = "traceparent"

// TraceContext is one parsed or generated traceparent: the 16-byte
// trace ID shared by every hop of a request, the 8-byte ID of the
// span the header describes, and the trace flags (bit 0 = sampled).
type TraceContext struct {
	TraceID [16]byte
	SpanID  [8]byte
	Flags   byte
}

// ErrTraceparent reports a malformed traceparent header; callers
// treat it as "restart the trace", never as a request error.
var ErrTraceparent = errors.New("malformed traceparent")

// ParseTraceparent parses a traceparent header per the W3C spec:
// version "-" trace-id "-" parent-id "-" flags, all lowercase hex;
// version ff and all-zero IDs are invalid. Future versions (> 00) are
// accepted as long as the four known fields parse, tolerating a
// longer tail as the spec requires.
func ParseTraceparent(h string) (TraceContext, error) {
	var tc TraceContext
	if h == "" {
		return tc, fmt.Errorf("%w: empty header", ErrTraceparent)
	}
	parts := strings.Split(h, "-")
	if len(parts) < 4 {
		return tc, fmt.Errorf("%w: %d fields, want 4", ErrTraceparent, len(parts))
	}
	version, ok := hexField(parts[0], 1)
	if !ok {
		return tc, fmt.Errorf("%w: bad version %q", ErrTraceparent, parts[0])
	}
	if version[0] == 0xff {
		return tc, fmt.Errorf("%w: version ff is forbidden", ErrTraceparent)
	}
	if version[0] == 0 && len(parts) != 4 {
		return tc, fmt.Errorf("%w: version 00 takes exactly 4 fields, got %d", ErrTraceparent, len(parts))
	}
	traceID, ok := hexField(parts[1], 16)
	if !ok {
		return tc, fmt.Errorf("%w: bad trace-id %q", ErrTraceparent, parts[1])
	}
	if allZero(traceID) {
		return tc, fmt.Errorf("%w: all-zero trace-id", ErrTraceparent)
	}
	spanID, ok := hexField(parts[2], 8)
	if !ok {
		return tc, fmt.Errorf("%w: bad parent-id %q", ErrTraceparent, parts[2])
	}
	if allZero(spanID) {
		return tc, fmt.Errorf("%w: all-zero parent-id", ErrTraceparent)
	}
	flags, ok := hexField(parts[3], 1)
	if !ok {
		return tc, fmt.Errorf("%w: bad flags %q", ErrTraceparent, parts[3])
	}
	copy(tc.TraceID[:], traceID)
	copy(tc.SpanID[:], spanID)
	tc.Flags = flags[0]
	return tc, nil
}

// hexField decodes a lowercase hex field of exactly n bytes. The spec
// mandates lowercase; uppercase input is rejected.
func hexField(s string, n int) ([]byte, bool) {
	if len(s) != 2*n || strings.ContainsAny(s, "ABCDEF") {
		return nil, false
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return nil, false
	}
	return b, true
}

func allZero(b []byte) bool {
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}

// NewTraceContext generates a fresh sampled trace: random trace and
// span IDs, flags 01.
func NewTraceContext() TraceContext {
	var tc TraceContext
	fillRand(tc.TraceID[:])
	tc.SpanID = randomSpanID()
	tc.Flags = 0x01
	return tc
}

// randomSpanID generates the server's own span ID: the daemon is a
// new span in the caller's trace, so an echoed traceparent must not
// reuse the caller's parent-id.
func randomSpanID() [8]byte {
	var id [8]byte
	fillRand(id[:])
	return id
}

func fillRand(b []byte) {
	if _, err := rand.Read(b); err != nil {
		// crypto/rand never fails on supported platforms; a broken
		// entropy source must not take request serving down, so fall
		// back to a fixed non-zero pattern (IDs stay well-formed, only
		// uniqueness degrades).
		for i := range b {
			b[i] = byte(i + 1)
		}
	}
}

// TraceIDString returns the 32-hex-char trace ID — the correlation
// key the response, the access log and the flight recorder share.
func (tc TraceContext) TraceIDString() string { return hex.EncodeToString(tc.TraceID[:]) }

// String renders the context as a version-00 traceparent header.
func (tc TraceContext) String() string {
	return fmt.Sprintf("00-%s-%s-%02x",
		hex.EncodeToString(tc.TraceID[:]), hex.EncodeToString(tc.SpanID[:]), tc.Flags)
}
