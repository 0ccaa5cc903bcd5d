package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync"
)

// The operation codec: OpRequest bodies decoded, and OpResponse bodies
// encoded, in one pass over the floats, each number read and written by
// jsonfloat.go; every other member, every body that is not the plain
// shape and every accept/reject decision stays encoding/json's.
// FuzzOpRequestDecode and TestOpResponseMatchesStdlib hold the two to
// stdlib parity, floats bitwise.

// bodyPool recycles the buffer an operation request reads its body into
// and then builds its reply in. sync.Pool drops its contents at GC, so a
// one-off 35 MB body does not stay resident.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxFloatText is the longest a float64 gets in a reply, comma included
// (-1.7976931348623157e+308,).
const maxFloatText = 25

// decodeOpRequest sets *req from data exactly as json.Unmarshal(data,
// req) on a zero OpRequest would: same error or none, same fields,
// float vectors bitwise.
func decodeOpRequest(data []byte, req *OpRequest) error {
	if decodeOpPlain(data, req) {
		return nil
	}
	*req = OpRequest{}
	return json.Unmarshal(data, req)
}

// decodeOpPlain walks the top-level object once. A member whose key is
// x0, b or coeffs and whose value is an array of JSON numbers is parsed
// in place; every other member is copied verbatim into a small object
// that encoding/json decodes. It reports false — req then holds garbage
// — for anything else: a body that is not one object and nothing after
// it, a key with an escape or a non-ASCII byte (json folds some of
// those onto ASCII letters), a vector member that is not a plain number
// array, or a small object encoding/json rejects.
func decodeOpPlain(data []byte, req *OpRequest) bool {
	i := skipSpace(data, 0)
	if i >= len(data) || data[i] != '{' {
		return false
	}
	rest := append(make([]byte, 0, 256), '{')
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == '}' {
		i++
	} else {
		for {
			keyEnd := skipString(data, i)
			if keyEnd < 0 {
				return false
			}
			key := data[i+1 : keyEnd-1]
			for _, c := range key {
				if c == '\\' || c >= 0x80 {
					return false
				}
			}
			v := skipSpace(data, keyEnd)
			if v >= len(data) || data[v] != ':' {
				return false
			}
			v = skipSpace(data, v+1)
			var end int
			var vec *[]float64
			switch { // encoding/json matches field names in any case
			case bytes.EqualFold(key, []byte("x0")):
				vec = &req.X0
			case bytes.EqualFold(key, []byte("b")):
				vec = &req.B
			case bytes.EqualFold(key, []byte("coeffs")):
				vec = &req.Coeffs
			}
			if vec != nil {
				if *vec, end = parseFloatArray(data, v); end < 0 {
					return false
				}
			} else {
				if end = skipValue(data, v); end < 0 {
					return false
				}
				if len(rest) > 1 {
					rest = append(rest, ',')
				}
				rest = append(append(append(rest, data[i:keyEnd]...), ':'), data[v:end]...)
			}
			i = skipSpace(data, end)
			if i >= len(data) {
				return false
			}
			if data[i] == '}' {
				i++
				break
			}
			if data[i] != ',' {
				return false
			}
			i = skipSpace(data, i+1)
		}
	}
	if skipSpace(data, i) != len(data) {
		return false
	}
	return json.Unmarshal(append(rest, '}'), req) == nil
}

func skipSpace(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\n' || data[i] == '\t' || data[i] == '\r') {
		i++
	}
	return i
}

// skipString returns the index past the string literal opening at
// data[i], -1 if none opens there or it does not close. Contents are
// not validated.
func skipString(data []byte, i int) int {
	if i >= len(data) || data[i] != '"' {
		return -1
	}
	for i++; i < len(data); i++ {
		switch data[i] {
		case '\\':
			i++
		case '"':
			return i + 1
		}
	}
	return -1
}

// skipValue returns the index past the value starting at data[i], -1 if
// it runs off the end. It finds extents only: the bytes are copied
// verbatim for encoding/json to judge, so a malformed value stays
// malformed there.
func skipValue(data []byte, i int) int {
	if i >= len(data) {
		return -1
	}
	switch data[i] {
	case '"':
		return skipString(data, i)
	case '{', '[':
		for depth := 0; i < len(data); i++ {
			switch data[i] {
			case '"':
				if i = skipString(data, i) - 1; i < 0 {
					return -1
				}
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return i + 1
				}
			}
		}
		return -1
	}
	for j := i; j < len(data); j++ { // a literal or number: up to the next delimiter
		switch data[j] {
		case ',', '}', ']', ' ', '\n', '\t', '\r':
			if j == i {
				return -1
			}
			return j
		}
	}
	return len(data)
}

// parseFloatArray parses the array opening at data[i] when it holds
// nothing but JSON numbers, returning the values (non-nil, as
// encoding/json leaves an empty array) and the index past the ']';
// end is -1 for any other content, including a number ParseFloat
// rejects as out of range.
func parseFloatArray(data []byte, i int) (out []float64, end int) {
	if i >= len(data) || data[i] != '[' {
		return nil, -1
	}
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == ']' {
		return []float64{}, i + 1
	}
	// One element per comma up to the first ']' (a plain array nests
	// nothing), so the slice is sized once.
	if closing := bytes.IndexByte(data[i:], ']'); closing >= 0 {
		out = make([]float64, 0, bytes.Count(data[i:i+closing], []byte{','})+1)
	}
	pow := pow10Table()
	for {
		f, j, exact := parseJSONNumber(data, i, pow)
		if j < 0 {
			return nil, -1
		}
		if !exact {
			var err error
			if f, err = strconv.ParseFloat(string(data[i:j]), 64); err != nil {
				return nil, -1
			}
		}
		out = append(out, f)
		i = skipSpace(data, j)
		if i >= len(data) {
			return nil, -1
		}
		if data[i] == ']' {
			return out, i + 1
		}
		if data[i] != ',' {
			return nil, -1
		}
		i = skipSpace(data, i+1)
	}
}

// nonFiniteError reports a result vector JSON cannot carry.
type nonFiniteError struct {
	index int
	value float64
}

func (e *nonFiniteError) Error() string {
	return fmt.Sprintf(`result[%d] is %v, which JSON cannot carry; ask for "return":"checksum" to get the digest of a non-finite result`,
		e.index, e.value)
}

// appendOpResponse appends json.Marshal(resp), byte for byte, to dst.
// encoding/json writes everything but the result floats: the response
// is marshalled around a one-zero placeholder vector and the real
// vector is spliced in its place. A NaN or infinity in the result is a
// *nonFiniteError naming the first one.
func appendOpResponse(dst []byte, resp *OpResponse) ([]byte, error) {
	if len(resp.Result) == 0 {
		b, err := json.Marshal(resp)
		return append(dst, b...), err
	}
	shell := *resp
	shell.Result = []float64{0}
	b, err := json.Marshal(&shell)
	if err != nil {
		return dst, err
	}
	// A quote inside a JSON string is escaped, so this matches the
	// member itself and never a string's contents.
	const opening = `"result":[`
	cut := bytes.Index(b, []byte(opening+"0]")) + len(opening)
	dst = append(dst, b[:cut]...)
	pow := pow10Table()
	for i, f := range resp.Result {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return dst, &nonFiniteError{index: i, value: f}
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONFloat(dst, f, pow)
	}
	return append(dst, b[cut+1:]...), nil
}
