package serve

import (
	"bytes"
	"math"
	"math/rand"
	"regexp"
	"strconv"
	"testing"
)

// strconvJSONFloat is the oracle: encoding/json's float64 rule spelled
// with strconv, as appendJSONFloat was before it computed the digits.
func strconvJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// jsonNumber is the JSON number grammar, anchored at both ends.
var jsonNumber = regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)

// parseJSONFloat is what parseFloatArray does with one number: the fast
// path, then ParseFloat for what it declines.
func parseJSONFloat(text []byte) (f float64, exact, ok bool) {
	f, end, exact := parseJSONNumber(text, 0, pow10Table())
	if end != len(text) {
		return 0, false, false
	}
	if !exact {
		var err error
		if f, err = strconv.ParseFloat(string(text), 64); err != nil {
			return 0, false, false
		}
	}
	return f, exact, true
}

// checkParse holds the number reader to the grammar and to ParseFloat,
// bitwise.
func checkParse(t *testing.T, text []byte) {
	t.Helper()
	if !jsonNumber.Match(text) {
		if f, _, ok := parseJSONFloat(text); ok {
			t.Fatalf("%q is not a JSON number, read as %v", text, f)
		}
		return
	}
	checkRead(t, text)
}

// checkRead holds the number reader to ParseFloat on a JSON number.
func checkRead(t *testing.T, text []byte) {
	t.Helper()
	f, _, ok := parseJSONFloat(text)
	want, err := strconv.ParseFloat(string(text), 64)
	if ok != (err == nil) || ok && math.Float64bits(f) != math.Float64bits(want) {
		t.Fatalf("%q: read %v (%#x, ok %v), ParseFloat %v (%#x, %v)", text, f, math.Float64bits(f), ok,
			want, math.Float64bits(want), err)
	}
}

// checkFloat holds the writer to the oracle for one finite float, and
// reads its text and a 17-digit spelling of it back.
func checkFloat(t *testing.T, f float64) {
	t.Helper()
	want := strconvJSONFloat(nil, f)
	got := appendJSONFloat(nil, f, pow10Table())
	if !bytes.Equal(got, want) {
		t.Fatalf("%#x: wrote %s, encoding/json writes %s", math.Float64bits(f), got, want)
	}
	checkRead(t, got)
	checkRead(t, strconv.AppendFloat(got[:0], f, 'e', 16, 64))
}

// TestJSONFloatSweep: every biased exponent with the boundary mantissas,
// both signs; the smallest subnormals (Schubfach's published two-digit
// branch prints 5e-324 as 4.9e-324); Clinger's 10^±22 edges; inputs the
// fast path must decline; and random values (bit patterns, uniform in
// [-1, 1), scaled normals, dyadic rationals), each written and read back.
func TestJSONFloatSweep(t *testing.T) {
	for bq := uint64(0); bq < 0x7FF; bq++ {
		for _, m := range []uint64{0, 1, 2, 3, 1 << 51, 1<<52 - 1} {
			f := math.Float64frombits(bq<<52 | m)
			checkFloat(t, f)
			checkFloat(t, -f)
			checkRead(t, strconv.AppendFloat(nil, f, 'e', 24, 64))
		}
	}
	for bits, want := range map[uint64]string{1: "5e-324", 2: "1e-323", 20: "1e-322", 1<<63 | 1: "-5e-324"} {
		if got := appendJSONFloat(nil, math.Float64frombits(bits), pow10Table()); string(got) != want {
			t.Fatalf("%#x: wrote %s, want %s", bits, got, want)
		}
	}
	for _, tc := range []struct {
		text  string
		exact bool // the fast path decides it
	}{
		{"1e22", true}, {"1e-22", true}, {"9007199254740991e22", true}, {"9007199254740991e-22", true},
		{"-4503599627370497e-22", true}, {"1e23", false}, {"1e-23", true}, {"9007199254740992e22", true},
		{"0e999", true}, {"-0e-999", true}, {"1.0000000000000000000000000000", false}, {"1000000000000000000000000", true},
		{"12345678901234567891", false}, {"1.2345678901234567891", false}, {"0.10000000000000000001", false},
		{"9007199254740993", false}, {"2.2250738585072014e-308", true},
		{"2.225073858507201e-308", false}, {"5e-324", false}, {"1e-400", false}, {"1.7976931348623157e308", true},
		{"1e309", false}, {"2.4703282292062328e-324", false},
	} {
		_, exact, _ := parseJSONFloat([]byte(tc.text))
		if exact != tc.exact {
			t.Errorf("%s: fast path %v, want %v", tc.text, exact, tc.exact)
		}
		checkParse(t, []byte(tc.text))
	}
	n := 2_000_000
	if testing.Short() || raceEnabled {
		n = 100_000
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < n; i++ {
		f := math.Float64frombits(rng.Uint64())
		switch i % 4 {
		case 1:
			f = 2*rng.Float64() - 1
		case 2:
			f = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		case 3:
			f = float64(rng.Int63n(1<<53)) / float64(int64(1)<<rng.Intn(64))
		}
		if !math.IsNaN(f) && !math.IsInf(f, 0) {
			checkFloat(t, f)
		}
	}
}

// FuzzJSONFloat checks both directions: bits to text against the strconv
// oracle (and the text read back), and any text against the grammar and
// ParseFloat.
func FuzzJSONFloat(f *testing.F) {
	for _, s := range []string{"0", "-0", "1", "-1.5", "1e22", "1e23", "9007199254740993", "5e-324", "1e-7",
		"2.2250738585072011e-308", "1.7976931348623157e308", "1e309", "01", "1.", ".5", "+1", "1e", "-", "0x10",
		"12345678901234567890123", "0.000000000000000000000000000001", "1E+2", "1e-0000000000000000000005"} {
		f.Add(uint64(len(s))*0x9E3779B97F4A7C15, s)
	}
	f.Add(uint64(1), "")
	f.Add(math.Float64bits(1e21), "1e21")
	f.Fuzz(func(t *testing.T, bits uint64, text string) {
		if v := math.Float64frombits(bits); !math.IsNaN(v) && !math.IsInf(v, 0) {
			checkFloat(t, v)
		}
		checkParse(t, []byte(text))
	})
}
