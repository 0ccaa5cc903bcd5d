package serve

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/bits"
	"sync"
)

// The float half of the operation codec: a JSON number read into the
// float64 strconv.ParseFloat would return, and a float64 written as
// encoding/json writes it, both exact by construction and both over one
// table of powers of ten. Reading is Clinger's exact path, then
// Eisel–Lemire (nigeltao.github.io/blog/2020/eisel-lemire.html); what
// either declines goes to strconv.ParseFloat. Writing is Giulietti's
// Schubfach ("The Schubfach way to render doubles", 2020): the shortest
// decimal that rounds back, the closest of those, ties to even — what
// strconv's shortest formatting produces.

// pow10Min and pow10Max bound the table: every exponent Eisel–Lemire
// accepts and every 10^-k Schubfach asks for.
const pow10Min, pow10Max = -348, 347

// pow10s[e-pow10Min] is {hi, lo} of floor(10^e · 2^(127-⌊log2 10^e⌋)):
// 10^e normalised to 128 bits, top bit set, rounded down.
type pow10s = [pow10Max - pow10Min + 1][2]uint64

// pow10Table builds the table once, on first use, from exact integers.
var pow10Table = sync.OnceValue(func() *pow10s {
	t := new(pow10s)
	set := func(e int, m *big.Int) {
		var b [16]byte
		m.FillBytes(b[:])
		t[e-pow10Min] = [2]uint64{binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])}
	}
	p, m := big.NewInt(1), new(big.Int)
	for e := 0; e <= -pow10Min; e++ { // p = 10^e, bit length n
		n := p.BitLen()
		if e <= pow10Max {
			if n > 128 {
				set(e, m.Rsh(p, uint(n-128)))
			} else {
				set(e, m.Lsh(p, uint(128-n)))
			}
		}
		if e > 0 { // 2^(n+127) / 10^e lies in (2^127, 2^128)
			set(-e, m.Div(m.Lsh(big.NewInt(1), uint(n+127)), p))
		}
		p.Mul(p, big.NewInt(10))
	}
	return t
})

// exactPow10 are the powers of ten a float64 holds exactly.
var exactPow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// parseJSONNumber scans the JSON number at data[i] —
// -?(0|[1-9]\d*)(\.\d+)?([eE][+-]?\d+)? — once, checking the grammar
// (strconv.ParseFloat alone admits +1, .5, 0x10, 1_0, nan) while it
// gathers up to 19 significant digits and a decimal exponent. end is the
// index past the number, -1 if the grammar fails there; the caller checks
// that a delimiter follows. exact reports that f is the float64
// ParseFloat returns; it is false, and data[i:end] is ParseFloat's to
// convert, when a nonzero digit did not fit in the 19, when
// Eisel–Lemire cannot decide, and when the result would be subnormal,
// infinite or beyond the table.
func parseJSONNumber(data []byte, i int, pow *pow10s) (f float64, end int, exact bool) {
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	var man uint64
	nd, exp := 0, 0 // digits in man from the first nonzero; man·10^exp is the value
	dropped := false
	start := i
	if i < len(data) && data[i] == '0' {
		i++
	} else {
		for ; i < len(data) && data[i]-'0' <= 9; i++ {
			if nd < 19 {
				man = man*10 + uint64(data[i]-'0')
				nd++
			} else {
				exp++
				dropped = dropped || data[i] != '0'
			}
		}
		if i == start {
			return 0, -1, false
		}
	}
	if i < len(data) && data[i] == '.' {
		i++
		start = i
		for ; i < len(data) && data[i]-'0' <= 9; i++ {
			if nd < 19 {
				man = man*10 + uint64(data[i]-'0')
				exp--
				if man != 0 {
					nd++
				}
			} else {
				dropped = dropped || data[i] != '0'
			}
		}
		if i == start {
			return 0, -1, false
		}
	}
	if i < len(data) && data[i]|0x20 == 'e' {
		i++
		eneg := false
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			eneg = data[i] == '-'
			i++
		}
		start = i
		e := 0
		for ; i < len(data) && data[i]-'0' <= 9; i++ {
			if e < 10000 { // far past any exponent that changes the result
				e = e*10 + int(data[i]-'0')
			}
		}
		if i == start {
			return 0, -1, false
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	switch {
	case dropped:
		return 0, i, false
	case man == 0:
		if neg {
			f = math.Copysign(0, -1)
		}
		return f, i, true
	case man < 1<<53 && exp >= -22 && exp <= 22:
		// Clinger: both operands exact, so one IEEE operation rounds once.
		if f = float64(man); exp < 0 {
			f /= exactPow10[-exp]
		} else {
			f *= exactPow10[exp]
		}
	default:
		if f, exact = eiselLemire(man, exp, pow); !exact {
			return 0, i, false
		}
	}
	if neg {
		f = -f
	}
	return f, i, true
}

// eiselLemire converts man·10^exp10 (man > 0) when a 128-bit product
// with the truncated power decides the rounding; ok is false when it
// cannot, or when the result is subnormal, infinite or out of the table.
func eiselLemire(man uint64, exp10 int, pow *pow10s) (f float64, ok bool) {
	if exp10 < pow10Min || exp10 > pow10Max {
		return 0, false
	}
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	exp2 := uint64(217706*exp10>>16+64+1023) - uint64(clz) // 217706/2^16 ≈ log2(10)
	p := &pow[exp10-pow10Min]
	hi, lo := bits.Mul64(man, p[0])
	if hi&0x1FF == 0x1FF && lo+man < man { // the truncated low word might carry
		yHi, yLo := bits.Mul64(man, p[1])
		mHi, mLo := hi, lo+yHi
		if mLo < lo {
			mHi++
		}
		if mHi&0x1FF == 0x1FF && mLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		hi, lo = mHi, mLo
	}
	msb := hi >> 63
	mant := hi >> (msb + 9) // 54 bits
	exp2 -= 1 ^ msb
	if lo == 0 && hi&0x1FF == 0 && mant&3 == 1 { // exactly halfway, or below it by less than the error
		return 0, false
	}
	mant += mant & 1
	mant >>= 1
	if mant>>53 > 0 {
		mant >>= 1
		exp2++
	}
	if exp2-1 >= 0x7FF-1 { // subnormal, zero, or infinite
		return 0, false
	}
	return math.Float64frombits(exp2<<52 | mant&(1<<52-1)), true
}

const (
	digitPairs = "00010203040506070809101112131415161718192021222324252627282930313233343536373839" +
		"404142434445464748495051525354555657585960616263646566676869707172737475767778798081828384858687888990919293949596979899"
	zeros = "000000000000000000000"
)

// appendJSONFloat appends a finite f in encoding/json's float64 form:
// the shortest digits that round-trip, exponent form only below 1e-6 or
// from 1e21 up, with an exponent of one to three digits (encoding/json
// trims strconv's e-07 to e-7; a positive one is at least 21).
func appendJSONFloat(dst []byte, f float64, pow *pow10s) []byte {
	b := math.Float64bits(f)
	if b>>63 != 0 {
		dst = append(dst, '-')
		b &^= 1 << 63
	}
	if b == 0 {
		return append(dst, '0')
	}
	d, e := shortestDecimal(b, pow)
	var buf [20]byte
	n := len(buf)
	for ; d >= 100; d /= 100 {
		n -= 2
		r := d % 100
		buf[n], buf[n+1] = digitPairs[2*r], digitPairs[2*r+1]
	}
	if d >= 10 {
		n -= 2
		buf[n], buf[n+1] = digitPairs[2*d], digitPairs[2*d+1]
	} else {
		n--
		buf[n] = byte('0' + d)
	}
	digits := buf[n:]
	nd := len(digits)
	point := nd + e // digits before the decimal point
	if abs := math.Float64frombits(b); abs < 1e-6 || abs >= 1e21 {
		dst = append(dst, digits[0])
		if nd > 1 {
			dst = append(append(dst, '.'), digits[1:]...)
		}
		x, sign := point-1, byte('+')
		if x < 0 {
			x, sign = -x, '-'
		}
		dst = append(dst, 'e', sign)
		if x >= 100 {
			dst = append(dst, byte('0'+x/100))
			x %= 100
		} else if x < 10 {
			return append(dst, byte('0'+x))
		}
		return append(dst, digitPairs[2*x], digitPairs[2*x+1])
	}
	switch {
	case point <= 0:
		dst = append(append(append(dst, "0."...), zeros[:-point]...), digits...)
	case point >= nd:
		dst = append(append(dst, digits...), zeros[:point-nd]...)
	default:
		dst = append(append(append(dst, digits[:point]...), '.'), digits[point:]...)
	}
	return dst
}

// shortestDecimal returns d·10^e, trailing zeros stripped from d: of the
// decimals that round to the positive finite float64 with bits b, those
// with the fewest digits, and of those the closest, an even d on a tie.
// Schubfach's figure 7 without its two-digit minimum (the C_TINY branch,
// which prints 5e-324 as 4.9e-324).
func shortestDecimal(b uint64, pow *pow10s) (d uint64, e int) {
	c, q := b&(1<<52-1), -1074 // the value is c·2^q
	if bq := int(b >> 52); bq != 0 {
		c, q = c|1<<52, bq-1075
	}
	out := c & 1 // an odd c's rounding interval excludes its ends
	cb := c << 2
	cbl, cbr := cb-2, cb+2
	var k int // 10^k ≤ the interval's width < 10^(k+1)
	if c != 1<<52 || q == -1074 {
		k = int(int64(q) * 661971961083 >> 41) // ⌊q·log10 2⌋
	} else { // the float below is closer: the interval is 3/4 as wide
		cbl = cb - 1
		k = int((int64(q)*661971961083 - 274743187321) >> 41) // ⌊q·log10 2 + log10 3/4⌋
	}
	h := q + int(int64(-k)*913124641741>>38) + 2 // q + ⌊-k·log2 10⌋ + 2, in [1, 4]
	// g = floor(10^-k·2^(125-⌊-k·log2 10⌋)) + 1, as 63 + 63 bits. No
	// entry's low 63 bits of that floor are all ones, so the +1 never
	// carries into g1 (TestJSONFloatSweep reaches every k).
	p := &pow[-k-pow10Min]
	g1, g0 := p[0]>>1, ((p[0]&1)<<62|p[1]>>2)+1
	vb := roundToOdd(g1, g0, cb<<h) // 4·v/10^k, rounded to odd
	vbl := roundToOdd(g1, g0, cbl<<h)
	vbr := roundToOdd(g1, g0, cbr<<h)
	s := vb >> 2
	// One digit fewer: at most one multiple of 10^(k+1) is in the interval.
	up := s / 10 * 10
	wp := up + 10
	if upIn, wpIn := vbl+out <= up<<2, wp<<2+out <= vbr; upIn != wpIn {
		if upIn {
			return trimZeros(up, k)
		}
		return trimZeros(wp, k)
	}
	t := s + 1
	if uIn, wIn := vbl+out <= s<<2, t<<2+out <= vbr; uIn != wIn {
		if uIn {
			return trimZeros(s, k)
		}
		return trimZeros(t, k)
	}
	if cmp := int64(vb - (s+t)<<1); cmp < 0 || cmp == 0 && s&1 == 0 {
		return trimZeros(s, k)
	}
	return trimZeros(t, k)
}

// roundToOdd returns cp·g·2^-127, g = g1·2^63 + g0, with the integer part
// made odd when any fraction is dropped.
func roundToOdd(g1, g0, cp uint64) uint64 {
	x1, _ := bits.Mul64(g0, cp)
	y1, y0 := bits.Mul64(g1, cp)
	z := y0>>1 + x1
	return y1 + z>>63 | (z&(1<<63-1)+(1<<63-1))>>63
}

func trimZeros(d uint64, e int) (uint64, int) {
	for d%10 == 0 {
		d /= 10
		e++
	}
	return d, e
}
