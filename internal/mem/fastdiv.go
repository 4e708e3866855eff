package mem

import "math/bits"

// Divider computes x/d and x%d for a fixed divisor d without hardware
// division, using the Lemire-Kaser "faster remainder by direct
// computation" scheme: M = ceil(2^128/d) is precomputed once, after which
// a remainder is four multiplies and an add — an order of magnitude
// cheaper than the 64-bit DIV the compiler must otherwise emit when d is
// not a compile-time constant. The cache simulator's set mapping is the
// motivating user: the paper's 24 MB/16-way LLC has 24576 sets (footnote
// 3's modulo mapping for non-power-of-two set counts), so every probe of
// every level pays this operation.
//
// With the 128-bit reciprocal, Mod is exact for every 64-bit x and every
// divisor (the sufficient condition 2^128 >= 2^64*d always holds); Div is
// exact for every 64-bit x with the single special case d == 1, where the
// reciprocal does not fit in 128 bits. Powers of two need no special
// case: M is then exactly 2^128/d and the identity still holds.
type Divider struct {
	d   uint64
	mHi uint64 // M = ceil(2^128 / d), high word
	mLo uint64 // ... low word (M wraps to 0 when d == 1)
}

// NewDivider precomputes the reciprocal of d. d must be nonzero.
func NewDivider(d uint64) Divider {
	if d == 0 {
		panic("mem: Divider with zero divisor")
	}
	// M = floor((2^128-1)/d) + 1, which equals ceil(2^128/d) for every
	// d >= 2 (and wraps to 0 for d == 1, which Mod handles for free and
	// Div special-cases). The 128-by-64 division runs in two halves.
	hi := ^uint64(0) / d
	rem := ^uint64(0) % d
	lo, _ := bits.Div64(rem, ^uint64(0), d)
	lo, carry := bits.Add64(lo, 1, 0)
	return Divider{d: d, mHi: hi + carry, mLo: lo}
}

// Mod returns x % d.
//
//popt:hot
func (dv Divider) Mod(x uint64) uint64 {
	// lowbits = M*x mod 2^128; the remainder is the high 64 bits of
	// lowbits*d, i.e. floor(lowbits*d / 2^128).
	lHi, lLo := bits.Mul64(dv.mLo, x)
	lHi += dv.mHi * x
	pHi, _ := bits.Mul64(lLo, dv.d)
	qHi, qLo := bits.Mul64(lHi, dv.d)
	_, carry := bits.Add64(qLo, pHi, 0)
	return qHi + carry
}

// Div returns x / d.
//
//popt:hot
func (dv Divider) Div(x uint64) uint64 {
	if dv.d == 1 {
		return x
	}
	// floor(x/d) is the high 64 bits of the 192-bit product M*x.
	lHi, _ := bits.Mul64(dv.mLo, x)
	qHi, qLo := bits.Mul64(dv.mHi, x)
	_, carry := bits.Add64(qLo, lHi, 0)
	return qHi + carry
}
