package grid

import (
	"math"
	"math/big"

	"cij/internal/geom"
)

// Shewchuk's static error bounds for the float orientation and incircle
// determinants ("Adaptive Precision Floating-Point Arithmetic and Fast
// Robust Geometric Predicates", 1997): a float determinant beyond
// bound·permanent has the exact sign. epsilon is half an ulp of 1.0. The
// bounds assume no underflow or overflow. An underflowed product is off by
// at most 2^-1075, which incircle's lifts can multiply, so a bound below
// minBound (times 1 plus the lifts) sends the call to the exact path, and
// above it that error stays under 2^-110 of the bound. An overflow makes
// the bound or the determinant Inf or NaN, which decides nothing. So both
// predicates are exact for every finite coordinate.
const (
	epsilon      = 0x1p-53
	ccwErrBoundA = (3 + 16*epsilon) * epsilon
	iccErrBoundA = (10 + 96*epsilon) * epsilon
	minBound     = 0x1p-960
)

// orient returns the sign of the orientation determinant of (a, b, c):
// +1 when c lies left of the directed line a→b (a, b, c counter-
// clockwise), −1 when it lies right, 0 when the three are collinear. The
// float determinant decides whenever it clears the static bound, and the
// exact rational evaluation decides otherwise.
func orient(a, b, c geom.Point) int {
	detleft := (a.X - c.X) * (b.Y - c.Y)
	detright := (a.Y - c.Y) * (b.X - c.X)
	det := detleft - detright
	if bound := ccwErrBoundA * (math.Abs(detleft) + math.Abs(detright)); bound >= minBound {
		switch {
		case det > bound:
			return 1
		case -det > bound:
			return -1
		}
	}
	if (a.X == c.X || b.Y == c.Y) && (a.Y == c.Y || b.X == c.X) {
		return 0 // both products are exact zeros: collinear along an axis, the lattice case
	}
	return orientExact(a, b, c)
}

// incircle returns +1 when d lies strictly inside the circle through the
// counter-clockwise triangle (a, b, c), −1 when strictly outside, 0 when
// the four points are cocircular. Filtered like orient.
func incircle(a, b, c, d geom.Point) int {
	adx, ady := a.X-d.X, a.Y-d.Y
	bdx, bdy := b.X-d.X, b.Y-d.Y
	cdx, cdy := c.X-d.X, c.Y-d.Y
	bdxcdy, cdxbdy := bdx*cdy, cdx*bdy
	cdxady, adxcdy := cdx*ady, adx*cdy
	adxbdy, bdxady := adx*bdy, bdx*ady
	alift := adx*adx + ady*ady
	blift := bdx*bdx + bdy*bdy
	clift := cdx*cdx + cdy*cdy
	det := alift*(bdxcdy-cdxbdy) + blift*(cdxady-adxcdy) + clift*(adxbdy-bdxady)
	permanent := (math.Abs(bdxcdy)+math.Abs(cdxbdy))*alift +
		(math.Abs(cdxady)+math.Abs(adxcdy))*blift +
		(math.Abs(adxbdy)+math.Abs(bdxady))*clift
	if bound := iccErrBoundA * permanent; bound >= minBound*(1+alift+blift+clift) {
		switch {
		case det > bound:
			return 1
		case -det > bound:
			return -1
		}
	}
	return incircleExact(a, b, c, d)
}

// orientExact is orient in math/big.Rat arithmetic: every finite float64
// is a dyadic rational, so no difference or product rounds.
func orientExact(a, b, c geom.Point) int {
	return mul(diff(a.X, c.X), diff(b.Y, c.Y)).Cmp(mul(diff(a.Y, c.Y), diff(b.X, c.X)))
}

// incircleExact is incircle in math/big.Rat arithmetic.
func incircleExact(a, b, c, d geom.Point) int {
	adx, ady := diff(a.X, d.X), diff(a.Y, d.Y)
	bdx, bdy := diff(b.X, d.X), diff(b.Y, d.Y)
	cdx, cdy := diff(c.X, d.X), diff(c.Y, d.Y)
	lift := func(x, y *big.Rat) *big.Rat { return new(big.Rat).Add(mul(x, x), mul(y, y)) }
	cross := func(w, x, y, z *big.Rat) *big.Rat { return new(big.Rat).Sub(mul(w, x), mul(y, z)) }
	det := mul(lift(adx, ady), cross(bdx, cdy, cdx, bdy))
	det.Add(det, mul(lift(bdx, bdy), cross(cdx, ady, adx, cdy)))
	det.Add(det, mul(lift(cdx, cdy), cross(adx, bdy, bdx, ady)))
	return det.Sign()
}

func diff(x, y float64) *big.Rat {
	return new(big.Rat).Sub(new(big.Rat).SetFloat64(x), new(big.Rat).SetFloat64(y))
}

func mul(x, y *big.Rat) *big.Rat { return new(big.Rat).Mul(x, y) }
