package core

import (
	"math"

	"cij/internal/geom"
)

// settle is the clip-free filter in front of CellsJoinWith's clip. It
// returns the verdict cl.Intersect(a, b).Area() > joinAreaEps would give,
// with settled set, when a margin proves that verdict; otherwise settled
// is false and the caller clips. a and b are convex counter-clockwise
// rings, as every cell is. A ring of more than settleMaxVerts vertices,
// or with a coordinate beyond ±settleMaxCoord (2^14; the service
// normalizes data to [0, 1e4]²), is left to the clip: the error bounds
// below assume both limits.
//
// Apart. Intersect clips a by the halfplane of each edge e = o′−o of b in
// turn and keeps a vertex v when −e×(v−o) ≤ Eps·max(1,|e|). When some edge
// has every vertex of a at e×(v−o) < −(Eps·max(1,|e|₁) + settleSlack·|e|₁),
// with |e| ≤ |e|₁ = |eₓ|+|e_y|, the pass at that edge keeps nothing: every
// ring vertex it sees lies within the crossing points' rounding of a's
// hull, and that rounding plus the float error of both side tests stays
// below 1.6e-10·|e|₁. The clip's verdict is then false by construction.
//
// Sure join. A corner w of either ring with interior angle θ lies inside
// the other ring at clearance t0 (its distance to every edge line) where
// t0² = 2·settleArea/sin θ, t0 ≤ 1 and t0 ≤ both legs. The triangle T
// cut from w at t0 along its legs then lies in both rings, so they share
// at least its area settleArea = 100·joinAreaEps = 1e-4. The clip keeps
// all of T but for three errors:
//   - the tolerant clip keeps every point of the exact intersection, up to
//     the rounding of crossing points and of b's edge lines, which moves
//     T's sides by under 1e-10;
//   - its Eq dedup drops runs of vertices within Eps of a kept one, each
//     run a sliver within √2·Eps of the new edge, so at most
//     2√2·Eps·t0 of T. A pass over a convex ring of k vertices emits at
//     most k+1, and a run takes two of them, so at most 16 runs in each of
//     at most 16 passes: 7.3e-5 in all;
//   - the shoelace sum runs over at most 32 vertices. Each term, two
//     products of magnitude 2^28 and their difference, errs by at most
//     2^-23, and each partial sum, at most twice the area of the box
//     ±2^14, by 2^-22 more: under 5.8e-6 of area in all.
//
// The clip's area then exceeds 1e-4 − 7.3e-5 − 5.8e-6 > joinAreaEps, and
// its verdict is true.
//
// The tests stop at an edge's first failing vertex and a corner's first
// failing edge. A corner compares squared clearances with t0²·|e|², so it
// takes one square root once it is known to be inside, and none per edge.
func settle(a, b geom.Polygon) (join, settled bool) {
	if !fits(a.V) || !fits(b.V) {
		return false, false
	}
	if apart(a.V, b.V) {
		return false, true
	}
	if sureCorner(a.V, b.V) || sureCorner(b.V, a.V) {
		return true, true
	}
	return false, false
}

const (
	// settleMaxVerts caps the ring size settle reads; its error bound
	// counts vertices.
	settleMaxVerts = 16
	// settleMaxCoord caps |x| and |y| of every vertex settle reads.
	settleMaxCoord = 1 << 14
	// settleArea is the area a sure join proves the two rings share.
	settleArea = 100 * joinAreaEps
	// settleSlack, per unit of |e|₁, covers the float error of an apart
	// test beyond the clip's own tolerance.
	settleSlack = 1e-9
)

// fits reports whether ring vs has at most settleMaxVerts vertices, all
// within ±settleMaxCoord.
func fits(vs []geom.Point) bool {
	if len(vs) > settleMaxVerts {
		return false
	}
	for _, v := range vs {
		if !(math.Abs(v.X) <= settleMaxCoord && math.Abs(v.Y) <= settleMaxCoord) {
			return false
		}
	}
	return true
}

// apart reports whether some edge of ring b has every vertex of ring a
// outside it beyond the clip's tolerance and settleSlack.
func apart(a, b []geom.Point) bool {
	o := b[len(b)-1]
	for _, next := range b {
		e := next.Sub(o)
		l1 := math.Abs(e.X) + math.Abs(e.Y)
		lim := -(geom.Eps*max(1, l1) + settleSlack*l1)
		out := true
		for _, v := range a {
			if e.Cross(v.Sub(o)) >= lim {
				out = false
				break
			}
		}
		if out {
			return true
		}
		o = next
	}
	return false
}

// sureCorner reports whether some corner of ring x lies inside ring y at
// the clearance settle's sure join needs.
func sureCorner(x, y []geom.Point) bool {
	var cr [settleMaxVerts]float64 // e×(w−o) for y's edges, once w is inside
	prev := x[len(x)-1]
	for i, w := range x {
		in := w.Sub(prev)
		prev = w
		o, k := y[len(y)-1], 0
		for ; k < len(y); k++ {
			c := y[k].Sub(o).Cross(w.Sub(o))
			if c <= 0 {
				break
			}
			cr[k], o = c, y[k]
		}
		if k < len(y) {
			continue
		}
		j := i + 1
		if j == len(x) {
			j = 0
		}
		out := x[j].Sub(w)
		// s = |in|·|out|·sin θ. Since t0² ≥ 2·settleArea whatever θ,
		// shorter legs cannot hold the triangle; rejecting them first also
		// keeps l0·l1 clear of underflow.
		s, l0, l1 := in.Cross(out), in.Dot(in), out.Dot(out)
		if s <= 0 || l0 < 2*settleArea || l1 < 2*settleArea {
			continue
		}
		if t2 := 2 * settleArea * math.Sqrt(l0*l1) / s; t2 <= 1 && t2 <= l0 && t2 <= l1 && clears(cr[:len(y)], y, t2) {
			return true
		}
	}
	return false
}

// clears reports whether every edge e of ring y, at cross product c with
// the corner, holds the corner at distance at least t0, given t2 = t0²:
// c² ≥ t0²·|e|².
func clears(cr []float64, y []geom.Point, t2 float64) bool {
	o := y[len(y)-1]
	for k, c := range cr {
		e := y[k].Sub(o)
		if c*c < t2*e.Dot(e) {
			return false
		}
		o = y[k]
	}
	return true
}
