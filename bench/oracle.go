package main

import (
	"cij/internal/core"
	"cij/internal/dataset"
	"cij/internal/grid"
	"cij/internal/service"
)

// pairSet is a join result as a set of (left ID, right ID) pairs.
type pairSet map[core.Pair]struct{}

func newPairSet(pairs []core.Pair) pairSet {
	s := make(pairSet, len(pairs))
	for _, p := range pairs {
		s[p] = struct{}{}
	}
	return s
}

// has reports whether (p, q) is in the set; swapped reads a pair of the
// reverse-order join.
func (s pairSet) has(p, q int64, swapped bool) bool {
	if swapped {
		p, q = q, p
	}
	_, ok := s[core.Pair{P: p, Q: q}]
	return ok
}

// hash is the order-independent digest of the set.
func (s pairSet) hash() uint64 {
	var h uint64
	for p := range s {
		h += pairKey(p.P, p.Q)
	}
	return h
}

// pairKey mixes one pair into 64 bits (the splitmix64 finalizer); a sum
// of keys digests a pair stream regardless of its order.
func pairKey(p, q int64) uint64 {
	x := uint64(p)<<32 ^ uint64(q)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// gridOracle joins the live points of two registry datasets with the
// grid backend and maps the pairs back to point IDs.
func gridOracle(l, r *service.Dataset) []core.Pair {
	lp, lids := l.JoinPoints()
	rp, rids := r.JoinPoints()
	pairs := grid.Join(lp, rp, dataset.Domain, grid.DefaultOptions()).Pairs
	for i, p := range pairs {
		if lids != nil {
			p.P = lids[p.P]
		}
		if rids != nil {
			p.Q = rids[p.Q]
		}
		pairs[i] = p
	}
	return pairs
}

// nmOracle joins two registry datasets with serial NM-CIJ over their
// flat trees (no tombstones: the read workloads never mutate).
func nmOracle(l, r *service.Dataset) []core.Pair {
	return core.NMCIJ(l.FlatView(), r.FlatView(), dataset.Domain, core.DefaultOptions()).Pairs
}
