// Package cij reproduces "Common Influence Join: A Natural Join Operation
// for Spatial Pointsets" (Yiu, Mamoulis, Karras; ICDE 2008) as a
// self-contained Go library.
//
// Given two planar pointsets P and Q, the common influence join CIJ(P,Q)
// returns every pair (p, q) whose Voronoi cells V(p,P) and V(q,Q)
// intersect: some location in space is simultaneously closer to p than to
// any other point of P and closer to q than to any other point of Q. The
// join is parameter-free — no distance threshold ε and no result count k.
//
// The implementation lives under internal/ (see README.md for the
// architecture): geometry (internal/geom), a simulated paged disk with an
// LRU buffer (internal/storage), a disk-resident R-tree
// (internal/rtree), single-traversal and batch Voronoi cell computation
// (internal/voronoi), the three CIJ evaluation algorithms FM/PM/NM
// (internal/core), a partition-parallel execution engine running NM-CIJ
// across a worker pool with exact result equivalence (internal/parallel),
// dataset generators (internal/dataset), and the experiment harness
// regenerating every table and figure of the paper (internal/exp, driven
// by cmd/cijbench).
//
// Trees read their nodes through one of three storage modes: paged (the
// paper's byte format behind the LRU buffer — every access is page I/O),
// decode-cached (the same pages, with decoded nodes riding buffer
// residency), and flat (an immutable in-memory arena built by
// rtree.Tree.Freeze or rtree.FlatBulkLoadPoints — no pages, no decode,
// structurally zero I/O). All three emit the byte-identical pair
// sequence; they differ only in cost profile, and the query service's
// planner picks flat automatically for its in-memory datasets (README
// "Execution backends" documents the selection rules and the storage
// knob).
//
// The benchmarks in bench_test.go exercise one paper artifact each at
// reduced scale — plus the parallel speedup curve — and cmd/cijbench
// runs the paper's experiments at paper scale. Service performance is
// measured by the benchmark in bench/ (bash bench/run.sh).
package cij
