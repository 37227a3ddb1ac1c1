package core

// Exports for the external test package core_test, which draws its inputs
// from internal/check (itself an importer of this package).

// Settle is the filter in front of CellsJoinWith's clip.
var Settle = settle

// JoinAreaEps is the area the clip's verdict compares against.
const JoinAreaEps = joinAreaEps
