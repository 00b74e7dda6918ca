// Package engine implements the per-pixel refinement algorithm of the KDV
// indexing framework (paper Section 3.2, Table 3): a max-priority queue over
// kd-tree nodes ordered by bound gap UB_R(q) − LB_R(q), with incremental
// maintenance of the aggregate bounds lb and ub. Popping an internal node
// replaces its bounds with its children's; popping a leaf replaces them with
// the exact leaf contribution. The loop stops as soon as the variant's
// termination condition holds:
//
//	εKDV:  ub ≤ (1+ε)·lb          → return (lb+ub)/2
//	τKDV:  lb ≥ τ  or  ub ≤ τ     → return lb ≥ τ
//
// The engine is shared by every bound method (MinMax/aKDE, MinMax/tKDC,
// Linear/KARL, Quadratic/QUAD), mirroring the paper's "same framework,
// different bound functions" methodology.
//
// The engine runs over the flat struct-of-arrays kd-tree
// (internal/kdtree/flat): FlatEngine refines single queries from the root,
// FlatTileEngine adds the tile-shared traversal every render uses, and
// Refiner exposes the loop one step at a time for classification and
// regression.
package engine

// Stats aggregates per-query work counters.
type Stats struct {
	// Iterations is the number of queue pops.
	Iterations int
	// NodesEvaluated is the number of bound-function evaluations.
	NodesEvaluated int
	// LeafScans is the number of leaves refined exactly.
	LeafScans int
	// PointsScanned is the number of points touched by leaf scans.
	PointsScanned int
	// LB and UB are the final aggregate bounds the query settled at — the
	// residual bound gap UB−LB is the per-pixel tightness signal behind
	// work-map diagnostics. They describe one query, so Add does not
	// accumulate them.
	LB, UB float64
}

// Gap returns the residual bound gap UB−LB at settle, clamped at zero
// (fully refined queries end with UB == LB up to rounding).
func (s Stats) Gap() float64 {
	if g := s.UB - s.LB; g > 0 {
		return g
	}
	return 0
}

// Add accumulates other's work counters into s. The per-query settle
// bounds (LB, UB) are not summed — an aggregate of final bounds has no
// meaning — so s keeps its own.
func (s *Stats) Add(other Stats) {
	s.Iterations += other.Iterations
	s.NodesEvaluated += other.NodesEvaluated
	s.LeafScans += other.LeafScans
	s.PointsScanned += other.PointsScanned
}
