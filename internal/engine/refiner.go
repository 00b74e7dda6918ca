package engine

import "github.com/quadkdv/quad/internal/kdtree/flat"

// Refiner exposes the Table 3 refinement loop one step at a time, so callers
// can interleave the refinement of several aggregates and stop on conditions
// the engine doesn't know about — the mechanism behind kernel density
// classification (racing per-class density bounds) and any anytime use of
// the bounds.
//
// A Refiner borrows its FlatEngine's tree and evaluator until the caller is
// done with it; the engine's own Eval* methods must not be used
// concurrently. Use FlatEngine.Clone to refine several queries at once.
type Refiner struct {
	e *FlatEngine
	q []float64

	exactAcc       float64
	lbPend, ubPend float64
	st             Stats
	heap           fheap
}

// StartRefine begins refining F_P(q)'s bounds. The returned Refiner starts
// with the root bounds already evaluated.
func (e *FlatEngine) StartRefine(q []float64) *Refiner {
	r := &Refiner{e: e, q: q}
	lb, ub := e.Ev.FlatBounds(e.Tree, 0, q)
	r.st.NodesEvaluated++
	r.heap.push(fitem{id: 0, seed: -1, lb: lb, ub: ub})
	r.lbPend, r.ubPend = lb, ub
	return r
}

// Bounds returns the current certified interval [lb, ub] around F_P(q).
func (r *Refiner) Bounds() (lb, ub float64) {
	if len(r.heap) == 0 {
		return r.exactAcc, r.exactAcc
	}
	if r.lbPend < 0 || r.ubPend < 0 {
		r.recompute()
	}
	lb, ub = r.rawBounds()
	if lb < 0 {
		lb = 0
	}
	if lb > ub {
		mid := (lb + ub) / 2
		lb, ub = mid, mid
	}
	return lb, ub
}

// Gap returns ub − lb, the current uncertainty.
func (r *Refiner) Gap() float64 {
	lb, ub := r.Bounds()
	return ub - lb
}

// Exhausted reports whether the bounds are exact (nothing left to refine).
func (r *Refiner) Exhausted() bool { return len(r.heap) == 0 }

// Stats returns the work counters accumulated so far.
func (r *Refiner) Stats() Stats { return r.st }

// Step performs one refinement iteration (pop + split or leaf scan) and
// reports whether further refinement is possible.
func (r *Refiner) Step() bool {
	if len(r.heap) == 0 {
		return false
	}
	t, ev := r.e.Tree, r.e.Ev
	r.st.Iterations++
	it := r.heap.pop()
	id := it.id
	if left := t.Left[id]; left == flat.NoChild {
		r.exactAcc += ev.FlatExactNode(t, id, r.q)
		r.st.LeafScans++
		r.st.PointsScanned += t.Size(id)
		r.lbPend -= it.lb
		r.ubPend -= it.ub
	} else {
		right := t.Right[id]
		llb, lub := ev.FlatBounds(t, left, r.q)
		rlb, rub := ev.FlatBounds(t, right, r.q)
		r.st.NodesEvaluated += 2
		r.lbPend += llb + rlb - it.lb
		r.ubPend += lub + rub - it.ub
		r.heap.push(fitem{id: left, seed: -1, lb: llb, ub: lub})
		r.heap.push(fitem{id: right, seed: -1, lb: rlb, ub: rub})
	}
	return len(r.heap) > 0
}

// RefineUntil steps until cond(lb, ub) holds or the bounds are exact, and
// returns the final bounds. The condition is re-verified on drift-free
// recomputed pending sums before it is trusted (see FlatEngine.refine).
func (r *Refiner) RefineUntil(cond func(lb, ub float64) bool) (lb, ub float64) {
	for {
		if r.lbPend < 0 || r.ubPend < 0 || cond(r.rawBounds()) {
			r.recompute()
			if cond(r.rawBounds()) {
				return r.Bounds()
			}
		}
		if !r.Step() {
			return r.Bounds()
		}
	}
}

func (r *Refiner) rawBounds() (float64, float64) {
	return r.exactAcc + r.lbPend, r.exactAcc + r.ubPend
}

func (r *Refiner) recompute() { r.lbPend, r.ubPend = r.heap.sums() }

// TracePoint records the aggregate bounds after one refinement iteration —
// the instrumentation behind the paper's Figure 18.
type TracePoint struct {
	Iteration int
	LB, UB    float64
}

// BoundTrace runs an εKDV query recording (lb, ub) after every iteration,
// including iteration 0 (root bounds). It stops at the εKDV termination
// condition and returns the trace.
func (e *FlatEngine) BoundTrace(q []float64, eps float64) []TracePoint {
	done := func(lb, ub float64) bool { return ub <= (1+eps)*lb }
	r := e.StartRefine(q)
	trace := []TracePoint{{Iteration: 0, LB: r.lbPend, UB: r.ubPend}}
	for iter := 1; len(r.heap) > 0; iter++ {
		if r.lbPend < 0 || r.ubPend < 0 || done(r.rawBounds()) {
			r.recompute()
			if done(r.rawBounds()) {
				break
			}
		}
		r.Step()
		if r.lbPend < 0 || r.ubPend < 0 {
			r.recompute()
		}
		lb, ub := r.rawBounds()
		trace = append(trace, TracePoint{Iteration: iter, LB: lb, UB: ub})
	}
	return trace
}
