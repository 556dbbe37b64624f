package simplex

import "repro/internal/telemetry"

// Tableau warm-start counters: a hit means an asserted linear
// combination found its slack variable — and that variable's row in
// the tableau — already in place from an earlier assertion, so the row
// construction and substitution work is skipped entirely. The ratio of
// hits to misses is the tableau warm-start hit rate reported by
// `-stats`. Both increment inside slackFor, which runs at
// deterministic points of the assertion sequence.
var (
	cTableauHits   = telemetry.NewCounter("yy_tableau_warm_hits_total", "simplex atom assertions that reused an existing tableau row")
	cTableauMisses = telemetry.NewCounter("yy_tableau_warm_misses_total", "simplex atom assertions that built a fresh tableau row")
)

// boundUndo records one bound tightening so PopToMark can restore the
// previous state exactly.
type boundUndo struct {
	v            int
	hadLo, hadHi bool
	lo, hi       Num
}

// Mark returns a restore point capturing the current bound state. The
// tableau itself — rows, basis, slack-variable identities, and the
// current assignment — is deliberately NOT part of the mark: rows are
// definitional (slack = combination), so keeping them across a
// PopToMark is sound, and it is exactly what makes re-asserting a
// shared atom set warm.
func (s *Solver) Mark() int {
	s.marked = true
	return len(s.undos)
}

// PopToMark retracts every bound asserted since the matching Mark, in
// reverse order. Bounds only ever loosen here (assertions only
// tighten), so the simplex invariant — every nonbasic variable within
// its own bounds — is preserved and the instance is immediately ready
// for further assertions or another Check. Slack variables introduced
// above the mark stay allocated but unbounded; an unbounded slack
// constrains nothing, and its row is reused if the same combination is
// ever asserted again.
func (s *Solver) PopToMark(mark int) {
	for i := len(s.undos) - 1; i >= mark; i-- {
		u := s.undos[i]
		c := &s.vars[u.v]
		c.lower, c.upper = u.lo, u.hi
		c.hasLo, c.hasHi = u.hadLo, u.hadHi
	}
	s.undos = s.undos[:mark]
}

// recordBound pushes the pre-tightening bound state of v onto the undo
// trail. Before the first Mark nothing can be popped, so nothing is
// recorded.
func (s *Solver) recordBound(v int) {
	if !s.marked {
		return
	}
	c := &s.vars[v]
	s.undos = append(s.undos, boundUndo{v: v, hadLo: c.hasLo, hadHi: c.hasHi, lo: c.lower, hi: c.upper})
}
