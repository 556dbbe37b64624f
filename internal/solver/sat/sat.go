// Package sat implements a CDCL SAT solver: two-watched-literal
// propagation, first-UIP conflict analysis with clause learning,
// VSIDS-style variable activities with phase saving, and geometric
// restarts. It is the propositional engine under the DPLL(T) loop in
// internal/solver.
package sat

import (
	"fmt"

	"repro/internal/fuel"
	"repro/internal/telemetry"
)

// Telemetry counters, registered once: each increments exactly where
// the corresponding fuel unit is charged (conflicts, decisions) or the
// restart policy fires, so instrumentation is step-based and the
// totals are deterministic for a given clause set.
var (
	cConflicts = telemetry.NewCounter("yy_cdcl_conflicts_total", "CDCL conflicts analyzed")
	cDecisions = telemetry.NewCounter("yy_cdcl_decisions_total", "CDCL branching decisions")
	cRestarts  = telemetry.NewCounter("yy_cdcl_restarts_total", "CDCL geometric restarts")
)

// Status is the result of a Solve call.
type Status int8

const (
	// Unknown means the solver was interrupted by its budget.
	Unknown Status = iota
	// Sat means a satisfying assignment was found.
	Sat
	// Unsat means the clause set is unsatisfiable.
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "sat"
	case Unsat:
		return "unsat"
	default:
		return "unknown"
	}
}

// Lit is a literal: +v or -v for variable v ≥ 1.
type Lit int32

// Var returns the literal's variable.
func (l Lit) Var() int {
	if l < 0 {
		return int(-l)
	}
	return int(l)
}

// Neg returns the complementary literal.
func (l Lit) Neg() Lit { return -l }

// internal literal index: var<<1 | sign (sign 1 = negative).
func (l Lit) index() int {
	if l < 0 {
		return int(-l)<<1 | 1
	}
	return int(l) << 1
}

func litFromIndex(i int) Lit {
	v := Lit(i >> 1)
	if i&1 == 1 {
		return -v
	}
	return v
}

type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

func (b lbool) neg() lbool {
	switch b {
	case lTrue:
		return lFalse
	case lFalse:
		return lTrue
	}
	return lUndef
}

// clause is a problem or learned clause. The watch lists hold every
// attached clause; nothing else needs to enumerate them.
type clause struct {
	lits []Lit
}

// Solver is a CDCL SAT solver. The zero value is not usable; call New.
type Solver struct {
	nVars    int
	watches  [][]*clause // indexed by literal index
	assign   []lbool     // indexed by var
	level    []int       // indexed by var
	reason   []*clause   // indexed by var
	trail    []Lit
	trailLim []int
	qhead    int

	activity []float64
	varInc   float64
	order    *varHeap
	phase    []lbool // saved phases

	ok        bool // false once an empty clause is added
	conflicts int64

	// MaxConflicts bounds the total conflicts per Solve call; exceeded
	// budget yields Unknown. Zero means no bound.
	MaxConflicts int64

	// Fuel is the unified deadline shared with the theory engines: one
	// unit is spent per conflict and per decision, and an exhausted
	// meter makes Solve return Unknown. Nil means unlimited.
	Fuel *fuel.Meter

	// Telem records per-phase counters at the fuel charge points. Nil
	// records nothing.
	Telem *telemetry.Tracker
}

// New returns an empty solver.
func New() *Solver {
	s := &Solver{ok: true, varInc: 1.0}
	s.order = &varHeap{s: s}
	// Index 0 unused; literal indexes start at 2.
	s.assign = append(s.assign, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	s.activity = append(s.activity, 0)
	s.phase = append(s.phase, lUndef)
	s.watches = append(s.watches, nil, nil)
	return s
}

// NewVar allocates a fresh variable and returns its (positive) index.
func (s *Solver) NewVar() int {
	s.nVars++
	v := s.nVars
	s.assign = append(s.assign, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	s.activity = append(s.activity, 0)
	s.phase = append(s.phase, lFalse)
	s.watches = append(s.watches, nil, nil)
	s.order.push(v)
	return v
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return s.nVars }

func (s *Solver) litValue(l Lit) lbool {
	v := s.assign[l.Var()]
	if l < 0 {
		return v.neg()
	}
	return v
}

// AddClause adds a clause over existing variables. It may be called
// between Solve calls; the solver backtracks to the root level first.
// Returns false if the solver is already in an unsatisfiable root state.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	s.backtrackTo(0)
	// Normalize: drop duplicate and false literals, detect tautologies
	// and already-satisfied clauses.
	seen := map[Lit]bool{}
	out := lits[:0:0]
	for _, l := range lits {
		if l == 0 || l.Var() > s.nVars {
			panic(fmt.Sprintf("sat: bad literal %d", l))
		}
		if seen[l] {
			continue
		}
		if seen[l.Neg()] {
			return true // tautology
		}
		switch s.litValue(l) {
		case lTrue:
			return true // satisfied at root
		case lFalse:
			continue
		}
		seen[l] = true
		out = append(out, l)
	}
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		s.uncheckedEnqueue(out[0], nil)
		if s.propagate() != nil {
			s.ok = false
			return false
		}
		return true
	}
	c := &clause{lits: out}
	s.attach(c)
	return true
}

func (s *Solver) attach(c *clause) {
	w0, w1 := c.lits[0].Neg().index(), c.lits[1].Neg().index()
	s.watches[w0] = append(s.watches[w0], c)
	s.watches[w1] = append(s.watches[w1], c)
}

func (s *Solver) uncheckedEnqueue(l Lit, from *clause) {
	v := l.Var()
	if l < 0 {
		s.assign[v] = lFalse
	} else {
		s.assign[v] = lTrue
	}
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) backtrackTo(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	bound := s.trailLim[lvl]
	for i := len(s.trail) - 1; i >= bound; i-- {
		l := s.trail[i]
		v := l.Var()
		s.phase[v] = s.assign[v]
		s.assign[v] = lUndef
		s.reason[v] = nil
		s.order.push(v)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

// propagate performs unit propagation; returns a conflicting clause or
// nil.
func (s *Solver) propagate() *clause {
	//golint:allow fuel-charge — the trail holds each variable at most once, so the queue drains in ≤ nVars steps; Solve charges per decision
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		idx := p.index()
		ws := s.watches[idx]
		kept := ws[:0]
		var conflict *clause
		for wi := 0; wi < len(ws); wi++ {
			c := ws[wi]
			if conflict != nil {
				kept = append(kept, c)
				continue
			}
			// Ensure the falsified literal is at position 1.
			if c.lits[0].Neg() == p {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			if s.litValue(c.lits[0]) == lTrue {
				kept = append(kept, c)
				continue
			}
			// Find a new watch.
			moved := false
			for k := 2; k < len(c.lits); k++ {
				if s.litValue(c.lits[k]) != lFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					ni := c.lits[1].Neg().index()
					s.watches[ni] = append(s.watches[ni], c)
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			// Clause is unit or conflicting.
			kept = append(kept, c)
			if s.litValue(c.lits[0]) == lFalse {
				conflict = c
			} else {
				s.uncheckedEnqueue(c.lits[0], c)
			}
		}
		s.watches[idx] = kept
		if conflict != nil {
			s.qhead = len(s.trail)
			return conflict
		}
	}
	return nil
}

// analyze performs first-UIP conflict analysis, returning the learned
// clause (asserting literal first) and the backtrack level.
func (s *Solver) analyze(conflict *clause) ([]Lit, int) {
	learnt := []Lit{0} // placeholder for the asserting literal
	seen := make([]bool, s.nVars+1)
	counter := 0
	var p Lit
	idx := len(s.trail) - 1
	c := conflict

	//golint:allow fuel-charge — conflict analysis consumes one marked trail literal per iteration, bounded by the finite trail
	for {
		start := 0
		if p != 0 {
			start = 1 // skip the asserting literal of the reason clause
		}
		for _, q := range c.lits[start:] {
			v := q.Var()
			if seen[v] || s.level[v] == 0 {
				continue
			}
			seen[v] = true
			s.bumpVar(v)
			if s.level[v] == s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Find the next marked literal on the trail.
		//golint:allow fuel-charge — scans backward over the finite trail; idx strictly decreases
		for !seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.Var()
		seen[v] = false
		counter--
		if counter == 0 {
			learnt[0] = p.Neg()
			break
		}
		c = s.reason[v]
	}

	// Backtrack level: second-highest level in the learned clause.
	bt := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		bt = s.level[learnt[1].Var()]
	}
	return learnt, bt
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := 1; i <= s.nVars; i++ {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

func (s *Solver) decayActivities() { s.varInc /= 0.95 }

// pickBranch returns the next decision literal, or 0 if all variables
// are assigned.
func (s *Solver) pickBranch() Lit {
	//golint:allow fuel-charge — each iteration pops the finite order heap; returns when the heap empties
	for {
		v, ok := s.order.pop()
		if !ok {
			return 0
		}
		if s.assign[v] == lUndef {
			if s.phase[v] == lTrue {
				return Lit(v)
			}
			return -Lit(v)
		}
	}
}

// Solve searches for a satisfying assignment of the current clause set.
func (s *Solver) Solve() Status {
	if !s.ok {
		return Unsat
	}
	s.backtrackTo(0)
	if s.propagate() != nil {
		s.ok = false
		return Unsat
	}
	restartLimit := int64(100)
	conflictsAtStart := s.conflicts
	for {
		conflict := s.propagate()
		if conflict != nil {
			s.conflicts++
			s.Telem.Inc(cConflicts)
			if !s.Fuel.Spend(1) {
				s.backtrackTo(0)
				return Unknown
			}
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat
			}
			learnt, bt := s.analyze(conflict)
			s.backtrackTo(bt)
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], nil)
			} else {
				c := &clause{lits: learnt}
				s.attach(c)
				s.uncheckedEnqueue(learnt[0], c)
			}
			s.decayActivities()
			if s.MaxConflicts > 0 && s.conflicts-conflictsAtStart >= s.MaxConflicts {
				s.backtrackTo(0)
				return Unknown
			}
			if s.conflicts-conflictsAtStart >= restartLimit {
				restartLimit += restartLimit / 2
				s.Telem.Inc(cRestarts)
				s.backtrackTo(0)
			}
			continue
		}
		l := s.pickBranch()
		if l == 0 {
			return Sat
		}
		if !s.Fuel.Spend(1) {
			// Undo the pop of l's variable so a later call can redecide it.
			s.order.push(l.Var())
			s.backtrackTo(0)
			return Unknown
		}
		s.Telem.Inc(cDecisions)
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(l, nil)
	}
}

// Value returns the assignment of variable v after a Sat result.
func (s *Solver) Value(v int) bool { return s.assign[v] == lTrue }

// varHeap is a max-heap over variable activities.
type varHeap struct {
	s    *Solver
	heap []int
	pos  map[int]int
}

func (h *varHeap) less(a, b int) bool { return h.s.activity[a] > h.s.activity[b] }

func (h *varHeap) push(v int) {
	if h.pos == nil {
		h.pos = map[int]int{}
	}
	if _, in := h.pos[v]; in {
		return
	}
	h.heap = append(h.heap, v)
	h.pos[v] = len(h.heap) - 1
	h.up(len(h.heap) - 1)
}

func (h *varHeap) pop() (int, bool) {
	if len(h.heap) == 0 {
		return 0, false
	}
	v := h.heap[0]
	last := len(h.heap) - 1
	h.heap[0] = h.heap[last]
	h.pos[h.heap[0]] = 0
	h.heap = h.heap[:last]
	delete(h.pos, v)
	if len(h.heap) > 0 {
		h.down(0)
	}
	return v, true
}

func (h *varHeap) update(v int) {
	if i, in := h.pos[v]; in {
		h.up(i)
		h.down(h.pos[v])
	}
}

func (h *varHeap) up(i int) {
	//golint:allow fuel-charge — heap sift-up: the index at least halves every iteration
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(h.heap[i], h.heap[p]) {
			break
		}
		h.swap(i, p)
		i = p
	}
}

func (h *varHeap) down(i int) {
	//golint:allow fuel-charge — heap sift-down: the index at least doubles every iteration, bounded by the heap size
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < len(h.heap) && h.less(h.heap[l], h.heap[best]) {
			best = l
		}
		if r < len(h.heap) && h.less(h.heap[r], h.heap[best]) {
			best = r
		}
		if best == i {
			return
		}
		h.swap(i, best)
		i = best
	}
}

func (h *varHeap) swap(i, j int) {
	h.heap[i], h.heap[j] = h.heap[j], h.heap[i]
	h.pos[h.heap[i]] = i
	h.pos[h.heap[j]] = j
}
