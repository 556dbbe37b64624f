package simplex

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/fuel"
	"repro/internal/solver/rat"
	"repro/internal/telemetry"
)

// cPivots counts simplex pivot iterations — one increment per fuel
// unit spent in the Check loop.
var cPivots = telemetry.NewCounter("yy_simplex_pivots_total", "simplex pivot iterations")

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

// Term is one summand Coeff·x_Var of a linear combination.
type Term struct {
	Var   int
	Coeff rat.Rat
}

// entry is one nonzero coefficient of a tableau row.
type entry struct {
	col int
	c   rat.Rat
}

// column is the per-variable state of the tableau.
type column struct {
	lower, upper Num // guarded by hasLo / hasHi
	value        Num
	hasLo, hasHi bool
	basic        bool
	row          []entry // the variable's row while basic
	occ          []int   // basic vars whose rows contain this variable
	// loOwner and hiOwner name the atoms that set the bounds. A slack
	// is shared by every atom with its coefficients, so the owner goes
	// with the bound: an atom that does not tighten it owns nothing.
	loOwner, hiOwner int
}

// Solver is an exact simplex instance. Build one per theory check:
// allocate problem variables, assert bounds on variables or on linear
// combinations, then call Check.
//
// The tableau is sparse. Each basic variable's row is a slice of its
// nonzero coefficients sorted by column, and each column keeps an
// occurrence list of the basic variables whose rows mention it, so an
// assignment update or a pivot touches only the rows that contain the
// column.
type Solver struct {
	vars   []column       // problem + slack variables
	slacks map[string]int // normalized combo key -> slack var

	key []byte  // comboKey scratch
	buf []entry // row-merge scratch

	// conflict records why the last AssertAtom or Check found the
	// bounds unsatisfiable; Explain reads it.
	conflict conflict

	// MaxPivots bounds the pivoting loop; exceeding it reports an
	// (extremely unlikely with Bland's rule) resource error.
	MaxPivots int

	// Fuel is the unified deadline shared with the other engines: one
	// unit is spent per pivot-loop iteration, and exhaustion surfaces
	// as the same resource error as MaxPivots. Nil means unlimited.
	Fuel *fuel.Meter

	// Telem records pivot iterations into the owner's tracker. Nil
	// records nothing.
	Telem *telemetry.Tracker
}

// New returns an empty solver.
func New() *Solver {
	return &Solver{slacks: map[string]int{}, MaxPivots: 100000}
}

// Reset empties the solver for a new problem, keeping its storage.
// Fuel, Telem and MaxPivots are kept.
func (s *Solver) Reset() {
	s.vars = s.vars[:0]
	clear(s.slacks)
}

// NewVar allocates a problem variable and returns its index.
func (s *Solver) NewVar() int {
	i := len(s.vars)
	if i < cap(s.vars) {
		// Reuse a column left by Reset, with its row and list storage.
		s.vars = s.vars[:i+1]
		c := &s.vars[i]
		*c = column{row: c.row[:0], occ: c.occ[:0]}
	} else {
		s.vars = append(s.vars, column{})
	}
	return i
}

// comboKey encodes a column-sorted linear combination (zero
// coefficients skipped) into s.key. Inline coefficients are written as
// varints; the canonical form of rat.Rat makes the encoding of a value
// unique, so equal combinations get equal keys.
func (s *Solver) comboKey(coeffs []Term) {
	buf := s.key[:0]
	for _, t := range coeffs {
		if t.Coeff.IsZero() {
			continue
		}
		buf = binary.AppendUvarint(buf, uint64(t.Var))
		if n, d, ok := t.Coeff.Inline(); ok {
			buf = append(buf, 0)
			buf = binary.AppendVarint(buf, n)
			buf = binary.AppendUvarint(buf, uint64(d))
		} else {
			buf = append(buf, 1)
			buf = t.Coeff.Append(buf)
			buf = append(buf, ';')
		}
	}
	s.key = buf
}

// slackFor returns (creating if needed) the slack variable constrained
// to equal the given linear combination of problem variables.
func (s *Solver) slackFor(coeffs []Term) int {
	s.comboKey(coeffs)
	if v, ok := s.slacks[string(s.key)]; ok {
		s.Telem.Inc(cTableauHits)
		return v
	}
	s.Telem.Inc(cTableauMisses)
	key := string(s.key)
	sl := s.NewVar()
	row := s.vars[sl].row
	var val Num
	for _, t := range coeffs {
		if t.Coeff.IsZero() {
			continue
		}
		if c := &s.vars[t.Var]; c.basic {
			// Substitute the basic variable's row.
			row = s.axpy(row, c.row, t.Coeff, -1, -1)
		} else {
			one := [1]entry{{col: t.Var, c: t.Coeff}}
			row = s.axpy(row, one[:], rat.Int(1), -1, -1)
		}
		val = val.Add(s.vars[t.Var].value.ScaleRat(t.Coeff))
	}
	s.setRow(sl, row)
	s.vars[sl].value = val
	s.slacks[key] = sl
	return sl
}

// coef returns the coefficient of column col in row (zero if absent).
func coef(row []entry, col int) rat.Rat {
	i := sort.Search(len(row), func(i int) bool { return row[i].col >= col })
	if i < len(row) && row[i].col == col {
		return row[i].c
	}
	return rat.Rat{}
}

// setRow makes v basic with the given row and records its occurrences.
func (s *Solver) setRow(v int, row []entry) {
	s.vars[v].row = row
	s.vars[v].basic = true
	for _, e := range row {
		s.vars[e.col].occ = append(s.vars[e.col].occ, v)
	}
}

// dropOcc removes basic var b from column col's occurrence list.
func (s *Solver) dropOcc(col, b int) {
	list := s.vars[col].occ
	for i, x := range list {
		if x == b {
			list[i] = list[len(list)-1]
			s.vars[col].occ = list[:len(list)-1]
			return
		}
	}
}

// axpy returns the row a + k·b with column skip left out of a, reusing
// a's storage; b must not share it. When owner ≥ 0, a is owner's
// registered row and the occurrence lists are kept in step: columns
// that appear are added for owner and columns that cancel are dropped.
func (s *Solver) axpy(a, b []entry, k rat.Rat, skip, owner int) []entry {
	out := s.buf[:0]
	i, j := 0, 0
	//golint:allow fuel-charge — merge of two finite rows: every iteration advances i or j
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || (i < len(a) && a[i].col < b[j].col):
			if a[i].col != skip {
				out = append(out, a[i])
			}
			i++
		case i == len(a) || b[j].col < a[i].col:
			if c := b[j].c.Mul(k); !c.IsZero() {
				out = append(out, entry{col: b[j].col, c: c})
				if owner >= 0 {
					s.vars[b[j].col].occ = append(s.vars[b[j].col].occ, owner)
				}
			}
			j++
		default:
			if c := a[i].c.Add(b[j].c.Mul(k)); !c.IsZero() {
				out = append(out, entry{col: a[i].col, c: c})
			} else if owner >= 0 {
				s.dropOcc(a[i].col, owner)
			}
			i++
			j++
		}
	}
	s.buf = out
	return append(a[:0], out...)
}

// conflict is the cause of an unsatisfiable verdict: either the
// owners of a contradicting bound pair (or of one false constant atom,
// next to −1), or an infeasible row, whose Farkas support Explain
// derives from the tableau as the row left it.
type conflict struct {
	row    int // basic variable of the infeasible row, or -1
	below  bool
	owners [2]int // when row < 0
}

// Explain appends to dst the owners of the bounds that make the last
// unsatisfiable AssertAtom or Check so: the two owners of a bound
// conflict, the owner of a constant atom that is false, or, for an
// infeasible row, the owner of the violated bound plus the owner of
// the bound that blocks each of the row's columns. The atoms it names
// are unsatisfiable together. Owners below zero are skipped; call it
// only after a false result, before the next assertion.
func (s *Solver) Explain(dst []int) []int {
	k := s.conflict
	if k.row < 0 {
		return appendOwner(appendOwner(dst, k.owners[0]), k.owners[1])
	}
	bc := &s.vars[k.row]
	if k.below {
		dst = appendOwner(dst, bc.loOwner)
	} else {
		dst = appendOwner(dst, bc.hiOwner)
	}
	// Every column of the row sits at the bound that keeps the basic
	// variable from moving toward its violated bound.
	for _, e := range bc.row {
		if c := &s.vars[e.col]; k.below == (e.c.Sign() > 0) {
			dst = appendOwner(dst, c.hiOwner)
		} else {
			dst = appendOwner(dst, c.loOwner)
		}
	}
	return dst
}

func appendOwner(dst []int, o int) []int {
	if o >= 0 {
		dst = append(dst, o)
	}
	return dst
}

// Op is a bound relation for AssertAtom.
type Op int8

const (
	Le Op = iota // ≤
	Lt           // <
	Ge           // ≥
	Gt           // >
	Eq           // =
)

// AssertAtom asserts coeffs·x ⋈ c on behalf of atom owner, which
// Explain names when the bound it sets takes part in a conflict; an
// owner below zero is never named. The terms name distinct variables;
// AssertAtom may reorder them. It returns false on an immediately
// detected bound conflict (the conjunction is unsatisfiable).
func (s *Solver) AssertAtom(owner int, coeffs []Term, op Op, c rat.Rat) bool {
	// Constant combination: decide immediately.
	nonzero := false
	for _, t := range coeffs {
		if !t.Coeff.IsZero() {
			nonzero = true
			break
		}
	}
	if !nonzero {
		var ok bool
		switch op {
		case Le:
			ok = c.Sign() >= 0
		case Lt:
			ok = c.Sign() > 0
		case Ge:
			ok = c.Sign() <= 0
		case Gt:
			ok = c.Sign() < 0
		case Eq:
			ok = c.Sign() == 0
		}
		if !ok {
			s.conflict = conflict{row: -1, owners: [2]int{owner, -1}}
		}
		return ok
	}
	for i := 1; i < len(coeffs); i++ {
		if coeffs[i-1].Var > coeffs[i].Var {
			sort.Slice(coeffs, func(i, j int) bool { return coeffs[i].Var < coeffs[j].Var })
			break
		}
	}
	v := s.slackFor(coeffs)
	switch op {
	case Le:
		return s.assertUpper(v, Rat(c), owner)
	case Lt:
		return s.assertUpper(v, RatDelta(c, -1), owner)
	case Ge:
		return s.assertLower(v, Rat(c), owner)
	case Gt:
		return s.assertLower(v, RatDelta(c, 1), owner)
	case Eq:
		return s.assertLower(v, Rat(c), owner) && s.assertUpper(v, Rat(c), owner)
	}
	return false
}

// AssertVarBound asserts a bound directly on a problem variable.
func (s *Solver) AssertVarBound(v int, op Op, c rat.Rat) bool {
	t := [1]Term{{Var: v, Coeff: rat.Int(1)}}
	return s.AssertAtom(-1, t[:], op, c)
}

func (s *Solver) assertUpper(v int, b Num, owner int) bool {
	c := &s.vars[v]
	if c.hasHi && c.upper.Cmp(b) <= 0 {
		return true // no tightening
	}
	if c.hasLo && c.lower.Cmp(b) > 0 {
		// Conflict with the lower bound.
		s.conflict = conflict{row: -1, owners: [2]int{c.loOwner, owner}}
		return false
	}
	c.upper, c.hiOwner = b, owner
	c.hasHi = true
	if !c.basic && c.value.Cmp(b) > 0 {
		s.update(v, b)
	}
	return true
}

func (s *Solver) assertLower(v int, b Num, owner int) bool {
	c := &s.vars[v]
	if c.hasLo && c.lower.Cmp(b) >= 0 {
		return true
	}
	if c.hasHi && c.upper.Cmp(b) < 0 {
		s.conflict = conflict{row: -1, owners: [2]int{c.hiOwner, owner}}
		return false
	}
	c.lower, c.loOwner = b, owner
	c.hasLo = true
	if !c.basic && c.value.Cmp(b) < 0 {
		s.update(v, b)
	}
	return true
}

// update sets nonbasic variable v to val and adjusts the basic values
// whose rows contain v.
func (s *Solver) update(v int, val Num) {
	delta := val.Sub(s.vars[v].value)
	for _, b := range s.vars[v].occ {
		cb := &s.vars[b]
		cb.value = cb.value.Add(delta.ScaleRat(coef(cb.row, v)))
	}
	s.vars[v].value = val
}

// pivotAndUpdate pivots basic bi with nonbasic nj and sets bi to val.
func (s *Solver) pivotAndUpdate(bi, nj int, val Num) {
	theta := val.Sub(s.vars[bi].value).ScaleRat(coef(s.vars[bi].row, nj).Inv())
	s.vars[bi].value = val
	s.vars[nj].value = s.vars[nj].value.Add(theta)
	for _, b := range s.vars[nj].occ {
		if b != bi {
			cb := &s.vars[b]
			cb.value = cb.value.Add(theta.ScaleRat(coef(cb.row, nj)))
		}
	}
	s.pivot(bi, nj)
}

// pivot makes nj basic in place of bi.
func (s *Solver) pivot(bi, nj int) {
	row := s.vars[bi].row
	for _, e := range row {
		s.dropOcc(e.col, bi)
	}
	s.vars[bi].basic = false

	// nj = (bi - sum_{k≠j} a_ik x_k) / a_ij, written into nj's own
	// (unused while nonbasic) row storage.
	inv := coef(row, nj).Inv()
	newRow := s.vars[nj].row[:0]
	placed := false
	for _, e := range row {
		if !placed && bi < e.col {
			newRow = append(newRow, entry{col: bi, c: inv})
			placed = true
		}
		if e.col != nj {
			newRow = append(newRow, entry{col: e.col, c: e.c.Mul(inv).Neg()})
		}
	}
	if !placed {
		newRow = append(newRow, entry{col: bi, c: inv})
	}
	s.vars[bi].row = row[:0]
	s.setRow(nj, newRow)

	// Substitute nj in every other row that contains it. nj's own row
	// does not, so its occurrence list is stable while rows change, and
	// it is empty afterwards.
	for _, b := range s.vars[nj].occ {
		r := s.vars[b].row
		s.vars[b].row = s.axpy(r, newRow, coef(r, nj), nj, b)
	}
	s.vars[nj].occ = s.vars[nj].occ[:0]
}

// Check runs the simplex main loop. It returns true if the asserted
// bounds are satisfiable (and leaves a satisfying assignment in place),
// false if unsatisfiable. An error is returned only on pivot-budget
// exhaustion.
func (s *Solver) Check() (bool, error) {
	for pivots := 0; ; pivots++ {
		if pivots > s.MaxPivots {
			return false, fmt.Errorf("simplex: pivot budget exhausted")
		}
		if !s.Fuel.Spend(1) {
			return false, fmt.Errorf("simplex: fuel exhausted")
		}
		s.Telem.Inc(cPivots)
		// Bland's rule: smallest violating basic variable.
		bi := -1
		below := false
		for v := range s.vars {
			c := &s.vars[v]
			if !c.basic {
				continue
			}
			if c.hasLo && c.value.Cmp(c.lower) < 0 {
				bi = v
				below = true
				break
			}
			if c.hasHi && c.value.Cmp(c.upper) > 0 {
				bi = v
				below = false
				break
			}
		}
		if bi == -1 {
			return true, nil
		}
		// Smallest suitable nonbasic variable: rows are column-sorted.
		nj := -1
		for _, e := range s.vars[bi].row {
			c, sign := &s.vars[e.col], e.c.Sign()
			canRise := !c.hasHi || c.value.Cmp(c.upper) < 0
			canFall := !c.hasLo || c.value.Cmp(c.lower) > 0
			// To increase bi: increase v if c>0 and v below upper;
			// decrease v if c<0 and v above lower. Mirrored to decrease.
			if below && (sign > 0 && canRise || sign < 0 && canFall) ||
				!below && (sign > 0 && canFall || sign < 0 && canRise) {
				nj = e.col
				break
			}
		}
		if nj == -1 {
			s.conflict = conflict{row: bi, below: below}
			return false, nil
		}
		if below {
			s.pivotAndUpdate(bi, nj, s.vars[bi].lower)
		} else {
			s.pivotAndUpdate(bi, nj, s.vars[bi].upper)
		}
	}
}

// Values materializes the current assignment of vars as plain
// rationals, in order, by substituting a concrete positive δ small
// enough to respect every bound. Only call after a successful Check.
func (s *Solver) Values(vars []int) []rat.Rat {
	delta := s.concreteDelta()
	out := make([]rat.Rat, len(vars))
	for i, v := range vars {
		val := s.vars[v].value
		out[i] = val.A.Add(val.B.Mul(delta))
	}
	return out
}

// concreteDelta picks δ ∈ (0, 1] such that substituting it preserves
// every satisfied bound.
func (s *Solver) concreteDelta() rat.Rat {
	delta := rat.Int(1)
	tighten := func(d Num) {
		// Requires d.A + δ·d.B ≥ 0 with d.B < 0: δ ≤ d.A / (−d.B).
		if d.B.Sign() >= 0 {
			return
		}
		lim := d.A.Quo(d.B.Neg())
		if lim.Sign() > 0 && delta.Cmp(lim) > 0 {
			delta = lim
		}
	}
	for _, c := range s.vars {
		if c.hasLo {
			tighten(c.value.Sub(c.lower))
		}
		if c.hasHi {
			tighten(c.upper.Sub(c.value))
		}
	}
	// Stay strictly inside: halve.
	return delta.Mul(rat.New(1, 2))
}
