package arith

import (
	"slices"
	"sort"
	"sync"

	"repro/internal/fuel"
	"repro/internal/solver/rat"
	"repro/internal/solver/simplex"
	"repro/internal/telemetry"
)

// cBnBNodes counts branch-and-bound / disequality-split tree nodes —
// one increment per fuel unit spent at a node entry.
var cBnBNodes = telemetry.NewCounter("yy_arith_bnb_nodes_total", "arithmetic branch-and-bound tree nodes")

// Rel is the relation of an atom Expr ⋈ 0.
type Rel int8

const (
	RelLe Rel = iota // ≤ 0
	RelLt            // < 0
	RelGe            // ≥ 0
	RelGt            // > 0
	RelEq            // = 0
	RelNe            // ≠ 0
)

// Negate returns the complementary relation.
func (r Rel) Negate() Rel {
	switch r {
	case RelLe:
		return RelGt
	case RelLt:
		return RelGe
	case RelGe:
		return RelLt
	case RelGt:
		return RelLe
	case RelEq:
		return RelNe
	default:
		return RelEq
	}
}

// Atom is a linear atom Expr ⋈ 0.
type Atom struct {
	Expr *LinExpr
	Rel  Rel
}

// Status is the outcome of a conjunction check.
type Status int8

const (
	Unknown Status = iota
	Sat
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

// Problem is a conjunction of linear atoms with integrality side
// conditions.
type Problem struct {
	Atoms   []Atom
	IntVars map[string]bool
	// NodeBudget bounds the branch-and-bound / disequality-split tree;
	// exhausting it yields Unknown. Zero selects a default.
	NodeBudget int
	// Fuel is the unified deadline shared across the solver's engines:
	// one unit is spent per tree node, and the meter is handed down to
	// the simplex core. Exhaustion yields Unknown. Nil means unlimited.
	Fuel *fuel.Meter
	// Telem records tree-node and pivot counts into the owner's
	// tracker (handed down to the simplex core). Nil records nothing.
	Telem *telemetry.Tracker
}

// Check decides the conjunction. On Sat, the returned model values
// every variable occurring in the atoms (integral for IntVars); on
// Unsat and Unknown it is empty.
func Check(p *Problem) (Status, Model) {
	budget := p.NodeBudget
	if budget == 0 {
		budget = 400
	}
	sx := tableaus.Get().(*simplex.Solver)
	sx.Fuel, sx.Telem = p.Fuel, p.Telem
	defer func() {
		sx.Fuel, sx.Telem = nil, nil
		tableaus.Put(sx)
	}()
	c := &checker{intVars: p.IntVars, budget: budget, fuel: p.Fuel, telem: p.Telem, sx: sx}
	return c.solve(p.Atoms)
}

// tableaus recycles simplex instances, with their row and column
// storage, across Check calls.
var tableaus = sync.Pool{New: func() any { return simplex.New() }}

type checker struct {
	intVars map[string]bool
	budget  int
	fuel    *fuel.Meter
	telem   *telemetry.Tracker
	// sx is the tableau, reset at every tree node: a node reads
	// nothing from it after recursing into its children.
	sx    *simplex.Solver
	terms []simplex.Term // atom coefficient scratch
}

// Model is a satisfying assignment: Vals[i] is the value of Names[i],
// and Names is sorted.
type Model struct {
	Names []string
	Vals  []rat.Rat
}

// Value returns the value of variable v, and false when m does not
// value it.
func (m Model) Value(v string) (rat.Rat, bool) {
	i, ok := slices.BinarySearch(m.Names, v)
	if !ok {
		return rat.Rat{}, false
	}
	return m.Vals[i], true
}

// relOps maps each relation except RelNe to its simplex bound.
var relOps = [...]simplex.Op{RelLe: simplex.Le, RelLt: simplex.Lt, RelGe: simplex.Ge, RelGt: simplex.Gt, RelEq: simplex.Eq}

func (c *checker) solve(atoms []Atom) (Status, Model) {
	if c.budget <= 0 || !c.fuel.Spend(1) {
		return Unknown, Model{}
	}
	c.telem.Inc(cBnBNodes)
	c.budget--

	// Integer strengthening: over all-integer variables with integer
	// coefficients, a strict inequality tightens to a non-strict one
	// (x > c ⇒ x ≥ c+1), which keeps simplex witnesses on integer
	// points instead of δ-fractional ones.
	atoms = c.strengthenInts(atoms)

	// GCD cut: an integer equality Σ cᵢxᵢ + c = 0 (integer xᵢ) is
	// unsatisfiable when gcd(cᵢ) does not divide c. This decides cases
	// branch-and-bound cannot (unbounded parity conflicts).
	for _, a := range atoms {
		if a.Rel == RelEq && c.gcdCutInfeasible(a.Expr) {
			return Unsat, Model{}
		}
	}

	// Collect variables deterministically: sorted, and the simplex
	// column of each is its index.
	n := 0
	for _, a := range atoms {
		n += len(a.Expr.Coeffs)
	}
	names := make([]string, 0, n)
	for _, a := range atoms {
		for _, t := range a.Expr.Coeffs {
			names = append(names, t.Var)
		}
	}
	sort.Strings(names)
	names = slices.Compact(names)

	sx := c.sx
	sx.Reset()
	for range names {
		sx.NewVar()
	}

	var diseqs []Atom
	for _, a := range atoms {
		if a.Rel == RelNe {
			diseqs = append(diseqs, a)
			continue
		}
		c.terms = c.terms[:0]
		for _, t := range a.Expr.Coeffs {
			c.terms = append(c.terms, simplex.Term{Var: sort.SearchStrings(names, t.Var), Coeff: t.Coeff})
		}
		if !sx.AssertAtom(c.terms, relOps[a.Rel], a.Expr.Const.Neg()) {
			return Unsat, Model{}
		}
	}
	ok, err := sx.Check()
	if err != nil {
		return Unknown, Model{}
	}
	if !ok {
		return Unsat, Model{}
	}

	ids := make([]int, len(names))
	for i := range ids {
		ids[i] = i
	}
	m := Model{Names: names, Vals: sx.Values(ids)}

	// Disequality handling: if some ≠ atom is violated by the model,
	// split into < and > branches.
	for _, d := range diseqs {
		if m.eval(d.Expr).IsZero() {
			lt := append(cloneAtoms(atoms, d), Atom{Expr: d.Expr, Rel: RelLt})
			if st, m := c.solve(lt); st == Sat {
				return Sat, m
			} else if st == Unknown {
				return Unknown, Model{}
			}
			gt := append(cloneAtoms(atoms, d), Atom{Expr: d.Expr, Rel: RelGt})
			return c.solve(gt)
		}
	}

	// Integrality: branch and bound on the first fractional integer
	// variable.
	for i, v := range names {
		if !c.intVars[v] {
			continue
		}
		val := m.Vals[i]
		if val.IsInt() {
			continue
		}
		fl := val.Floor()
		le := &LinExpr{Coeffs: []VarCoeff{{Var: v, Coeff: rat.Int(1)}}, Const: fl.Neg()} // v - floor ≤ 0
		down := append(cloneAtoms(atoms, Atom{}), Atom{Expr: le, Rel: RelLe})
		if st, m := c.solve(down); st == Sat {
			return Sat, m
		} else if st == Unknown {
			return Unknown, Model{}
		}
		ceil := fl.Add(rat.Int(1))
		ge := &LinExpr{Coeffs: []VarCoeff{{Var: v, Coeff: rat.Int(1)}}, Const: ceil.Neg()} // v - ceil ≥ 0
		up := append(cloneAtoms(atoms, Atom{}), Atom{Expr: ge, Rel: RelGe})
		return c.solve(up)
	}

	return Sat, m
}

// eval evaluates e under the model; every variable of e must be
// valued.
func (m Model) eval(e *LinExpr) rat.Rat {
	out := e.Const
	for _, t := range e.Coeffs {
		out = out.Add(t.Coeff.Mul(m.Vals[sort.SearchStrings(m.Names, t.Var)]))
	}
	return out
}

// cloneAtoms copies the atom slice, dropping the (by-pointer) excluded
// atom if present.
func cloneAtoms(atoms []Atom, exclude Atom) []Atom {
	out := make([]Atom, 0, len(atoms)+1)
	for _, a := range atoms {
		if exclude.Expr != nil && a.Expr == exclude.Expr && a.Rel == exclude.Rel {
			continue
		}
		out = append(out, a)
	}
	return out
}

// strengthenInts rewrites strict atoms over all-integer variables with
// integer coefficients into equivalent non-strict atoms. It returns
// atoms itself when no atom changes.
func (c *checker) strengthenInts(atoms []Atom) []Atom {
	out, copied := atoms, false
	for i, a := range atoms {
		if a.Rel != RelLt && a.Rel != RelGt {
			continue
		}
		allInt := len(a.Expr.Coeffs) > 0
		for _, t := range a.Expr.Coeffs {
			if !c.intVars[t.Var] || !t.Coeff.IsInt() {
				allInt = false
				break
			}
		}
		if !allInt || !a.Expr.Const.IsInt() {
			continue
		}
		if !copied {
			out, copied = slices.Clone(atoms), true
		}
		// The coefficients are shared with the original atom: neither
		// is mutated after construction.
		if a.Rel == RelLt { // e < 0 ⇒ e ≤ −1 ⇒ e + 1 ≤ 0
			out[i] = Atom{Expr: &LinExpr{Coeffs: a.Expr.Coeffs, Const: a.Expr.Const.Add(rat.Int(1))}, Rel: RelLe}
		} else { // e > 0 ⇒ e ≥ 1 ⇒ e − 1 ≥ 0
			out[i] = Atom{Expr: &LinExpr{Coeffs: a.Expr.Coeffs, Const: a.Expr.Const.Sub(rat.Int(1))}, Rel: RelGe}
		}
	}
	return out
}

// gcdCutInfeasible reports whether the equality e = 0 over all-integer
// variables has no integer solution by the gcd divisibility criterion:
// with g the rational gcd of the coefficients (the gcd of their
// numerators over the lcm of their denominators), an integer solution
// needs c/g to be an integer.
func (c *checker) gcdCutInfeasible(e *LinExpr) bool {
	if len(e.Coeffs) == 0 {
		return false // constant equalities are handled by simplex
	}
	var g rat.Rat
	for _, t := range e.Coeffs {
		if !c.intVars[t.Var] {
			return false
		}
		g = rat.GCD(g, t.Coeff)
	}
	return !e.Const.Quo(g).IsInt()
}
