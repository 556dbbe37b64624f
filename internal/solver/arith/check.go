package arith

import (
	"slices"
	"sort"
	"sync"

	"repro/internal/fuel"
	"repro/internal/rat"
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
	st, m, _ := check(p, false)
	return st, m
}

// CheckCore is Check that, with Unsat, also returns a core: the sorted
// indices of a nonempty subset of p.Atoms that is unsatisfiable on its
// own (under the same IntVars). The core is built from the conflicts
// the search meets:
//
//   - a bound conflict in the simplex names the atoms that set the two
//     bounds, and an infeasible row the row's Farkas support;
//   - a GCD cut names its one equality;
//   - a branch-and-bound node whose children are both unsat names the
//     union of their cores without the branch atoms (every integer
//     satisfies one branch), and a disequality split does the same
//     with both branch atoms standing for the ≠ atom.
//
// Check, which the string layer calls, keeps none of this.
func CheckCore(p *Problem) (Status, Model, []int) {
	return check(p, true)
}

func check(p *Problem, explain bool) (Status, Model, []int) {
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
	c := &checker{intVars: p.IntVars, budget: budget, fuel: p.Fuel, telem: p.Telem, sx: sx, explain: explain}
	st, m := c.solve(p.Atoms, nil)
	if st != Unsat || !explain {
		return st, m, nil
	}
	slices.Sort(c.core)
	return st, m, slices.Compact(c.core)
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
	// explain turns on core tracking: core collects the root atom ids
	// that explain each unsat node met, so after an Unsat at the root
	// it holds the union over the nodes of the refuted tree.
	explain bool
	core    []int
}

// idOf returns the root atom id of atoms[i] in a node whose ids are
// ids: nil ids (the root) means the atom's own index, and −1 marks a
// branch-and-bound branch atom, which no core names.
func idOf(ids []int, i int) int {
	if ids == nil {
		return i
	}
	return ids[i]
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

// solve decides one tree node. ids maps the node's atoms to root atom
// ids (see idOf); it is only kept up to date while explaining.
func (c *checker) solve(atoms []Atom, ids []int) (Status, Model) {
	if c.budget <= 0 || !c.fuel.Spend(1) {
		return Unknown, Model{}
	}
	c.telem.Inc(cBnBNodes)
	c.budget--

	// Integer strengthening: over all-integer variables with integer
	// coefficients, a strict inequality tightens to a non-strict one
	// (x > c ⇒ x ≥ c+1), which keeps simplex witnesses on integer
	// points instead of δ-fractional ones. Positions, and so ids, are
	// kept.
	atoms = c.strengthenInts(atoms)

	// GCD cut: an integer equality Σ cᵢxᵢ + c = 0 (integer xᵢ) is
	// unsatisfiable when gcd(cᵢ) does not divide c. This decides cases
	// branch-and-bound cannot (unbounded parity conflicts).
	for i, a := range atoms {
		if a.Rel == RelEq && c.gcdCutInfeasible(a.Expr) {
			if c.explain {
				c.core = append(c.core, idOf(ids, i))
			}
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

	var diseqs []int
	for i, a := range atoms {
		if a.Rel == RelNe {
			diseqs = append(diseqs, i)
			continue
		}
		c.terms = c.terms[:0]
		for _, t := range a.Expr.Coeffs {
			c.terms = append(c.terms, simplex.Term{Var: sort.SearchStrings(names, t.Var), Coeff: t.Coeff})
		}
		if !sx.AssertAtom(idOf(ids, i), c.terms, relOps[a.Rel], a.Expr.Const.Neg()) {
			return c.unsat()
		}
	}
	ok, err := sx.Check()
	if err != nil {
		return Unknown, Model{}
	}
	if !ok {
		return c.unsat()
	}

	cols := make([]int, len(names))
	for i := range cols {
		cols[i] = i
	}
	m := Model{Names: names, Vals: sx.Values(cols)}

	// Disequality handling: if some ≠ atom is violated by the model,
	// split into < and > branches, both standing for the ≠ atom.
	for _, i := range diseqs {
		d := atoms[i]
		if m.eval(d.Expr).IsZero() {
			id := idOf(ids, i)
			lt, ltIDs := c.child(atoms, ids, i, Atom{Expr: d.Expr, Rel: RelLt}, id)
			if st, m := c.solve(lt, ltIDs); st == Sat {
				return Sat, m
			} else if st == Unknown {
				return Unknown, Model{}
			}
			gt, gtIDs := c.child(atoms, ids, i, Atom{Expr: d.Expr, Rel: RelGt}, id)
			return c.solve(gt, gtIDs)
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
		down, downIDs := c.child(atoms, ids, -1, Atom{Expr: le, Rel: RelLe}, -1)
		if st, m := c.solve(down, downIDs); st == Sat {
			return Sat, m
		} else if st == Unknown {
			return Unknown, Model{}
		}
		ceil := fl.Add(rat.Int(1))
		ge := &LinExpr{Coeffs: []VarCoeff{{Var: v, Coeff: rat.Int(1)}}, Const: ceil.Neg()} // v - ceil ≥ 0
		up, upIDs := c.child(atoms, ids, -1, Atom{Expr: ge, Rel: RelGe}, -1)
		return c.solve(up, upIDs)
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

// unsat reports a simplex conflict, adding its owners to the core when
// explaining.
func (c *checker) unsat() (Status, Model) {
	if c.explain {
		c.core = c.sx.Explain(c.core)
	}
	return Unsat, Model{}
}

// child returns a child node's atoms: the node's atoms without those
// equal to atoms[drop] (none when drop < 0) plus the branch atom br.
// When explaining it also returns their ids, br's being brID.
func (c *checker) child(atoms []Atom, ids []int, drop int, br Atom, brID int) ([]Atom, []int) {
	var outIDs []int
	if c.explain {
		outIDs = make([]int, 0, len(atoms)+1)
	}
	out := make([]Atom, 0, len(atoms)+1)
	for i, a := range atoms {
		if drop >= 0 && a.Expr == atoms[drop].Expr && a.Rel == atoms[drop].Rel {
			continue
		}
		out = append(out, a)
		if c.explain {
			outIDs = append(outIDs, idOf(ids, i))
		}
	}
	if c.explain {
		outIDs = append(outIDs, brID)
	}
	return append(out, br), outIDs
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
