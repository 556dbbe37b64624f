// Package strings implements the string theory solver: a length
// abstraction into linear integer arithmetic (the classic Norn-style
// reduction), syntactic equality propagation, regex-guided candidate
// enumeration, and a pruned bounded search for witness models. The
// procedure is sound and incomplete: Sat answers carry a model checked
// by exact evaluation, Unsat answers come only from the abstractions,
// and everything else is Unknown.
package strings

import (
	"sort"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/fuel"
	"repro/internal/regex"
	"repro/internal/solver/arith"
	"repro/internal/solver/rat"
	"repro/internal/telemetry"
)

// cDFSSteps counts string-search DFS nodes — one increment per fuel
// unit spent at a node entry.
var cDFSSteps = telemetry.NewCounter("yy_strings_dfs_steps_total", "string-search DFS nodes")

// Status mirrors arith.Status for string conjunctions.
type Status = arith.Status

const (
	Unknown = arith.Unknown
	Sat     = arith.Sat
	Unsat   = arith.Unsat
)

// Limits bounds the search effort.
type Limits struct {
	// MaxLen is the maximum candidate string length explored.
	MaxLen int
	// MaxCandidates bounds candidates per variable.
	MaxCandidates int
	// MaxNodes bounds DFS nodes.
	MaxNodes int
}

// DefaultLimits returns the limits used by the reference solver. The
// products matter: every DFS node may evaluate all ground literals, and
// leaves invoke an arithmetic completion, so the node budget is kept
// small and the DPLL(T) loop above bounds repetitions.
func DefaultLimits() Limits {
	return Limits{MaxLen: 5, MaxCandidates: 160, MaxNodes: 1500}
}

// Problem is a conjunction of literals. Lits must be boolean terms
// whose polarity is already applied (a negated atom arrives as
// (not atom)). String-sorted and integer-sorted literals may be mixed;
// integer literals participate in the length abstraction.
type Problem struct {
	Lits   []ast.Term
	Limits Limits
	// Defect is the injected-defect hook: when non-nil it is consulted
	// (and the firing recorded by the caller) at each defect site in
	// this theory. Site IDs are defined in internal/solver.
	Defect func(id string) bool
	// Fuel is the unified deadline shared across the solver's engines:
	// the DFS spends one unit per node, candidate enumeration and
	// negative-membership matching spend per derivative, and the meter
	// is handed down to the length abstraction's arithmetic check.
	// Nil means unlimited.
	Fuel *fuel.Meter
	// Telem records DFS-node and regex-derivative counts into the
	// owner's tracker. Nil records nothing.
	Telem *telemetry.Tracker
	// Warm is the reusable search state the owning solver shares
	// across Check calls. Nil disables the verdict rows and compiles
	// the programs per Check; results are identical either way (see
	// Warm).
	Warm *Warm
	// Terms is the table the literals belong to; arithmetic completion
	// builds its grounded literals in it. Nil gives each check a table
	// of its own.
	Terms *ast.Table
}

// Check decides the conjunction. On Sat the model assigns every free
// variable of the literals (strings, ints, bools, reals).
func Check(p *Problem) (Status, eval.Model) {
	return newChecker(p).run()
}

type checker struct {
	lits   []ast.Term
	lim    Limits
	defect func(id string) bool
	fuel   *fuel.Meter
	telem  *telemetry.Tracker
	warm   *Warm
	terms  *ast.Table

	// Slots number the free variables in name order: names[s] and
	// sorts[s] describe slot s, and slotOf maps a name to its slot.
	names  []string
	sorts  []ast.Sort
	slotOf map[string]int
	// litSlots holds each literal's variable slots in ast.FreeVars order
	// (the order compiled programs and row keys read them). litsBySlot
	// indexes literals by slot, so the DFS checks only the literals each
	// assignment completes.
	// groundLits lists the literals without variables.
	litSlots   [][]int
	litsBySlot [][]int
	groundLits []int

	strVars []string
	intVars []string

	// memberships: positive ground regex constraints per string var,
	// and a matcher, charging the check's fuel, per negative one.
	pos map[string][]regex.Regex
	neg map[string][]*regex.Matcher

	// defs are the defining equations v = rhs usable for propagation;
	// defsOf lists their indices by the slot of v.
	defs   []propDef
	defsOf [][]int

	alphabet []byte
	lenHint  map[string]int

	// DFS state (see search): the branching order, per-slot candidates
	// and their value ids, and the current assignment by slot, which is
	// the frame compiled programs read (a zero Val is unassigned; only
	// values whose literals passed are assigned).
	order   []int
	cands   [][]eval.Val
	candIDs [][]uint32
	vals    []eval.Val
	ids     []uint32
	nodes   int
	// litProgs and propProgs are the compiled programs of the literals
	// and of the defining equations' right-hand sides, resolved on
	// first use (see checker.program).
	litProgs  []*eval.Program
	propProgs []*eval.Program
	// completed stacks the literals each open branch loop completes:
	// a frame pushes its own above its caller's and pops them on return.
	completed []completedLit
}

// propDef is a defining equation v = rhs, with the slots of rhs's
// variables in ast.FreeVars order.
type propDef struct {
	rhs   ast.Term
	slots []int
}

// newChecker builds the checker for p, numbering its variables.
func newChecker(p *Problem) *checker {
	lim := p.Limits
	if lim.MaxLen == 0 {
		lim = DefaultLimits()
	}
	c := &checker{lits: p.Lits, lim: lim, defect: p.Defect, fuel: p.Fuel, telem: p.Telem, warm: p.Warm, terms: p.Terms}
	if c.defect == nil {
		c.defect = func(string) bool { return false }
	}
	if c.terms == nil {
		c.terms = ast.NewTable(nil)
	}
	free := make([][]*ast.Var, len(c.lits))
	sorts := map[string]ast.Sort{}
	for i, l := range c.lits {
		free[i] = ast.FreeVars(l)
		for _, v := range free[i] {
			sorts[v.Name] = v.VSort
		}
	}
	for name := range sorts {
		c.names = append(c.names, name)
	}
	sort.Strings(c.names)
	c.sorts = make([]ast.Sort, len(c.names))
	c.slotOf = make(map[string]int, len(c.names))
	for s, name := range c.names {
		c.sorts[s] = sorts[name]
		c.slotOf[name] = s
	}
	c.litSlots = make([][]int, len(c.lits))
	c.litsBySlot = make([][]int, len(c.names))
	for i, vs := range free {
		if len(vs) == 0 {
			c.groundLits = append(c.groundLits, i)
		}
		for _, v := range vs {
			s := c.slotOf[v.Name]
			c.litSlots[i] = append(c.litSlots[i], s)
			c.litsBySlot[s] = append(c.litsBySlot[s], i)
		}
	}
	return c
}

func (c *checker) run() (Status, eval.Model) {
	for s, name := range c.names {
		switch c.sorts[s] {
		case ast.SortString:
			c.strVars = append(c.strVars, name)
		case ast.SortInt:
			c.intVars = append(c.intVars, name)
		}
	}

	// Syntactic conflicts and regex constraints.
	if c.collectRegexConstraints() == Unsat {
		return Unsat, nil
	}

	// Congruence over simple positive equalities: union-find on
	// var = var and var = literal; merging two distinct literals is an
	// immediate conflict (x = "ab" ∧ x = "cd").
	if c.congruenceConflict() {
		return Unsat, nil
	}

	// Length abstraction.
	st, lenModel := c.lengthAbstraction()
	if st == Unsat {
		return Unsat, nil
	}
	c.lenHint = lenModel

	// Bounded model search.
	return c.search()
}

// collectRegexConstraints gathers ground regex memberships and checks
// immediate infeasibility (positive membership in an empty language, or
// an empty positive intersection).
func (c *checker) collectRegexConstraints() Status {
	c.pos = map[string][]regex.Regex{}
	c.neg = map[string][]*regex.Matcher{}
	c.defsOf = make([][]int, len(c.names))
	for _, l := range c.lits {
		atom, polarity := stripNot(l)
		app, ok := atom.(*ast.App)
		if !ok {
			continue
		}
		switch app.Op {
		case ast.OpStrInRe:
			v, isVar := app.Args[0].(*ast.Var)
			r, err := eval.Regex(app.Args[1], nil)
			if err != nil {
				continue // non-ground regex: handled only by search
			}
			if isVar {
				if polarity {
					c.pos[v.Name] = append(c.pos[v.Name], r)
				} else {
					m := regex.NewMatcher(r)
					m.Fuel, m.Telem = c.fuel, c.telem
					c.neg[v.Name] = append(c.neg[v.Name], m)
				}
			}
			if polarity && regex.IsEmpty(r) {
				return Unsat
			}
		case ast.OpEq:
			if !polarity || app.Args[0].Sort() != ast.SortString {
				continue
			}
			if v, ok := app.Args[0].(*ast.Var); ok {
				c.addDef(v.Name, app.Args[1])
			}
			if v, ok := app.Args[1].(*ast.Var); ok {
				c.addDef(v.Name, app.Args[0])
			}
		}
	}
	// Positive membership intersections must be non-empty.
	for _, rs := range c.pos {
		if len(rs) > 1 && regex.IsEmpty(regex.Inter(rs...)) {
			return Unsat
		}
	}
	return Unknown
}

// addDef records the defining equation v = rhs.
func (c *checker) addDef(v string, rhs ast.Term) {
	d := propDef{rhs: rhs}
	for _, fv := range ast.FreeVars(rhs) {
		d.slots = append(d.slots, c.slotOf[fv.Name])
	}
	s := c.slotOf[v]
	c.defsOf[s] = append(c.defsOf[s], len(c.defs))
	c.defs = append(c.defs, d)
}

// congruenceConflict runs union-find over the positive equalities whose
// sides are variables or literals (of any sort), reporting a conflict
// when two distinct literals land in one class.
func (c *checker) congruenceConflict() bool {
	parent := map[string]string{}
	var find func(x string) string
	find = func(x string) string {
		p, ok := parent[x]
		if !ok || p == x {
			parent[x] = x
			return x
		}
		root := find(p)
		parent[x] = root
		return root
	}
	// Class representative literal (by key) per root.
	litOf := map[string]ast.Term{}
	union := func(a, b string, aLit, bLit ast.Term) bool {
		ra, rb := find(a), find(b)
		la, lb := litOf[ra], litOf[rb]
		if aLit != nil {
			la = aLit
		}
		if bLit != nil {
			lb = bLit
		}
		if ra != rb {
			parent[ra] = rb
		}
		switch {
		case la != nil && lb != nil && !ast.Equal(la, lb):
			return false // two distinct literals merged
		case la != nil:
			litOf[find(rb)] = la
		case lb != nil:
			litOf[find(rb)] = lb
		}
		return true
	}
	keyOf := func(t ast.Term) (name string, lit ast.Term, ok bool) {
		switch n := t.(type) {
		case *ast.Var:
			return "v:" + n.Name, nil, true
		case *ast.StrLit, *ast.IntLit, *ast.RealLit, *ast.BoolLit:
			return "l:" + ast.Print(t), t, true
		}
		return "", nil, false
	}
	for _, l := range c.lits {
		atom, polarity := stripNot(l)
		app, isApp := atom.(*ast.App)
		if !isApp || !polarity || app.Op != ast.OpEq || len(app.Args) != 2 {
			continue
		}
		ka, la, oka := keyOf(app.Args[0])
		kb, lb, okb := keyOf(app.Args[1])
		if !oka || !okb {
			continue
		}
		if !union(ka, kb, la, lb) {
			return true
		}
	}
	return false
}

// lengthAbstraction derives integer constraints entailed by the string
// literals, merges them with the conjunction's pure integer literals,
// and checks them with the linear arithmetic solver.
func (c *checker) lengthAbstraction() (Status, map[string]int) {
	abs := arith.NewAbstractor("\x00len!")
	var atoms []arith.Atom
	intVars := map[string]bool{}

	lenVar := func(v string) string { return "\x00len$" + v }
	for _, v := range c.strVars {
		intVars[lenVar(v)] = true
		// len ≥ 0
		e := arith.NewLinExpr()
		e.AddVar(lenVar(v), rat.Int(1))
		atoms = append(atoms, arith.Atom{Expr: e, Rel: arith.RelGe})
	}
	for _, v := range c.intVars {
		intVars[v] = true
	}

	addAtom := func(e *arith.LinExpr, rel arith.Rel) {
		atoms = append(atoms, arith.Atom{Expr: e, Rel: rel})
	}

	// lenExpr builds a linear length expression for a string term, or
	// nil if the term's length is not linearly expressible.
	var lenExpr func(t ast.Term) *arith.LinExpr
	lenExpr = func(t ast.Term) *arith.LinExpr {
		switch n := t.(type) {
		case *ast.Var:
			e := arith.NewLinExpr()
			e.AddVar(lenVar(n.Name), rat.Int(1))
			return e
		case *ast.StrLit:
			e := arith.NewLinExpr()
			e.Const = rat.Int(int64(len(n.V)))
			return e
		case *ast.App:
			if n.Op == ast.OpStrConcat {
				out := arith.NewLinExpr()
				for _, a := range n.Args {
					sub := lenExpr(a)
					if sub == nil {
						return nil
					}
					out.AddExpr(sub, rat.Int(1))
				}
				return out
			}
			return nil
		default:
			return nil
		}
	}

	for _, l := range c.lits {
		atom, polarity := stripNot(l)
		app, ok := atom.(*ast.App)
		if !ok {
			continue
		}
		switch app.Op {
		case ast.OpEq:
			if app.Args[0].Sort() == ast.SortString && polarity {
				a, b := lenExpr(app.Args[0]), lenExpr(app.Args[1])
				if a != nil && b != nil {
					a.AddExpr(b, rat.Int(-1))
					addAtom(a, arith.RelEq)
				}
			} else if app.Args[0].Sort() == ast.SortInt {
				intLit(l, abs, addAtom)
			}
		case ast.OpLe, ast.OpLt, ast.OpGe, ast.OpGt:
			if app.Args[0].Sort() == ast.SortInt {
				intLit(l, abs, addAtom)
			}
		case ast.OpStrPrefixOf, ast.OpStrSuffixOf:
			if polarity {
				a, b := lenExpr(app.Args[0]), lenExpr(app.Args[1])
				if a != nil && b != nil {
					a.AddExpr(b, rat.Int(-1))
					rel := arith.RelLe // |prefix| ≤ |whole|
					if c.defect("th-len-abs-prefix-flip") {
						rel = arith.RelGe // flipped: bogus length conflicts
					}
					addAtom(a, rel)
				}
			}
		case ast.OpStrContains:
			if polarity {
				a, b := lenExpr(app.Args[0]), lenExpr(app.Args[1])
				if a != nil && b != nil {
					b.AddExpr(a, rat.Int(-1))
					addAtom(b, arith.RelLe) // |needle| ≤ |haystack|
				}
			}
		case ast.OpStrInRe:
			v, isVar := app.Args[0].(*ast.Var)
			if !isVar || !polarity {
				continue
			}
			r, err := eval.Regex(app.Args[1], nil)
			if err != nil {
				continue
			}
			if min, ok := regex.MinLenFuel(r, c.fuel, c.telem); ok && min > 0 {
				e := arith.NewLinExpr()
				e.AddVar(lenVar(v.Name), rat.Int(1))
				e.Const = rat.Int(int64(-min))
				rel := arith.RelGe
				if c.defect("th-regex-min-len-strict") {
					rel = arith.RelGt // off-by-one: len == min wrongly refuted
				}
				addAtom(e, rel)
			}
			if max, ok := regex.MaxLen(r); ok {
				e := arith.NewLinExpr()
				e.AddVar(lenVar(v.Name), rat.Int(1))
				e.Const = rat.Int(int64(-max))
				addAtom(e, arith.RelLe)
			}
		}
	}

	// Abstraction variables from integer literals (str.len x becomes
	// the length variable; other foreign terms stay free). Iterate in
	// sorted order: atom order steers the simplex pivot sequence, and
	// step counts must be reproducible run to run.
	absVars := make([]string, 0, len(abs.Terms()))
	for v := range abs.Terms() {
		absVars = append(absVars, v)
	}
	sort.Strings(absVars)
	for _, v := range absVars {
		if app, ok := abs.Terms()[v].(*ast.App); ok && app.Op == ast.OpStrLen {
			if sv, ok := app.Args[0].(*ast.Var); ok {
				// Tie the abstraction var to the length var.
				e := arith.NewLinExpr()
				e.AddVar(v, rat.Int(1))
				e.AddVar(lenVar(sv.Name), rat.Int(-1))
				atoms = append(atoms, arith.Atom{Expr: e, Rel: arith.RelEq})
			}
		}
		intVars[v] = true
	}

	st, model := arith.Check(&arith.Problem{Atoms: atoms, IntVars: intVars, Fuel: c.fuel, Telem: c.telem})
	if st == Unsat {
		return Unsat, nil
	}
	hints := map[string]int{}
	if st == Sat {
		for _, v := range c.strVars {
			if lv, ok := model.Value(lenVar(v)); ok {
				if n, d, inline := lv.Inline(); inline && d == 1 {
					hints[v] = int(n)
				}
			}
		}
	}
	return Unknown, hints
}

// intLit linearizes an integer comparison literal (=, <=, <, >=, >)
// into the abstraction.
func intLit(l ast.Term, abs *arith.Abstractor, add func(*arith.LinExpr, arith.Rel)) {
	lhs, rhs, rel, ok := arith.Comparison(l)
	if !ok {
		return
	}
	if e, err := arith.LinearizeDiff(lhs, rhs, abs); err == nil {
		add(e, rel)
	}
}

func stripNot(t ast.Term) (ast.Term, bool) {
	polarity := true
	//golint:allow fuel-charge — strips a finite chain of not-wrappers; the term strictly shrinks every iteration
	for {
		app, ok := t.(*ast.App)
		if !ok || app.Op != ast.OpNot {
			return t, polarity
		}
		t = app.Args[0]
		polarity = !polarity
	}
}
