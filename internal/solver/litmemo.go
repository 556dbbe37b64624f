package solver

import (
	"cmp"
	"slices"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/solver/arith"
	"repro/internal/solver/rat"
)

// litMemo is the theory front end's memo of literal facts for one
// Solve, keyed by the interned literal term. DPLL(T) hands the theory
// the full literal set of every boolean model, and a solve's models
// share most of their literals: on the `arith` benchmark workload only
// 12% of the literals the arith theory converts are new to their
// solve. So each literal's free variables, compiled program and
// linearization template are built once per solve and replayed in
// every later round.
//
// The memo is made on the first arith theory call, so string-only
// solves never pay for it, and dropped when the solve returns. It is
// not warm state: it holds nothing a later solve could reuse.
type litMemo struct {
	facts map[ast.Term]*litFacts
	// The variable frame: every variable of the solve's literals has a
	// slot, and frame holds its value under the model being checked.
	slot  map[string]int
	vars  []*ast.Var
	frame []eval.Val
	// seen[slot] is the last round that listed the slot in roundVars.
	seen  []int
	round int
	// slab holds the facts and slotArena their slots. A full slab is
	// replaced, never grown, so the pointers in facts stay valid; a
	// grown arena leaves the facts' slots on the old array, which
	// nothing writes again.
	slab      []litFacts
	slotArena []int
	// Per-round scratch of arithTheory, the abstractor included;
	// atomLits[j] is the index in the round's literals of atom j.
	abs       *arith.Abstractor
	lits      []*litFacts
	atomLits  []int
	roundVars []int
}

// litFacts is what the memo knows about one literal.
type litFacts struct {
	lit   ast.Term
	vars  []*ast.Var    // ast.FreeVars order
	slots []int         // frame slot of each of vars
	str   bool          // has a String- or RegLan-sorted subterm
	prog  *eval.Program // compiled on the literal's first evaluation
	// cmp marks an arithmetic comparison; tpl and rel are its
	// linearization and relation.
	cmp bool
	tpl arith.Template
	rel arith.Rel
}

// newLitMemo returns an empty memo sized for the first round's n
// literals.
func newLitMemo(n int) *litMemo {
	return &litMemo{
		facts: make(map[ast.Term]*litFacts, n),
		slot:  make(map[string]int, n),
		abs:   arith.NewAbstractor("\x00nl!"),
		vars:  make([]*ast.Var, 0, n),
		frame: make([]eval.Val, 0, n),
		seen:  make([]int, 0, n),
		slab:  make([]litFacts, 0, n),
	}
}

// get returns the facts of literal l, recording its variables on first
// sight.
func (m *litMemo) get(l ast.Term) *litFacts {
	if f, ok := m.facts[l]; ok {
		return f
	}
	if len(m.slab) == cap(m.slab) {
		m.slab = make([]litFacts, 0, max(cap(m.slab), 8))
	}
	m.slab = append(m.slab, litFacts{lit: l, vars: ast.FreeVars(l), str: hasStringSort(l)})
	f := &m.slab[len(m.slab)-1]
	f.cmp = comparison(f)
	start := len(m.slotArena)
	for _, v := range f.vars {
		sl, ok := m.slot[v.Name]
		if !ok {
			sl = len(m.vars)
			m.slot[v.Name] = sl
			m.vars = append(m.vars, v)
			m.frame = append(m.frame, eval.Val{})
			m.seen = append(m.seen, 0)
		}
		m.slotArena = append(m.slotArena, sl)
	}
	f.slots = m.slotArena[start:len(m.slotArena):len(m.slotArena)]
	m.facts[l] = f
	return f
}

// hasStringSort reports whether t has a String- or RegLan-sorted
// subterm, which sends its conjunction to the string theory.
func hasStringSort(t ast.Term) bool {
	if s := t.Sort(); s == ast.SortString || s == ast.SortRegLan {
		return true
	}
	switch n := t.(type) {
	case *ast.App:
		for _, a := range n.Args {
			if hasStringSort(a) {
				return true
			}
		}
	case *ast.Quant:
		return hasStringSort(n.Body)
	}
	return false
}

// atom converts the literal to a linear atom over abs, abstracting
// nonlinear and foreign subterms. It makes the VarFor calls a fresh
// linearization would, also for a literal whose linearization fails.
func (f *litFacts) atom(abs *arith.Abstractor) (*arith.LinExpr, arith.Rel, bool) {
	if !f.cmp {
		return nil, 0, false
	}
	e, err := f.tpl.Instantiate(abs)
	if err != nil {
		return nil, 0, false
	}
	return e, f.rel, true
}

// comparison records the linearization template and relation of a
// literal that is an arithmetic comparison, and reports whether it is
// one.
func comparison(f *litFacts) bool {
	lhs, rhs, rel, ok := arith.Comparison(f.lit)
	if ok {
		f.tpl, f.rel = arith.MakeTemplate(lhs, rhs), rel
	}
	return ok
}

// collectVars lists the frame slots of the round's literals (m.lits)
// in m.roundVars, each once.
func (m *litMemo) collectVars() {
	m.round++
	m.roundVars = m.roundVars[:0]
	for _, f := range m.lits {
		for _, sl := range f.slots {
			if m.seen[sl] != m.round {
				m.seen[sl] = m.round
				m.roundVars = append(m.roundVars, sl)
			}
		}
	}
}

// load writes an arith model into the frame, typed by the variables'
// sorts: an Int variable takes the integer part of its value, and a
// variable the model does not value takes its sort's default.
func (m *litMemo) load(model arith.Model) {
	for _, sl := range m.roundVars {
		v := m.vars[sl]
		val, ok := model.Value(v.Name)
		switch {
		case !ok:
			m.frame[sl] = eval.DefaultValue(v.VSort)
		case v.VSort == ast.SortInt:
			m.frame[sl] = eval.IntVal(truncate(val))
		default:
			m.frame[sl] = eval.RealVal(val)
		}
	}
}

// truncate rounds x toward zero.
func truncate(x rat.Rat) rat.Rat {
	fl := x.Floor()
	if x.Sign() < 0 && fl.Cmp(x) != 0 {
		return fl.Add(rat.Int(1))
	}
	return fl
}

// holds reports whether every literal of the round is true under the
// frame; an evaluation error counts as false.
func (m *litMemo) holds() bool {
	for _, f := range m.lits {
		if f.prog == nil {
			f.prog = eval.Compile(f.lit)
		}
		ok, err := f.prog.Bool(m.frame, f.slots)
		if err != nil || !ok {
			return false
		}
	}
	return true
}

// model returns the frame's values of the round's variables.
func (m *litMemo) model() eval.Model {
	out := make(eval.Model, len(m.roundVars))
	for _, sl := range m.roundVars {
		out[m.vars[sl].Name] = m.frame[sl]
	}
	return out
}

// gridValues are sampleGrid's perturbations, in trial order.
var gridValues = [...]rat.Rat{rat.Int(0), rat.Int(1), rat.Int(-1), rat.Int(2), rat.New(1, 2), rat.Int(-2)}

// sampleGrid perturbs up to two variables of the rejected candidate
// model in the frame over a small deterministic grid, looking for a
// witness of the nonlinear conjunction. A point that leaves a
// perturbed variable at its candidate value — an Int variable cannot
// take 1/2 — equals a point already rejected, so it is skipped.
func (m *litMemo) sampleGrid() (eval.Model, bool) {
	var slots []int
	for _, sl := range m.roundVars {
		if m.vars[sl].VSort.IsArith() {
			slots = append(slots, sl)
		}
	}
	if len(slots) == 0 || len(slots) > 6 {
		return nil, false
	}
	slices.SortFunc(slots, func(a, b int) int { return cmp.Compare(m.vars[a].Name, m.vars[b].Name) })
	base := make([]eval.Val, len(slots))
	for i, sl := range slots {
		base[i] = m.frame[sl]
	}
	// set writes g into slot i of the perturbation and reports whether
	// the value differs from the candidate's.
	set := func(i int, g rat.Rat) bool {
		v := eval.RealVal(g)
		if m.vars[slots[i]].VSort == ast.SortInt {
			if !g.IsInt() {
				return false
			}
			v = eval.IntVal(g)
		}
		m.frame[slots[i]] = v
		return !v.Equal(base[i])
	}
	// Single-variable perturbations.
	for i := range slots {
		for _, g := range gridValues {
			if set(i, g) && m.holds() {
				return m.model(), true
			}
		}
		m.frame[slots[i]] = base[i]
	}
	// Pairwise perturbations for small problems.
	if len(slots) <= 3 {
		for i := range slots {
			for j := i + 1; j < len(slots); j++ {
				for _, g1 := range gridValues {
					if !set(i, g1) {
						continue
					}
					for _, g2 := range gridValues {
						if set(j, g2) && m.holds() {
							return m.model(), true
						}
					}
					m.frame[slots[j]] = base[j]
				}
				m.frame[slots[i]] = base[i]
			}
		}
	}
	return nil, false
}
