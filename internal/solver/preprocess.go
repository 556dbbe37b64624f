package solver

import (
	"fmt"

	"repro/internal/ast"
)

// preprocess runs the full front end over the assert list: rewriting,
// definitional inlining, quantifier normalization (negation pushing and
// positive-existential skolemization), if-then-else lifting, and a
// final rewriting pass. It returns the processed asserts and the sorts
// of all free variables (including introduced ones).
func (s *Solver) preprocess(asserts []ast.Term) ([]ast.Term, error) {
	out := make([]ast.Term, len(asserts))
	for i, a := range asserts {
		out[i] = s.rewriteCached(a)
	}

	out = s.inline(out)

	// Quantifier normalization.
	hadQuant := false
	for i, a := range out {
		if ast.HasQuantifier(a) {
			hadQuant = true
			out[i] = s.normalizeQuant(a)
		}
	}
	if hadQuant {
		for i, a := range out {
			if ast.HasQuantifier(a) {
				s.hit(pQuantGiveUp)
				return nil, fmt.Errorf("quantifier not eliminated: %s", ast.Print(a))
			}
			out[i] = s.rewriteCached(a)
		}
		out = s.inline(out)
	}

	out = s.liftIte(out)

	final := out[:0]
	for _, a := range out {
		r := s.rewriteCached(a)
		if bl, ok := r.(*ast.BoolLit); ok && bl.V {
			continue
		}
		final = append(final, r)
	}
	return final, nil
}

// inline performs definitional inlining: a top-level assert of the form
// (= x t) or (= t x) with x ∉ vars(t), or a bare boolean variable
// (or its negation), defines x and is substituted through the other
// asserts. This is the pass that lets additive fusion formulas collapse
// back to their ancestors' structure.
func (s *Solver) inline(asserts []ast.Term) []ast.Term {
	s.hit(pInlineEntry)
	// Greedy acyclic definition selection: a candidate x := t is
	// accepted only if no variable of t (transitively through already
	// accepted definitions) reaches x. Rejected candidates stay as
	// asserts — after substitution they expose shapes like
	// x = div (x·y) y, exactly the terms the rewriter (and its defect
	// sites) must handle on fused formulas.
	defs := map[string]ast.Term{}
	var rest []ast.Term

	var reaches func(from, target string, seen map[string]bool) bool
	reaches = func(from, target string, seen map[string]bool) bool {
		if from == target {
			return true
		}
		if seen[from] {
			return false
		}
		seen[from] = true
		rhs, ok := defs[from]
		if !ok {
			return false
		}
		for _, fv := range ast.FreeVars(rhs) {
			if reaches(fv.Name, target, seen) {
				return true
			}
		}
		return false
	}

	tryDef := func(name string, sort ast.Sort, rhs ast.Term) bool {
		if _, dup := defs[name]; dup {
			return false
		}
		if rhs.Sort() != sort {
			return false
		}
		for _, fv := range ast.FreeVars(rhs) {
			if reaches(fv.Name, name, map[string]bool{}) {
				return false
			}
		}
		defs[name] = rhs
		return true
	}

	for _, a := range asserts {
		if v, ok := a.(*ast.Var); ok && v.VSort == ast.SortBool {
			if tryDef(v.Name, ast.SortBool, ast.True) {
				continue
			}
		}
		if app, ok := a.(*ast.App); ok {
			if app.Op == ast.OpNot {
				if v, ok := app.Args[0].(*ast.Var); ok && v.VSort == ast.SortBool {
					if tryDef(v.Name, ast.SortBool, ast.False) {
						continue
					}
				}
			}
			if app.Op == ast.OpEq && len(app.Args) == 2 {
				if v, ok := app.Args[0].(*ast.Var); ok && tryDef(v.Name, v.VSort, app.Args[1]) {
					continue
				}
				if v, ok := app.Args[1].(*ast.Var); ok && tryDef(v.Name, v.VSort, app.Args[0]) {
					continue
				}
			}
		}
		rest = append(rest, a)
	}
	if len(defs) == 0 {
		return asserts
	}
	s.hit(pInlineApplied)

	// Resolve chains: the definition graph is acyclic by construction,
	// so iterated substitution reaches a fixpoint in ≤ |defs| rounds.
	for i := 0; i < len(defs)+1; i++ {
		changed := false
		for name, rhs := range defs {
			sub, err := s.terms.Substitute(rhs, defs)
			if err != nil {
				continue // quantified rhs capture: keep as is
			}
			if sub != rhs {
				defs[name] = sub
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// Record substitutions (deterministic order) for model recovery.
	var defNames []string
	for name := range defs {
		defNames = append(defNames, name)
	}
	sortStrings(defNames)
	for _, name := range defNames {
		s.defLog = append(s.defLog, defEntry{name: name, rhs: defs[name]})
	}

	out := make([]ast.Term, 0, len(rest))
	for _, a := range rest {
		sub, err := s.terms.Substitute(a, defs)
		if err != nil {
			out = append(out, a)
			continue
		}
		out = append(out, s.rewriteCached(sub))
	}
	if len(out) == 0 {
		out = append(out, ast.True)
	}
	return out
}

// normalizeQuant pushes negations through the boolean structure (so
// negative universals become positive existentials) and then
// skolemizes positive existentials in place. Remaining quantifiers make
// the solver answer unknown.
func (s *Solver) normalizeQuant(t ast.Term) ast.Term {
	t = s.pushNeg(t, false)
	return s.skolemize(t, true)
}

// pushNeg pushes a pending negation down to atoms.
func (s *Solver) pushNeg(t ast.Term, neg bool) ast.Term {
	switch n := t.(type) {
	case *ast.Quant:
		s.hit(pQuantNegPush)
		forall := n.Forall
		if neg {
			if s.defect(DefQuantNegPush) {
				// Wrong: ¬(∃x φ) → ∃x ¬φ (quantifier kind kept).
				forall = n.Forall
			} else {
				forall = !n.Forall
			}
		}
		return s.terms.MustQuant(forall, n.Bound, s.pushNeg(n.Body, neg))
	case *ast.App:
		switch n.Op {
		case ast.OpNot:
			return s.pushNeg(n.Args[0], !neg)
		case ast.OpAnd, ast.OpOr:
			op := n.Op
			if neg {
				if op == ast.OpAnd {
					op = ast.OpOr
				} else {
					op = ast.OpAnd
				}
			}
			args := make([]ast.Term, len(n.Args))
			for i, a := range n.Args {
				args[i] = s.pushNeg(a, neg)
			}
			return s.terms.MustApp(op, args...)
		case ast.OpImplies:
			if len(n.Args) == 2 {
				// a ⇒ b ≡ ¬a ∨ b.
				lhs := s.pushNeg(n.Args[0], !neg)
				rhs := s.pushNeg(n.Args[1], neg)
				if neg {
					return s.terms.And(lhs, rhs)
				}
				return s.terms.Or(lhs, rhs)
			}
		case ast.OpLe, ast.OpLt, ast.OpGe, ast.OpGt:
			if neg && len(n.Args) == 2 {
				return s.terms.MustApp(negCompareOp(n.Op), n.Args...)
			}
		}
	}
	if neg {
		return s.terms.Not(t)
	}
	return t
}

func negCompareOp(op ast.Op) ast.Op {
	switch op {
	case ast.OpLe:
		return ast.OpGt
	case ast.OpLt:
		return ast.OpGe
	case ast.OpGe:
		return ast.OpLt
	default:
		return ast.OpLe
	}
}

// skolemize replaces positive existentials by fresh free variables.
// positive tracks polarity; quantifiers in negative or mixed positions
// are left untouched (and make the solve give up later).
func (s *Solver) skolemize(t ast.Term, positive bool) ast.Term {
	switch n := t.(type) {
	case *ast.Quant:
		if !n.Forall && positive {
			s.hit(pQuantSkolem)
			repl := map[string]ast.Term{}
			for _, b := range n.Bound {
				repl[b.Name] = s.terms.Var(s.freshName("sk!"+b.Name), b.Sort)
			}
			body, err := s.terms.Substitute(n.Body, repl)
			if err != nil {
				return t
			}
			return s.skolemize(body, positive)
		}
		return t
	case *ast.App:
		switch n.Op {
		case ast.OpNot:
			inner := s.skolemize(n.Args[0], !positive)
			if inner != n.Args[0] {
				return s.terms.Not(inner)
			}
			return t
		case ast.OpAnd, ast.OpOr:
			args := make([]ast.Term, len(n.Args))
			changed := false
			for i, a := range n.Args {
				args[i] = s.skolemize(a, positive)
				if args[i] != a {
					changed = true
				}
			}
			if changed {
				return s.terms.MustApp(n.Op, args...)
			}
			return t
		}
		return t
	default:
		return t
	}
}

func (s *Solver) freshName(base string) string {
	s.freshCounter++
	return fmt.Sprintf("%s!%d", base, s.freshCounter)
}

// liftIte hoists non-boolean if-then-else terms out of atoms: each
// (ite c a b) of sort Int/Real/String becomes a fresh variable t with
// the defining constraints (⇒ c (= t a)) and (⇒ ¬c (= t b)).
func (s *Solver) liftIte(asserts []ast.Term) []ast.Term {
	s.hit(pIteLiftEntry)
	var extra []ast.Term
	out := make([]ast.Term, len(asserts))
	for i, a := range asserts {
		out[i] = s.terms.Transform(a, func(t ast.Term) ast.Term {
			app, ok := t.(*ast.App)
			if !ok || app.Op != ast.OpIte || app.Sort() == ast.SortBool {
				return t
			}
			s.hit(pIteLifted)
			v := s.terms.Var(s.freshName("ite"), app.Sort())
			cond, then, els := app.Args[0], app.Args[1], app.Args[2]
			if containsOp(cond, ast.OpRealDiv) && s.defect(DefIteLiftSwap) {
				then, els = els, then // wrong: branches swapped
			}
			extra = append(extra,
				s.terms.Or(s.terms.Not(cond), s.terms.Eq(v, then)),
				s.terms.Or(cond, s.terms.Eq(v, els)))
			return v
		})
	}
	return append(out, extra...)
}
