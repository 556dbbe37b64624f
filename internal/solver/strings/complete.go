package strings

import (
	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/solver/arith"
)

// completeArith runs after every string and boolean variable is
// assigned: it grounds all string subterms to literals, reduces the
// remaining literals to linear integer/real atoms, solves them, and
// certifies the combined model by full evaluation.
func (c *checker) completeArith() (bool, eval.Model) {
	model := eval.Model{}
	for s, v := range c.vals {
		if c.assigned(s) {
			model[c.names[s]] = v
		}
	}
	var pending []ast.Term
	for i, l := range c.lits {
		if c.allSet(c.litSlots[i]) {
			if !c.holds(i) {
				return false, nil
			}
			continue
		}
		simplified := c.simplifyBool(c.ground(l, model))
		if bl, ok := simplified.(*ast.BoolLit); ok {
			if !bl.V {
				return false, nil
			}
			continue
		}
		// Split ground conjunctions into separate atoms.
		if app, ok := simplified.(*ast.App); ok && app.Op == ast.OpAnd {
			pending = append(pending, app.Args...)
			continue
		}
		pending = append(pending, simplified)
	}

	if len(pending) > 0 {
		var atoms []arith.Atom
		intVars := map[string]bool{}
		for _, l := range pending {
			lhs, rhs, rel, ok := arith.Comparison(l)
			if !ok {
				return false, nil
			}
			e, err := arith.LinearizeDiff(lhs, rhs, nil)
			if err != nil {
				return false, nil
			}
			atoms = append(atoms, arith.Atom{Expr: e, Rel: rel})
			for _, v := range ast.FreeVars(l) {
				if v.VSort == ast.SortInt {
					intVars[v.Name] = true
				}
			}
		}
		st, am := arith.Check(&arith.Problem{Atoms: atoms, IntVars: intVars, NodeBudget: 60, Telem: c.telem})
		if st != arith.Sat {
			return false, nil
		}
		for i, name := range am.Names {
			if s, ok := c.slotOf[name]; ok && c.sorts[s] == ast.SortReal {
				model[name] = eval.RealVal(am.Vals[i])
			} else {
				model[name] = eval.IntVal(am.Vals[i])
			}
		}
	}

	// Default-complete and certify.
	for s, name := range c.names {
		if _, ok := model[name]; !ok {
			model[name] = eval.DefaultValue(c.sorts[s])
		}
	}
	for _, l := range c.lits {
		ok, err := eval.Bool(l, model)
		if err != nil || !ok {
			return false, nil
		}
	}
	return true, model
}

// ground replaces every subterm whose free variables are all assigned
// in m by its literal value.
func (c *checker) ground(t ast.Term, m eval.Model) ast.Term {
	return c.terms.Transform(t, func(s ast.Term) ast.Term {
		switch n := s.(type) {
		case *ast.Var:
			if v, ok := m[n.Name]; ok {
				return eval.ToTerm(c.terms, v)
			}
			return s
		case *ast.BoolLit, *ast.IntLit, *ast.RealLit, *ast.StrLit:
			return s
		}
		if s.Sort() == ast.SortRegLan || !allAssigned(s, m) {
			return s
		}
		v, err := eval.Term(s, m)
		if err != nil {
			return s
		}
		return eval.ToTerm(c.terms, v)
	})
}

// allAssigned reports whether every free variable of t has a value in m.
func allAssigned(t ast.Term, m eval.Model) bool {
	for _, v := range ast.FreeVars(t) {
		if _, ok := m[v.Name]; !ok {
			return false
		}
	}
	return true
}

// simplifyBool folds ground boolean structure: negations of literals,
// equalities and ites with a literal boolean side, and conjunctions or
// disjunctions containing literal members. It leaves theory atoms
// untouched.
func (c *checker) simplifyBool(t ast.Term) ast.Term {
	return c.terms.Transform(t, func(s ast.Term) ast.Term {
		app, ok := s.(*ast.App)
		if !ok {
			return s
		}
		switch app.Op {
		case ast.OpNot:
			if bl, ok := app.Args[0].(*ast.BoolLit); ok {
				return ast.Bool(!bl.V)
			}
			if inner, ok := app.Args[0].(*ast.App); ok && inner.Op == ast.OpNot {
				return inner.Args[0]
			}
		case ast.OpEq:
			if len(app.Args) == 2 && app.Args[0].Sort() == ast.SortBool {
				if bl, ok := app.Args[0].(*ast.BoolLit); ok {
					if bl.V {
						return app.Args[1]
					}
					return c.simplifyBool(c.terms.Not(app.Args[1]))
				}
				if bl, ok := app.Args[1].(*ast.BoolLit); ok {
					if bl.V {
						return app.Args[0]
					}
					return c.simplifyBool(c.terms.Not(app.Args[0]))
				}
			}
		case ast.OpIte:
			if bl, ok := app.Args[0].(*ast.BoolLit); ok {
				if bl.V {
					return app.Args[1]
				}
				return app.Args[2]
			}
		case ast.OpAnd:
			var kept []ast.Term
			for _, a := range app.Args {
				if bl, ok := a.(*ast.BoolLit); ok {
					if !bl.V {
						return ast.False
					}
					continue
				}
				kept = append(kept, a)
			}
			if len(kept) == 0 {
				return ast.True
			}
			return c.terms.And(kept...)
		case ast.OpOr:
			var kept []ast.Term
			for _, a := range app.Args {
				if bl, ok := a.(*ast.BoolLit); ok {
					if bl.V {
						return ast.True
					}
					continue
				}
				kept = append(kept, a)
			}
			if len(kept) == 0 {
				return ast.False
			}
			return c.terms.Or(kept...)
		case ast.OpImplies:
			if len(app.Args) == 2 {
				if bl, ok := app.Args[0].(*ast.BoolLit); ok {
					if !bl.V {
						return ast.True
					}
					return app.Args[1]
				}
			}
		}
		return s
	})
}
