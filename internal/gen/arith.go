package gen

import (
	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/rat"
	"repro/internal/smtlib"
)

// satArith builds a satisfiable arithmetic seed model-first.
func (g *Generator) satArith() *core.Seed {
	nVars := 2 + g.rng.Intn(3)
	decls := make([]*smtlib.DeclareFun, 0, nVars+2)
	witness := eval.Model{}
	var vars []*ast.Var
	for i := 0; i < nVars; i++ {
		name := g.fresh("v")
		decls = append(decls, &smtlib.DeclareFun{Name: name, Sort: g.tr.sort})
		v := g.tb.Var(name, g.tr.sort)
		vars = append(vars, v)
		if g.tr.sort == ast.SortInt {
			witness[name] = eval.IntVal(g.randInt())
		} else {
			witness[name] = eval.RealVal(g.randRat())
		}
	}

	nAtoms := 2 + g.rng.Intn(4)
	var asserts []ast.Term
	for i := 0; i < nAtoms; i++ {
		asserts = append(asserts, g.trueArithAtom(vars, witness))
	}

	// Figure-2-style boolean scaffolding: w := atom; assert w (or ¬w).
	if g.rng.Intn(3) == 0 {
		wName := g.fresh("w")
		decls = append(decls, &smtlib.DeclareFun{Name: wName, Sort: ast.SortBool})
		w := g.tb.Var(wName, ast.SortBool)
		atom := g.trueArithAtom(vars, witness)
		truth, polarity := g.orientBool(atom, witness)
		witness[wName] = eval.BoolVal(truth)
		asserts = append(asserts, g.tb.Eq(w, polarity))
		if truth {
			asserts = append(asserts, ast.Term(w))
		} else {
			asserts = append(asserts, g.tb.Not(w))
		}
	}

	// Quantified logics: add a valid quantified conjunct.
	if g.tr.quantified && g.rng.Intn(2) == 0 {
		asserts = append(asserts, g.validQuantified(vars))
	}

	// Disjunctive structure: (or trueAtom anyAtom).
	if g.rng.Intn(3) == 0 {
		noise := g.arbitraryArithAtom(vars)
		tr := g.trueArithAtom(vars, witness)
		if g.rng.Intn(2) == 0 {
			asserts = append(asserts, g.tb.Or(tr, noise))
		} else {
			asserts = append(asserts, g.tb.Or(noise, tr))
		}
	}

	return &core.Seed{Script: g.script(decls, asserts), Status: core.StatusSat, Witness: witness}
}

// orientBool returns the atom's truth under the witness and the atom
// itself (possibly negated so that the returned term's truth matches
// the returned bool — callers pair it with a boolean variable).
func (g *Generator) orientBool(atom ast.Term, witness eval.Model) (bool, ast.Term) {
	truth, err := eval.Bool(atom, witness)
	if err != nil {
		return true, ast.True
	}
	return truth, atom
}

// trueArithAtom builds a random arithmetic atom that holds under the
// witness: generate a term, evaluate it, orient a relation around the
// value.
func (g *Generator) trueArithAtom(vars []*ast.Var, witness eval.Model) ast.Term {
	t := g.arithTerm(vars, 2)
	v, err := eval.Term(t, witness)
	if err != nil {
		return ast.True
	}
	val, one := v.Rat(), rat.Int(1)
	offset := rat.Int(int64(g.rng.Intn(5)))
	switch g.rng.Intn(6) {
	case 0: // t = val
		return g.tb.Eq(t, g.numLit(val))
	case 1: // t ≤ val + offset
		return g.tb.Le(t, g.numLit(val.Add(offset)))
	case 2: // t ≥ val − offset
		return g.tb.Ge(t, g.numLit(val.Sub(offset)))
	case 3: // t < val + offset + 1
		return g.tb.Lt(t, g.numLit(val.Add(offset).Add(one)))
	case 4: // t > val − offset − 1
		return g.tb.Gt(t, g.numLit(val.Sub(offset).Sub(one)))
	default: // distinct(t, val+1+offset)
		return g.tb.Not(g.tb.Eq(t, g.numLit(val.Add(offset).Add(one))))
	}
}

// arbitraryArithAtom builds an atom with no truth guarantee (noise for
// disjunctions).
func (g *Generator) arbitraryArithAtom(vars []*ast.Var) ast.Term {
	t := g.arithTerm(vars, 2)
	c := g.numLit(g.randRat())
	switch g.rng.Intn(4) {
	case 0:
		return g.tb.Lt(t, c)
	case 1:
		return g.tb.Gt(t, c)
	case 2:
		return g.tb.Eq(t, c)
	default:
		return g.tb.Le(t, c)
	}
}

// arithTerm builds a random term of the generator's numeric sort.
func (g *Generator) arithTerm(vars []*ast.Var, depth int) ast.Term {
	if depth == 0 || g.rng.Intn(3) == 0 {
		if g.rng.Intn(2) == 0 {
			return vars[g.rng.Intn(len(vars))]
		}
		return g.numLit(g.randRat())
	}
	a := g.arithTerm(vars, depth-1)
	b := g.arithTerm(vars, depth-1)
	choices := 4
	if g.tr.nonlinear {
		choices = 6
	}
	switch g.rng.Intn(choices) {
	case 0:
		return g.tb.Add(a, b)
	case 1:
		return g.tb.Sub(a, b)
	case 2:
		return g.tb.Neg(a)
	case 3: // scalar multiple (linear)
		return g.tb.Mul(g.numLit(rat.Int(int64(g.rng.Intn(7)-3))), a)
	case 4: // nonlinear product
		return g.tb.Mul(a, b)
	default: // nonlinear division, guarded against a zero divisor
		if sign, isLit := litSign(b); isLit && sign == 0 {
			// A literal-zero divisor makes the guard statically false
			// and the division dead; emit the dividend alone.
			return a
		}
		var d ast.Term
		if g.tr.sort == ast.SortReal {
			d = g.tb.MustApp(ast.OpRealDiv, a, b)
		} else {
			d = g.tb.MustApp(ast.OpIntDiv, a, b)
		}
		if _, isLit := litSign(b); isLit {
			// Nonzero literal divisor: the guard would be statically
			// true, so the division needs none.
			return d
		}
		guard := g.tb.MustApp(ast.OpDistinct, b, g.numLit(rat.Int(0)))
		return g.tb.Ite(guard, d, a)
	}
}

// litSign returns the sign of a numeric literal, seeing through unary
// minus (mirrors the analysis pass's literal test); ok=false for
// non-literal terms.
func litSign(t ast.Term) (int, bool) {
	if v, ok := ast.Numeral(t); ok {
		return v.Sign(), true
	}
	if n, ok := t.(*ast.App); ok && n.Op == ast.OpNeg && len(n.Args) == 1 {
		if s, ok := litSign(n.Args[0]); ok {
			return -s, true
		}
	}
	return 0, false
}

// validQuantified returns a closed-under-witness valid quantified
// conjunct (true under every assignment of the free variables).
func (g *Generator) validQuantified(vars []*ast.Var) ast.Term {
	t := vars[g.rng.Intn(len(vars))]
	h := g.tb.Var(g.fresh("h"), g.tr.sort)
	sv := []ast.SortedVar{{Name: h.Name, Sort: g.tr.sort}}
	switch g.rng.Intn(3) {
	case 0: // ∃h. h > t
		q, _ := g.tb.NewQuant(false, sv, g.tb.Gt(h, t))
		return q
	case 1: // ∀h. h > t ⇒ h ≥ t
		q, _ := g.tb.NewQuant(true, sv, g.tb.MustApp(ast.OpImplies, g.tb.Gt(h, t), g.tb.Ge(h, t)))
		return q
	default: // ¬∀h. h ≤ t
		q, _ := g.tb.NewQuant(true, sv, g.tb.Le(h, t))
		return g.tb.Not(q)
	}
}

// unsatArith builds an unsatisfiable arithmetic seed: contradiction
// core plus noise.
func (g *Generator) unsatArith() *core.Seed {
	nVars := 2 + g.rng.Intn(3)
	decls := make([]*smtlib.DeclareFun, 0, nVars)
	noiseWitness := eval.Model{}
	var vars []*ast.Var
	for i := 0; i < nVars; i++ {
		name := g.fresh("u")
		decls = append(decls, &smtlib.DeclareFun{Name: name, Sort: g.tr.sort})
		vars = append(vars, g.tb.Var(name, g.tr.sort))
		if g.tr.sort == ast.SortInt {
			noiseWitness[name] = eval.IntVal(g.randInt())
		} else {
			noiseWitness[name] = eval.RealVal(g.randRat())
		}
	}

	asserts := g.arithContradiction(vars)

	// Noise: individually satisfiable atoms (conjunction with the core
	// stays unsat regardless).
	for i := 0; i < g.rng.Intn(3); i++ {
		asserts = append(asserts, g.trueArithAtom(vars, noiseWitness))
	}
	g.rng.Shuffle(len(asserts), func(i, j int) { asserts[i], asserts[j] = asserts[j], asserts[i] })

	return &core.Seed{Script: g.script(decls, asserts), Status: core.StatusUnsat}
}

// arithContradiction returns an unsatisfiable conjunction of atoms.
func (g *Generator) arithContradiction(vars []*ast.Var) []ast.Term {
	t := g.arithTerm(vars, 1)
	x := vars[g.rng.Intn(len(vars))]
	y := vars[g.rng.Intn(len(vars))]
	c := g.numLit(g.randRat())

	cores := []func() []ast.Term{
		func() []ast.Term { // t > c ∧ t < c
			return []ast.Term{g.tb.Gt(t, c), g.tb.Lt(t, c)}
		},
		func() []ast.Term { // t = c ∧ t = c+1
			c2 := g.tb.Add(c, g.numLit(rat.Int(1)))
			return []ast.Term{g.tb.Eq(t, c), g.tb.Eq(t, c2)}
		},
		func() []ast.Term { // x > y ∧ y > x
			return []ast.Term{g.tb.Gt(x, y), g.tb.Gt(y, x)}
		},
		func() []ast.Term { // the paper's φ3 shape: (1 + t) + 6 ≠ 7 + t
			one := g.numLit(rat.Int(1))
			six := g.numLit(rat.Int(6))
			seven := g.numLit(rat.Int(7))
			return []ast.Term{g.tb.Not(g.tb.Eq(g.tb.Add(g.tb.Add(one, t), six), g.tb.Add(seven, t)))}
		},
	}
	if g.tr.sort == ast.SortInt {
		cores = append(cores, func() []ast.Term { // parity: 2x = 2y + 1
			two := g.numLit(rat.Int(2))
			one := g.numLit(rat.Int(1))
			return []ast.Term{g.tb.Eq(g.tb.Mul(two, x), g.tb.Add(g.tb.Mul(two, y), one))}
		})
	}
	if g.tr.nonlinear && g.tr.sort == ast.SortReal {
		cores = append(cores, func() []ast.Term { // the paper's φ4 shape
			v := x
			w := y
			if len(vars) >= 3 {
				v, w = vars[1], vars[2]
			}
			// v > 0 is implied (0 < x < v) but asserted explicitly so
			// the division carries a syntactic nonzero guard.
			return []ast.Term{
				g.tb.Gt(x, g.numLit(rat.Int(0))),
				g.tb.Lt(x, v), g.tb.Ge(w, v),
				g.tb.Gt(v, g.numLit(rat.Int(0))),
				g.tb.Lt(g.tb.MustApp(ast.OpRealDiv, w, v), g.numLit(rat.Int(0))),
			}
		})
		cores = append(cores, func() []ast.Term { // x² < 0
			return []ast.Term{g.tb.Lt(g.tb.Mul(x, x), g.numLit(rat.Int(0)))}
		})
	}
	if g.tr.quantified {
		cores = append(cores, func() []ast.Term { // ¬∃h. h > t
			h := g.tb.Var(g.fresh("h"), g.tr.sort)
			q, _ := g.tb.NewQuant(false, []ast.SortedVar{{Name: h.Name, Sort: g.tr.sort}}, g.tb.Gt(h, t))
			return []ast.Term{g.tb.Not(q)}
		})
	}
	return cores[g.rng.Intn(len(cores))]()
}
