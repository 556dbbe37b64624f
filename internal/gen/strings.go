package gen

import (
	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/rat"
	"repro/internal/regex"
	"repro/internal/smtlib"
)

// satStrings builds a satisfiable string-logic seed model-first.
func (g *Generator) satStrings() *core.Seed {
	nVars := 2 + g.rng.Intn(3)
	decls := make([]*smtlib.DeclareFun, 0, nVars+2)
	witness := eval.Model{}
	var vars []*ast.Var
	for i := 0; i < nVars; i++ {
		name := g.fresh("s")
		decls = append(decls, &smtlib.DeclareFun{Name: name, Sort: ast.SortString})
		vars = append(vars, g.tb.Var(name, ast.SortString))
		witness[name] = eval.StrVal(g.randStr(4))
	}
	var intVars []*ast.Var
	if g.tr.ints {
		for i := 0; i < 1+g.rng.Intn(2); i++ {
			name := g.fresh("n")
			decls = append(decls, &smtlib.DeclareFun{Name: name, Sort: ast.SortInt})
			iv := g.tb.Var(name, ast.SortInt)
			intVars = append(intVars, iv)
			witness[name] = eval.IntVal(g.randInt())
		}
	}

	nAtoms := 2 + g.rng.Intn(4)
	var asserts []ast.Term
	for i := 0; i < nAtoms; i++ {
		asserts = append(asserts, g.trueStringAtom(vars, intVars, witness))
	}

	// Boolean scaffolding (the paper's Figure 2 φ2 shape).
	if g.rng.Intn(3) == 0 {
		vName := g.fresh("b")
		decls = append(decls, &smtlib.DeclareFun{Name: vName, Sort: ast.SortBool})
		bv := g.tb.Var(vName, ast.SortBool)
		// trueStringAtom holds under the witness, so v := ¬atom is false
		// and (ite v false atom) evaluates to atom = true — exactly the
		// paper's φ2 pattern.
		atom := g.trueStringAtom(vars, intVars, witness)
		witness[vName] = eval.BoolVal(false)
		asserts = append(asserts, g.tb.Eq(bv, g.tb.Not(atom)))
		asserts = append(asserts, g.tb.Ite(bv, ast.False, atom))
	}

	return &core.Seed{Script: g.script(decls, asserts), Status: core.StatusSat, Witness: witness}
}

// trueStringAtom builds a random string atom that holds under the
// witness.
func (g *Generator) trueStringAtom(vars, intVars []*ast.Var, witness eval.Model) ast.Term {
	t := g.stringTerm(vars, 2)
	v, err := eval.Term(t, witness)
	if err != nil {
		return ast.True
	}
	s := v.Str()
	kinds := 7
	if g.logic == StringFuzz {
		kinds = 9 // bias toward regex-heavy shapes
	}
	switch g.rng.Intn(kinds) {
	case 0: // t = "literal value"
		return g.tb.Eq(t, g.tb.Str(s))
	case 1: // prefix of t
		cut := 0
		if len(s) > 0 {
			cut = g.rng.Intn(len(s) + 1)
		}
		return g.tb.MustApp(ast.OpStrPrefixOf, g.tb.Str(s[:cut]), t)
	case 2: // suffix of t
		cut := len(s)
		if len(s) > 0 {
			cut = g.rng.Intn(len(s) + 1)
		}
		return g.tb.MustApp(ast.OpStrSuffixOf, g.tb.Str(s[cut:]), t)
	case 3: // contains
		if len(s) == 0 {
			return g.tb.MustApp(ast.OpStrContains, t, g.tb.Str(""))
		}
		i := g.rng.Intn(len(s))
		j := i + g.rng.Intn(len(s)-i)
		return g.tb.MustApp(ast.OpStrContains, t, g.tb.Str(s[i:j+1]))
	case 4: // length relation
		ln := g.tb.MustApp(ast.OpStrLen, t)
		if len(intVars) > 0 && g.rng.Intn(2) == 0 {
			// Tie an integer variable to the length: n ≤ len(t) oriented
			// by the witness.
			iv := intVars[g.rng.Intn(len(intVars))]
			if witness[iv.Name].Rat().Cmp(rat.Int(int64(len(s)))) <= 0 {
				return g.tb.Le(iv, ln)
			}
			return g.tb.Gt(iv, ln)
		}
		off := int64(g.rng.Intn(3))
		if g.rng.Intn(2) == 0 {
			return g.tb.Le(ln, g.tb.Int(int64(len(s))+off))
		}
		return g.tb.Ge(ln, g.tb.Int(int64(len(s))-off))
	case 5: // str.to_int / indexof facts
		toInt := g.tb.MustApp(ast.OpStrToInt, t)
		val, _ := eval.Term(toInt, witness)
		return g.tb.Eq(toInt, eval.ToTerm(g.tb, val))
	case 6: // equality chain with concat of a split
		if len(s) == 0 {
			return g.tb.Eq(t, g.tb.Str(""))
		}
		cut := g.rng.Intn(len(s) + 1)
		return g.tb.Eq(t, g.tb.MustApp(ast.OpStrConcat, g.tb.Str(s[:cut]), g.tb.Str(s[cut:])))
	default: // regex membership, oriented by matching
		re, reTerm := g.randRegex(s)
		matches := regex.Match(re, s)
		atom := g.tb.MustApp(ast.OpStrInRe, t, reTerm)
		if matches {
			return atom
		}
		return g.tb.Not(atom)
	}
}

// randRegex builds a random regex term plus its semantic value. The
// string s guides one of the constructions so positive memberships are
// common.
func (g *Generator) randRegex(s string) (regex.Regex, ast.Term) {
	toRe := func(lit string) (regex.Regex, ast.Term) {
		return regex.Lit(lit), g.tb.MustApp(ast.OpStrToRe, g.tb.Str(lit))
	}
	switch g.rng.Intn(5) {
	case 0: // (re.* (str.to_re unit)) where s is a repetition when possible
		unit := g.randStr(2)
		if len(s) > 0 && g.rng.Intn(2) == 0 {
			// Use a prefix unit that may tile s.
			unit = s[:1+g.rng.Intn(len(s))]
		}
		if unit == "" {
			unit = "a"
		}
		r, t := toRe(unit)
		return regex.Star(r), g.tb.MustApp(ast.OpReStar, t)
	case 1: // union with the exact literal
		r1, t1 := toRe(s)
		r2, t2 := toRe(g.randStr(3))
		return regex.Union(r1, r2), g.tb.MustApp(ast.OpReUnion, t1, t2)
	case 2: // (re.+ (re.range lo hi))
		lo, hi := "a", "c"
		r := regex.Plus(regex.Range(lo[0], hi[0]))
		t := g.tb.MustApp(ast.OpRePlus, g.tb.MustApp(ast.OpReRange, g.tb.Str(lo), g.tb.Str(hi)))
		return r, t
	case 3: // concat of opt and literal
		r1, t1 := toRe(g.randStr(2))
		r2, t2 := toRe(g.randStr(2))
		r := regex.Concat(regex.Opt(r1), r2)
		t := g.tb.MustApp(ast.OpReConcat, g.tb.MustApp(ast.OpReOpt, t1), t2)
		return r, t
	default: // allchar*  restricted: (re.++ re.allchar re.all) = nonempty
		r := regex.Concat(regex.AnyChar(), regex.All())
		t := g.tb.MustApp(ast.OpReConcat, g.tb.MustApp(ast.OpReAllChar), g.tb.MustApp(ast.OpReAll))
		return r, t
	}
}

// stringTerm builds a random String-sorted term.
func (g *Generator) stringTerm(vars []*ast.Var, depth int) ast.Term {
	if depth == 0 || g.rng.Intn(3) == 0 {
		if g.rng.Intn(3) < 2 {
			return vars[g.rng.Intn(len(vars))]
		}
		return g.tb.Str(g.randStr(3))
	}
	a := g.stringTerm(vars, depth-1)
	b := g.stringTerm(vars, depth-1)
	switch g.rng.Intn(5) {
	case 0, 1:
		return g.tb.MustApp(ast.OpStrConcat, a, b)
	case 2:
		return g.tb.MustApp(ast.OpStrReplace, a, b, g.tb.Str(g.randStr(2)))
	case 3:
		return g.tb.MustApp(ast.OpStrSubstr, a, g.tb.Int(int64(g.rng.Intn(3))), g.tb.Int(int64(1+g.rng.Intn(3))))
	default:
		return g.tb.MustApp(ast.OpStrAt, a, g.tb.Int(int64(g.rng.Intn(4))))
	}
}

// unsatStrings builds an unsatisfiable string seed.
func (g *Generator) unsatStrings() *core.Seed {
	nVars := 2 + g.rng.Intn(2)
	decls := make([]*smtlib.DeclareFun, 0, nVars)
	noiseWitness := eval.Model{}
	var vars []*ast.Var
	for i := 0; i < nVars; i++ {
		name := g.fresh("t")
		decls = append(decls, &smtlib.DeclareFun{Name: name, Sort: ast.SortString})
		vars = append(vars, g.tb.Var(name, ast.SortString))
		noiseWitness[name] = eval.StrVal(g.randStr(4))
	}
	if g.tr.ints {
		name := g.fresh("m")
		decls = append(decls, &smtlib.DeclareFun{Name: name, Sort: ast.SortInt})
		noiseWitness[name] = eval.IntVal(g.randInt())
	}

	asserts := g.stringContradiction(vars)
	for i := 0; i < g.rng.Intn(3); i++ {
		asserts = append(asserts, g.trueStringAtom(vars, nil, noiseWitness))
	}
	g.rng.Shuffle(len(asserts), func(i, j int) { asserts[i], asserts[j] = asserts[j], asserts[i] })

	return &core.Seed{Script: g.script(decls, asserts), Status: core.StatusUnsat}
}

func (g *Generator) stringContradiction(vars []*ast.Var) []ast.Term {
	a := vars[g.rng.Intn(len(vars))]
	b := vars[g.rng.Intn(len(vars))]
	lit := g.randStr(3)
	switch g.rng.Intn(6) {
	case 0: // a = a ++ "x" (length conflict)
		return []ast.Term{g.tb.Eq(a, g.tb.MustApp(ast.OpStrConcat, a, g.tb.Str("x")))}
	case 1: // a = lit ∧ a = lit' with lit ≠ lit'
		other := lit + "z"
		return []ast.Term{g.tb.Eq(a, g.tb.Str(lit)), g.tb.Eq(a, g.tb.Str(other))}
	case 2: // a ∈ (unit)+ ∧ len(a) < minlen(unit)
		unit := "ab" + g.randStr(1)
		re := g.tb.MustApp(ast.OpRePlus, g.tb.MustApp(ast.OpStrToRe, g.tb.Str(unit)))
		return []ast.Term{
			g.tb.MustApp(ast.OpStrInRe, a, re),
			g.tb.Lt(g.tb.MustApp(ast.OpStrLen, a), g.tb.Int(int64(len(unit)))),
		}
	case 3: // prefixof lit a ∧ len(a) < |lit|
		pre := "ab" + lit
		return []ast.Term{
			g.tb.MustApp(ast.OpStrPrefixOf, g.tb.Str(pre), a),
			g.tb.Lt(g.tb.MustApp(ast.OpStrLen, a), g.tb.Int(int64(len(pre)))),
		}
	case 4: // str.to_int of "" against its defined value (ground false
		// unless the seed's noise hides it syntactically): use variable
		// form a = "" ∧ str.to_int a = 0.
		return []ast.Term{
			g.tb.Eq(a, g.tb.Str("")),
			g.tb.Eq(g.tb.MustApp(ast.OpStrToInt, a), g.tb.Int(0)),
		}
	default: // contains(a, b-as-superstring) both directions with strict lengths
		return []ast.Term{
			g.tb.MustApp(ast.OpStrContains, a, b),
			g.tb.Gt(g.tb.MustApp(ast.OpStrLen, b), g.tb.MustApp(ast.OpStrLen, a)),
		}
	}
}
