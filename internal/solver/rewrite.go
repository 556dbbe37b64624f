package solver

import (
	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/rat"
)

// rewrite simplifies a boolean assert: operator-specific rules (the
// defect sites live here), then ground-term constant folding, applied
// bottom-up to a fixpoint per node.
func (s *Solver) rewrite(t ast.Term) ast.Term {
	s.hit(pRewriteEntry)
	// Deep nonlinear terms only arise after fusion stacks inversion
	// terms inside seed terms; plain seeds stay shallower.
	if s.cfg.Has(DefCrashDeepNonlinear) && ast.Depth(t) > 9 {
		ops := ast.Ops(t)
		if ops[ast.OpMul] && ops[ast.OpRealDiv] && s.defect(DefCrashDeepNonlinear) {
			s.crash(DefCrashDeepNonlinear, "rewriter stack overflow on deep nonlinear term")
		}
	}
	return s.terms.Transform(t, func(n ast.Term) ast.Term {
		out := s.rewriteNode(n)
		// A rule may expose a new redex at this node; iterate locally.
		for i := 0; i < 4; i++ {
			next := s.rewriteNode(out)
			if next == out {
				break
			}
			out = next
		}
		return out
	})
}

func (s *Solver) rewriteNode(t ast.Term) ast.Term {
	app, ok := t.(*ast.App)
	if !ok {
		return t
	}
	switch app.Op {
	case ast.OpNot:
		s.hit(pRwNot)
		if bl, ok := app.Args[0].(*ast.BoolLit); ok {
			return ast.Bool(!bl.V)
		}
		if inner, ok := app.Args[0].(*ast.App); ok && inner.Op == ast.OpNot {
			return inner.Args[0]
		}
		return t
	case ast.OpAnd, ast.OpOr:
		return s.rwAndOr(app)
	case ast.OpEq:
		return s.rwEq(app)
	case ast.OpDistinct:
		return s.rwDistinct(app)
	case ast.OpIte:
		return s.rwIte(app)
	case ast.OpAdd, ast.OpMul:
		return s.rwAddMul(app)
	case ast.OpRealDiv:
		return s.rwRealDiv(app)
	case ast.OpIntDiv, ast.OpMod:
		return s.rwIntDiv(app)
	case ast.OpAbs:
		return s.rwAbs(app)
	case ast.OpLe, ast.OpLt, ast.OpGe, ast.OpGt:
		return s.rwCompare(app)
	case ast.OpStrConcat:
		return s.rwConcat(app)
	case ast.OpStrLen:
		return s.rwStrLen(app)
	case ast.OpStrAt:
		return s.rwStrAt(app)
	case ast.OpStrSubstr:
		return s.rwSubstr(app)
	case ast.OpStrReplace:
		return s.rwReplace(app)
	case ast.OpStrPrefixOf, ast.OpStrSuffixOf:
		return s.rwAffix(app)
	case ast.OpStrContains:
		return s.rwContains(app)
	case ast.OpStrIndexOf:
		return s.rwIndexOf(app)
	case ast.OpStrToInt:
		return s.rwStrToInt(app)
	default:
		return s.foldGround(t)
	}
}

func (s *Solver) rwAndOr(app *ast.App) ast.Term {
	s.hit(pRwBoolConn)
	isAnd := app.Op == ast.OpAnd
	var flat []ast.Term
	for _, a := range app.Args {
		if bl, ok := a.(*ast.BoolLit); ok {
			if bl.V == isAnd {
				continue // neutral element
			}
			return ast.Bool(!isAnd) // absorbing element
		}
		if sub, ok := a.(*ast.App); ok && sub.Op == app.Op {
			flat = append(flat, sub.Args...)
			continue
		}
		flat = append(flat, a)
	}
	if isAnd && s.cfg.Has(DefLeGuardCollapse) {
		flat = s.collapseLeGuard(flat)
	}
	switch len(flat) {
	case 0:
		return ast.Bool(isAnd)
	case 1:
		return flat[0]
	}
	if len(flat) == len(app.Args) {
		same := true
		for i := range flat {
			if flat[i] != app.Args[i] {
				same = false
				break
			}
		}
		if same {
			return app
		}
	}
	return s.terms.MustApp(app.Op, flat...)
}

// collapseLeGuard implements the rw-le-guard-collapse defect: inside a
// conjunction, a (distinct a b) conjunct whose pair also appears under
// a non-strict bound — (<= a b) or (>= a b), either orientation — is
// "simplified" away, as if the bound subsumed it. Formulas whose
// unsatisfiability hinges on the strictness (x² < 0 expressed as
// x² ≤ 0 ∧ x² ≠ 0) flip to sat. Terms are interned, so the pair match
// is pointer comparison.
func (s *Solver) collapseLeGuard(flat []ast.Term) []ast.Term {
	samePair := func(b, d *ast.App) bool {
		return (b.Args[0] == d.Args[0] && b.Args[1] == d.Args[1]) ||
			(b.Args[0] == d.Args[1] && b.Args[1] == d.Args[0])
	}
	guarded := func(d *ast.App) bool {
		for _, t := range flat {
			b, ok := t.(*ast.App)
			if ok && (b.Op == ast.OpLe || b.Op == ast.OpGe) && len(b.Args) == 2 && samePair(b, d) {
				return true
			}
		}
		return false
	}
	out := make([]ast.Term, 0, len(flat))
	for _, t := range flat {
		d, ok := t.(*ast.App)
		if ok && d.Op == ast.OpDistinct && len(d.Args) == 2 && guarded(d) && s.defect(DefLeGuardCollapse) {
			continue
		}
		out = append(out, t)
	}
	return out
}

func (s *Solver) rwEq(app *ast.App) ast.Term {
	s.hit(pRwEq)
	allEqual := true
	for i := 1; i < len(app.Args); i++ {
		if !ast.Equal(app.Args[0], app.Args[i]) {
			allEqual = false
			break
		}
	}
	if allEqual {
		return ast.True
	}
	// Chain n-ary equalities into binary conjunctions.
	if len(app.Args) > 2 {
		s.hit(pRwEqChain)
		var conj []ast.Term
		for i := 0; i+1 < len(app.Args); i++ {
			conj = append(conj, s.terms.Eq(app.Args[i], app.Args[i+1]))
		}
		return s.terms.And(conj...)
	}
	// Defective equality cancellation (see eqDivCancelDefect).
	if len(app.Args) == 2 && app.Args[0].Sort().IsArith() &&
		s.eqDivCancelDefect(app.Args[0], app.Args[1]) {
		return ast.True
	}
	// Boolean equality against a constant is the operand (or its
	// negation) — the rule that makes inlined boolean definitions
	// collapse.
	if len(app.Args) == 2 && app.Args[0].Sort() == ast.SortBool {
		if bl, ok := app.Args[0].(*ast.BoolLit); ok {
			if bl.V {
				return app.Args[1]
			}
			return s.terms.Not(app.Args[1])
		}
		if bl, ok := app.Args[1].(*ast.BoolLit); ok {
			if bl.V {
				return app.Args[0]
			}
			return s.terms.Not(app.Args[0])
		}
	}
	// Ground equality folds.
	return s.foldGround(app)
}

func (s *Solver) rwDistinct(app *ast.App) ast.Term {
	s.hit(pRwDistinct)
	if len(app.Args) == 2 {
		return s.foldGround(app)
	}
	// Pairwise expansion.
	var conj []ast.Term
	n := len(app.Args)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			conj = append(conj, s.terms.Not(s.terms.Eq(app.Args[i], app.Args[j])))
		}
	}
	return s.terms.And(conj...)
}

func (s *Solver) rwIte(app *ast.App) ast.Term {
	s.hit(pRwIte)
	if bl, ok := app.Args[0].(*ast.BoolLit); ok {
		if bl.V {
			return app.Args[1]
		}
		return app.Args[2]
	}
	if ast.Equal(app.Args[1], app.Args[2]) {
		return app.Args[1]
	}
	if neg, ok := app.Args[0].(*ast.App); ok && neg.Op == ast.OpNot {
		return s.terms.Ite(neg.Args[0], app.Args[2], app.Args[1])
	}
	return app
}

func (s *Solver) rwAddMul(app *ast.App) ast.Term {
	s.hit(pRwAddMul)
	isAdd := app.Op == ast.OpAdd
	// Pre-scan: most applications have nothing to flatten and no
	// identity/absorbing literals, so the slice rebuilds below would
	// reproduce app.Args verbatim. Skip them for that common case.
	rebuild := false
	for _, a := range app.Args {
		if sub, ok := a.(*ast.App); ok && sub.Op == app.Op {
			rebuild = true
			break
		}
		if isNumLit(a, 0) || (!isAdd && isNumLit(a, 1)) {
			rebuild = true
			break
		}
	}
	kept := app.Args
	if rebuild {
		var flat []ast.Term
		for _, a := range app.Args {
			if sub, ok := a.(*ast.App); ok && sub.Op == app.Op {
				flat = append(flat, sub.Args...)
				continue
			}
			flat = append(flat, a)
		}
		// Identity/absorbing literal handling.
		kept = nil
		for _, a := range flat {
			if isNumLit(a, 0) && isAdd {
				continue
			}
			if isNumLit(a, 1) && !isAdd {
				continue
			}
			if isNumLit(a, 0) && !isAdd {
				return s.zeroOfSort(app.Sort())
			}
			kept = append(kept, a)
		}
		if len(kept) == 0 {
			if isAdd {
				return s.zeroOfSort(app.Sort())
			}
			return s.oneOfSort(app.Sort())
		}
		if len(kept) == 1 {
			return kept[0]
		}
	}
	// (* (/ a b) b) → a. Sound only for a literal nonzero divisor; the
	// defect applies the cancellation unconditionally — the unguarded
	// rewrite behind bugs like the paper's Figure 13c.
	if !isAdd && len(kept) == 2 {
		if out, ok := s.tryDivCancel(kept[0], kept[1]); ok {
			return out
		}
		if out, ok := s.tryDivCancel(kept[1], kept[0]); ok {
			return out
		}
	}
	var out ast.Term = app
	if rebuild {
		// Flattening or literal removal always changed the argument
		// list, so reconstruct (interning dedups any coincidences).
		out = s.terms.MustApp(app.Op, kept...)
	}
	return s.foldGround(out)
}

func (s *Solver) tryDivCancel(a, b ast.Term) (ast.Term, bool) {
	div, ok := a.(*ast.App)
	if !ok || div.Op != ast.OpRealDiv || len(div.Args) != 2 {
		return nil, false
	}
	if !ast.Equal(div.Args[1], b) {
		return nil, false
	}
	s.hit(pRwDivCancel)
	if lit, ok := b.(*ast.RealLit); ok && lit.V.Sign() != 0 {
		return div.Args[0], true
	}
	if s.defect(DefRealDivCancel) {
		// Unguarded cancellation: wrong when b can be 0 (x/0 = 0 here).
		return div.Args[0], true
	}
	return nil, false
}

func (s *Solver) rwRealDiv(app *ast.App) ast.Term {
	s.hit(pRwRealDiv)
	if len(app.Args) == 2 {
		// The numeral-check assertion only trips on COMPOUND equal
		// operands (a variable self-division short-circuits earlier in
		// the real solver's pipeline) — the shape fusion builds by
		// substituting the same inversion term into both positions.
		if _, isVar := app.Args[0].(*ast.Var); !isVar &&
			ast.Equal(app.Args[0], app.Args[1]) && s.defect(DefCrashSelfDivision) {
			s.crash(DefCrashSelfDivision, "Failed to verify: m_util.is_numeral(rhs, _k)")
		}
		if isNumLit(app.Args[1], 1) {
			return app.Args[0]
		}
		// (/ (* a b) b) → a. Sound only for a literal nonzero divisor
		// (under x/0 = 0, (a·0)/0 = 0 ≠ a).
		if out, ok := s.tryMulDivCancel(app.Args[0], app.Args[1]); ok {
			return out
		}
	}
	return s.foldGround(app)
}

// tryMulDivCancel handles (op (* a b) b) → a for the real and integer
// division operators, guarded by a literal nonzero divisor.
func (s *Solver) tryMulDivCancel(num, den ast.Term) (ast.Term, bool) {
	mul, ok := num.(*ast.App)
	if !ok || mul.Op != ast.OpMul || len(mul.Args) != 2 {
		return nil, false
	}
	var other ast.Term
	switch {
	case ast.Equal(mul.Args[1], den):
		other = mul.Args[0]
	case ast.Equal(mul.Args[0], den):
		other = mul.Args[1]
	default:
		return nil, false
	}
	s.hit(pRwDivCancel)
	if c, ok := ast.Numeral(den); ok && !c.IsZero() {
		return other, true
	}
	return nil, false
}

// eqDivCancelDefect implements the asymmetric cancellation bug: an
// EQUALITY of the form a = (a·b)/b (or a = (a/b)·b, or the integer div
// form) is "simplified" to true, silently dropping the b = 0 case —
// while the same division terms elsewhere in the formula are left
// alone. Fused formulas assert exactly these equalities as fusion
// constraints, so the defect erases the constraint without restoring
// the substituted occurrences: the paper's Figure 5 bug dynamic.
func (s *Solver) eqDivCancelDefect(lhs, rhs ast.Term) bool {
	return s.eqDivCancelOne(lhs, rhs) || s.eqDivCancelOne(rhs, lhs)
}

// eqDivCancelOne checks the oriented pattern v = e with e one of
// (a·b)/b, (a·b) div b, or (a/b)·b where a is v.
func (s *Solver) eqDivCancelOne(v, e ast.Term) bool {
	div, ok := e.(*ast.App)
	if !ok {
		return false
	}
	switch div.Op {
	case ast.OpIntDiv:
		if len(div.Args) != 2 {
			return false
		}
		mul, ok := div.Args[0].(*ast.App)
		if !ok || mul.Op != ast.OpMul || len(mul.Args) != 2 {
			return false
		}
		den := div.Args[1]
		if (ast.Equal(mul.Args[0], v) && ast.Equal(mul.Args[1], den)) ||
			(ast.Equal(mul.Args[1], v) && ast.Equal(mul.Args[0], den)) {
			s.hit(pRwEqDivCancel)
			return s.defect(DefIntDivMulCancel)
		}
	case ast.OpRealDiv:
		if len(div.Args) != 2 {
			return false
		}
		mul, ok := div.Args[0].(*ast.App)
		if !ok || mul.Op != ast.OpMul || len(mul.Args) != 2 {
			return false
		}
		den := div.Args[1]
		if (ast.Equal(mul.Args[0], v) && ast.Equal(mul.Args[1], den)) ||
			(ast.Equal(mul.Args[1], v) && ast.Equal(mul.Args[0], den)) {
			s.hit(pRwEqDivCancel)
			return s.defect(DefRealDivCancel)
		}
	case ast.OpMul:
		// a = (a/b)·b
		if len(div.Args) != 2 {
			return false
		}
		for i := 0; i < 2; i++ {
			inner, ok := div.Args[i].(*ast.App)
			if !ok || inner.Op != ast.OpRealDiv || len(inner.Args) != 2 {
				continue
			}
			if ast.Equal(inner.Args[0], v) && ast.Equal(inner.Args[1], div.Args[1-i]) {
				return s.defect(DefRealDivCancel)
			}
		}
	}
	return false
}

func (s *Solver) rwIntDiv(app *ast.App) ast.Term {
	s.hit(pRwIntDiv)
	a0, ok0 := app.Args[0].(*ast.IntLit)
	a1, ok1 := app.Args[1].(*ast.IntLit)
	if ok0 && ok1 && len(app.Args) == 2 {
		if app.Op == ast.OpIntDiv && a1.V.Sign() < 0 && s.defect(DefIntDivNegRound) {
			// Truncated instead of Euclidean division.
			s.hit(pRwIntDivNeg)
			return s.terms.IntRat(a0.V.Quo(a1.V).Trunc())
		}
		return s.foldGround(app)
	}
	if app.Op == ast.OpIntDiv && len(app.Args) == 2 && isNumLit(app.Args[1], 1) {
		return app.Args[0]
	}
	// (div (* a b) b) → a, guarded like the real case.
	if app.Op == ast.OpIntDiv && len(app.Args) == 2 {
		if out, ok := s.tryMulDivCancel(app.Args[0], app.Args[1]); ok {
			return out
		}
	}
	if app.Op == ast.OpMod && isNumLit(app.Args[1], 1) {
		return s.terms.Int(0)
	}
	return app
}

func (s *Solver) rwAbs(app *ast.App) ast.Term {
	s.hit(pRwAbs)
	if lit, ok := app.Args[0].(*ast.IntLit); ok {
		if lit.V.Sign() < 0 {
			return s.terms.IntRat(lit.V.Neg())
		}
		return s.terms.IntRat(lit.V)
	}
	return app
}

func (s *Solver) rwCompare(app *ast.App) ast.Term {
	s.hit(pRwCompare)
	if len(app.Args) == 2 {
		a, b := app.Args[0], app.Args[1]
		if ast.Equal(a, b) {
			switch app.Op {
			case ast.OpLe, ast.OpGe:
				return ast.True
			case ast.OpLt, ast.OpGt:
				return ast.False
			}
		}
		// Sign reasoning for squares: a² ≥ 0 always. The defect treats
		// any product like a square, and fires when it folds one that is
		// not.
		if sq := isSquare(a); sq || (s.cfg.Has(DefMulSignFold) && isProduct(a)) {
			s.hit(pRwSquareSign)
			if folded, ok := nonNegFold(app.Op, b); ok && (sq || s.defect(DefMulSignFold)) {
				return folded
			}
		}
		// Defect: the bound normalizer strengthens a ≥ 0 to a > 0 when
		// the left side went through division rewriting.
		if app.Op == ast.OpGe && isNumLit(b, 0) && containsOp(a, ast.OpRealDiv) && s.defect(DefGeZeroStrengthen) {
			return s.terms.Gt(a, b)
		}
		// Defect: multiply-through normalization of (op (div p q) b) to
		// (op p (* b q)) without sign or zero analysis — wrong whenever
		// q can be non-positive. Fires on the (div z y) inversion terms
		// fusion substitutes into comparisons.
		if div, ok := a.(*ast.App); ok && len(div.Args) == 2 &&
			(div.Op == ast.OpIntDiv || div.Op == ast.OpRealDiv) {
			if q, lit := ast.Numeral(div.Args[1]); !lit || q.IsZero() {
				s.hit(pRwDivMulThrough)
				if s.defect(DefDivMulThrough) {
					return s.terms.MustApp(app.Op, div.Args[0], s.terms.Mul(b, div.Args[1]))
				}
			}
		}
	}
	return s.foldGround(app)
}

func isSquare(t ast.Term) bool {
	app, ok := t.(*ast.App)
	return ok && app.Op == ast.OpMul && len(app.Args) == 2 && ast.Equal(app.Args[0], app.Args[1])
}

// nonNegFold decides (op p b) for a non-negative p and a numeral b
// whose sign settles it: p < b and p ≤ b are false, p ≥ b and p > b
// true.
func nonNegFold(op ast.Op, b ast.Term) (ast.Term, bool) {
	c, ok := ast.Numeral(b)
	if !ok {
		return nil, false
	}
	switch sign := c.Sign(); {
	case op == ast.OpLt && sign <= 0, op == ast.OpLe && sign < 0:
		return ast.False, true
	case op == ast.OpGe && sign <= 0, op == ast.OpGt && sign < 0:
		return ast.True, true
	}
	return nil, false
}

func isProduct(t ast.Term) bool {
	app, ok := t.(*ast.App)
	return ok && app.Op == ast.OpMul
}

func (s *Solver) rwConcat(app *ast.App) ast.Term {
	s.hit(pRwConcat)
	var flat []ast.Term
	nestedSeen := 0
	for _, a := range app.Args {
		if sub, ok := a.(*ast.App); ok && sub.Op == ast.OpStrConcat {
			nestedSeen++
			args := sub.Args
			if nestedSeen >= 2 && len(args) > 1 && s.defect(DefConcatAssocDrop) {
				args = args[:len(args)-1] // drops an operand while flattening
			}
			flat = append(flat, args...)
			continue
		}
		flat = append(flat, a)
	}
	// Drop empty literals, merge adjacent literals.
	var merged []ast.Term
	for _, a := range flat {
		if lit, ok := a.(*ast.StrLit); ok {
			if lit.V == "" {
				continue
			}
			if len(merged) > 0 {
				if prev, ok := merged[len(merged)-1].(*ast.StrLit); ok {
					merged[len(merged)-1] = s.terms.Str(prev.V + lit.V)
					continue
				}
			}
		}
		merged = append(merged, a)
	}
	switch len(merged) {
	case 0:
		return s.terms.Str("")
	case 1:
		return merged[0]
	}
	if len(merged) == len(app.Args) {
		same := true
		for i := range merged {
			if merged[i] != app.Args[i] {
				same = false
				break
			}
		}
		if same {
			return app
		}
	}
	return s.terms.MustApp(ast.OpStrConcat, merged...)
}

func (s *Solver) rwStrLen(app *ast.App) ast.Term {
	s.hit(pRwStrLen)
	if cc, ok := app.Args[0].(*ast.App); ok && cc.Op == ast.OpStrConcat {
		args := cc.Args
		if len(args) >= 3 && s.defect(DefStrLenConcatDrop) {
			args = args[:len(args)-1]
		}
		terms := make([]ast.Term, len(args))
		for i, a := range args {
			terms[i] = s.terms.MustApp(ast.OpStrLen, a)
		}
		return s.terms.Add(terms...)
	}
	return s.foldGround(app)
}

func (s *Solver) rwStrAt(app *ast.App) ast.Term {
	s.hit(pRwStrAt)
	lit, ok0 := app.Args[0].(*ast.StrLit)
	idx, ok1 := app.Args[1].(*ast.IntLit)
	if ok0 && ok1 {
		if idx.V.Cmp(rat.Int(int64(len(lit.V)))) == 0 && len(lit.V) > 0 && s.defect(DefStrAtOutOfRange) {
			// Off-by-one: returns the last character instead of "".
			return s.terms.Str(lit.V[len(lit.V)-1:])
		}
	}
	return s.foldGround(app)
}

func (s *Solver) rwSubstr(app *ast.App) ast.Term {
	s.hit(pRwSubstr)
	// (str.substr (str.++ a rest…) 0 (str.len a)) → a: prefix
	// extraction of the leading concat operand.
	if zero, ok := app.Args[1].(*ast.IntLit); ok && zero.V.Sign() == 0 {
		if ln, ok := app.Args[2].(*ast.App); ok && ln.Op == ast.OpStrLen {
			if cc, ok := app.Args[0].(*ast.App); ok && cc.Op == ast.OpStrConcat {
				s.hit(pRwSubstrConcat)
				if ast.Equal(cc.Args[0], ln.Args[0]) {
					return cc.Args[0]
				}
			}
		}
	}
	return s.foldGround(app)
}

func (s *Solver) rwReplace(app *ast.App) ast.Term {
	s.hit(pRwReplace)
	if pat, ok := app.Args[1].(*ast.StrLit); ok && pat.V == "" {
		s.hit(pRwReplaceEmpty)
		if s.defect(DefStrReplaceEmptyPat) {
			// Wrong: drops the prepended replacement.
			return app.Args[0]
		}
		return s.terms.MustApp(ast.OpStrConcat, app.Args[2], app.Args[0])
	}
	if ast.Equal(app.Args[1], app.Args[2]) {
		// Replacing t by t is the identity.
		return app.Args[0]
	}
	// Defect: replace of a variable pattern inside a variable subject
	// is "assumed not to occur" and dropped — wrong whenever the
	// pattern's value does occur. SAT fusion's inversion terms
	// replace(z, x, "") are exactly this shape (and x ALWAYS occurs:
	// z's intended value is x ++ y), so the defect over-constrains
	// satisfiable fused formulas into wrong unsat answers.
	if _, subjVar := app.Args[0].(*ast.Var); subjVar {
		if _, patVar := app.Args[1].(*ast.Var); patVar {
			if empty, ok := app.Args[2].(*ast.StrLit); ok && empty.V == "" {
				s.hit(pRwReplaceVar)
				if s.defect(DefReplaceVarNoop) {
					return app.Args[0]
				}
			}
		}
	}
	// (str.replace (str.++ a rest…) a "") → (str.++ rest…): the first
	// occurrence of the leading operand is its own prefix position, so
	// dropping it is sound. The defect drops the leading operand for
	// ANY pattern — the corruption fused formulas expose through
	// y = replace(x ++ y, x, "") shapes.
	if empty, ok := app.Args[2].(*ast.StrLit); ok && empty.V == "" {
		if cc, ok := app.Args[0].(*ast.App); ok && cc.Op == ast.OpStrConcat {
			s.hit(pRwReplaceConcat)
			restTerm := func() ast.Term {
				if len(cc.Args) == 2 {
					return cc.Args[1]
				}
				return s.terms.MustApp(ast.OpStrConcat, cc.Args[1:]...)
			}
			if ast.Equal(cc.Args[0], app.Args[1]) {
				// Overzealous-removal defect: when the next operand is a
				// literal separator, it is dropped along with the
				// pattern — corrupting exactly the infix fusion shape
				// replace(x ++ c ++ y, x, "").
				if len(cc.Args) >= 3 {
					if _, isLit := cc.Args[1].(*ast.StrLit); isLit && s.defect(DefReplaceConcatDrop) {
						if len(cc.Args) == 3 {
							return cc.Args[2]
						}
						return s.terms.MustApp(ast.OpStrConcat, cc.Args[2:]...)
					}
				}
				return restTerm()
			}
			if s.defect(DefReplaceConcatDrop) {
				return restTerm()
			}
		}
	}
	return s.foldGround(app)
}

func (s *Solver) rwAffix(app *ast.App) ast.Term {
	s.hit(pRwAffix)
	if lit, ok := app.Args[0].(*ast.StrLit); ok && lit.V == "" {
		if app.Op == ast.OpStrSuffixOf && s.defect(DefStrSuffixEmpty) {
			return ast.False
		}
		return ast.True
	}
	if ast.Equal(app.Args[0], app.Args[1]) {
		return ast.True
	}
	return s.foldGround(app)
}

func (s *Solver) rwContains(app *ast.App) ast.Term {
	s.hit(pRwContains)
	if ast.Equal(app.Args[0], app.Args[1]) {
		if s.defect(DefStrContainsSelf) {
			return ast.False
		}
		return ast.True
	}
	if lit, ok := app.Args[1].(*ast.StrLit); ok && lit.V == "" {
		return ast.True
	}
	return s.foldGround(app)
}

func (s *Solver) rwIndexOf(app *ast.App) ast.Term {
	s.hit(pRwIndexOf)
	return s.foldGround(app)
}

func (s *Solver) rwStrToInt(app *ast.App) ast.Term {
	s.hit(pRwStrToInt)
	if lit, ok := app.Args[0].(*ast.StrLit); ok && lit.V == "" {
		s.hit(pRwStrToIntEmpty)
		if s.defect(DefStrToIntEmpty) {
			// The paper's CVC4 bug class: missed corner case in the
			// str.to_int reduction for the empty string.
			return s.terms.Int(0)
		}
		return s.terms.Int(-1)
	}
	return s.foldGround(app)
}

// foldGround evaluates a fully ground non-RegLan term to its literal.
func (s *Solver) foldGround(t ast.Term) ast.Term {
	app, ok := t.(*ast.App)
	if !ok || app.Sort() == ast.SortRegLan {
		return t
	}
	if ast.HasFreeVars(app) || ast.HasQuantifier(app) {
		return t
	}
	v, err := eval.Term(app, nil)
	if err != nil {
		return t
	}
	s.hit(pRwFold)
	return eval.ToTerm(s.terms, v)
}

func containsOp(t ast.Term, op ast.Op) bool {
	return ast.Ops(t)[op]
}

// isNumLit reports whether t is a numeric literal of value v.
func isNumLit(t ast.Term, v int64) bool {
	c, ok := ast.Numeral(t)
	return ok && c.Cmp(rat.Int(v)) == 0
}

func (s *Solver) zeroOfSort(sort ast.Sort) ast.Term {
	if sort == ast.SortReal {
		return s.terms.Real(0, 1)
	}
	return s.terms.Int(0)
}

func (s *Solver) oneOfSort(sort ast.Sort) ast.Term {
	if sort == ast.SortReal {
		return s.terms.Real(1, 1)
	}
	return s.terms.Int(1)
}
