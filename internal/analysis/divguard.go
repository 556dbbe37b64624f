package analysis

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/smtlib"
)

// divGuardPass flags divisions and modulos whose divisor may be zero
// without a syntactic nonzero guard in scope. This is exactly the shape
// class where the simulated solvers' division defects live, and where
// the paper's fixed x/0 = 0 interpretation diverges from SMT-LIB's
// underspecified division — an unguarded (= x (div (* x y) y)) fusion
// constraint is only equisatisfiability-preserving together with a
// y ≠ 0 guard.
//
// Guard facts are collected context-sensitively: every top-level assert
// contributes facts globally (asserts are conjoined), conjunction arms
// guard their siblings, each disjunct of an or only sees its own facts,
// and an ite's then-branch sees the condition's facts while the
// else-branch sees the negation's. Recognized guard shapes, for a
// divisor term d (matched by printed form):
//
//	(distinct d 0)   (not (= d 0))   (= d c) with c a nonzero literal
//	(> d 0) (< d 0)  and literal-bound comparisons implying d ≠ 0
//
// Findings are warnings: hand-written seeds may carry semantically
// implied guards the syntactic matcher cannot see (the paper's φ4
// guards w/v through 0 < y < v), so the severity stays below the
// runtime gate while generator and fusion outputs are held to zero
// warnings by tests.
type divGuardPass struct{}

func (divGuardPass) Name() string { return "divguard" }

func (divGuardPass) Analyze(s *smtlib.Script, _ *FusionMeta) []Diagnostic {
	var out []Diagnostic
	asserts := s.Asserts()

	// Top-level asserts are conjoined: their facts hold everywhere.
	global := factSet{}
	for _, a := range asserts {
		collectGuardFacts(a, global)
	}
	for i, a := range asserts {
		checkDivisors(a, fmt.Sprintf("assert[%d]", i), global, &out)
	}
	return out
}

// factSet maps the printed form of each term known nonzero in context
// to the term itself, so facts over a quantifier's bound names can be
// dropped on entering its body.
type factSet map[string]ast.Term

func (f factSet) add(t ast.Term) { f[ast.Print(t)] = t }

func (f factSet) extend(more factSet) factSet {
	if len(more) == 0 {
		return f
	}
	out := make(factSet, len(f)+len(more))
	for k, t := range f {
		out[k] = t
	}
	for k, t := range more {
		out[k] = t
	}
	return out
}

// without returns the facts that mention none of the bound names: a
// fact about an outer x says nothing about a quantifier's own x.
func (f factSet) without(bound []ast.SortedVar) factSet {
	out := make(factSet, len(f))
	for k, t := range f {
		if !mentionsAny(t, bound) {
			out[k] = t
		}
	}
	return out
}

func mentionsAny(t ast.Term, bound []ast.SortedVar) bool {
	for _, v := range ast.FreeVars(t) {
		for _, b := range bound {
			if v.Name == b.Name {
				return true
			}
		}
	}
	return false
}

// collectGuardFacts adds to facts every term t proves nonzero when t
// holds.
func collectGuardFacts(t ast.Term, facts factSet) {
	n, ok := t.(*ast.App)
	if !ok {
		return
	}
	switch n.Op {
	case ast.OpAnd:
		for _, a := range n.Args {
			collectGuardFacts(a, facts)
		}
	case ast.OpNot:
		if eq, ok := n.Args[0].(*ast.App); ok && eq.Op == ast.OpEq && len(eq.Args) == 2 {
			markDistinctPair(eq.Args[0], eq.Args[1], facts)
		}
	case ast.OpDistinct:
		if len(n.Args) == 2 {
			markDistinctPair(n.Args[0], n.Args[1], facts)
		}
	case ast.OpEq:
		if len(n.Args) == 2 {
			// d = c with c a nonzero literal.
			if isNonzeroLiteral(n.Args[1]) {
				facts.add(n.Args[0])
			}
			if isNonzeroLiteral(n.Args[0]) {
				facts.add(n.Args[1])
			}
		}
	case ast.OpGt, ast.OpGe, ast.OpLt, ast.OpLe:
		if len(n.Args) == 2 {
			markComparisonFacts(n.Op, n.Args[0], n.Args[1], facts)
		}
	}
}

// markDistinctPair handles (distinct a b): when one side is the zero
// literal, the other is nonzero.
func markDistinctPair(a, b ast.Term, facts factSet) {
	if isZeroLiteral(b) {
		facts.add(a)
	}
	if isZeroLiteral(a) {
		facts.add(b)
	}
}

// markComparisonFacts derives nonzero facts from a comparison against a
// literal bound: d > c with c ≥ 0, d ≥ c with c > 0, d < c with c ≤ 0,
// d ≤ c with c < 0 (and the mirrored literal-first forms).
func markComparisonFacts(op ast.Op, a, b ast.Term, facts factSet) {
	if sign, ok := literalSign(b); ok {
		nz := false
		switch op {
		case ast.OpGt:
			nz = sign >= 0
		case ast.OpGe:
			nz = sign > 0
		case ast.OpLt:
			nz = sign <= 0
		case ast.OpLe:
			nz = sign < 0
		}
		if nz {
			facts.add(a)
		}
	}
	if sign, ok := literalSign(a); ok {
		// c OP d reads as d inverse-OP c.
		nz := false
		switch op {
		case ast.OpLt: // c < d  ⇒  d > c
			nz = sign >= 0
		case ast.OpLe: // c ≤ d  ⇒  d ≥ c
			nz = sign > 0
		case ast.OpGt: // c > d  ⇒  d < c
			nz = sign <= 0
		case ast.OpGe: // c ≥ d  ⇒  d ≤ c
			nz = sign < 0
		}
		if nz {
			facts.add(b)
		}
	}
}

// negatedGuardFacts adds the facts implied by ¬cond (for ite else
// branches): ¬(d = 0) and ¬(not φ) via φ's positive facts.
func negatedGuardFacts(cond ast.Term, facts factSet) {
	n, ok := cond.(*ast.App)
	if !ok {
		return
	}
	switch n.Op {
	case ast.OpEq:
		if len(n.Args) == 2 {
			markDistinctPair(n.Args[0], n.Args[1], facts)
		}
	case ast.OpNot:
		collectGuardFacts(n.Args[0], facts)
	case ast.OpOr:
		// ¬(a ∨ b) ⇒ ¬a ∧ ¬b.
		for _, a := range n.Args {
			negatedGuardFacts(a, facts)
		}
	}
}

// checkDivisors walks t reporting unguarded possibly-zero divisors.
func checkDivisors(t ast.Term, path string, facts factSet, out *[]Diagnostic) {
	switch n := t.(type) {
	case *ast.App:
		switch n.Op {
		case ast.OpAnd:
			// Conjunct siblings guard each other.
			local := factSet{}
			for _, a := range n.Args {
				collectGuardFacts(a, local)
			}
			inner := facts.extend(local)
			for i, a := range n.Args {
				checkDivisors(a, fmt.Sprintf("%s.arg[%d]", path, i), inner, out)
			}
			return
		case ast.OpOr:
			// Each disjunct sees only its own facts.
			for i, a := range n.Args {
				local := factSet{}
				collectGuardFacts(a, local)
				checkDivisors(a, fmt.Sprintf("%s.arg[%d]", path, i), facts.extend(local), out)
			}
			return
		case ast.OpIte:
			checkDivisors(n.Args[0], path+".arg[0]", facts, out)
			thenFacts := factSet{}
			collectGuardFacts(n.Args[0], thenFacts)
			checkDivisors(n.Args[1], path+".arg[1]", facts.extend(thenFacts), out)
			elseFacts := factSet{}
			negatedGuardFacts(n.Args[0], elseFacts)
			checkDivisors(n.Args[2], path+".arg[2]", facts.extend(elseFacts), out)
			return
		case ast.OpIntDiv, ast.OpRealDiv:
			for i := 1; i < len(n.Args); i++ {
				reportUnguarded(n, n.Args[i], fmt.Sprintf("%s.arg[%d]", path, i), facts, out)
			}
		case ast.OpMod:
			if len(n.Args) == 2 {
				reportUnguarded(n, n.Args[1], path+".arg[1]", facts, out)
			}
		}
		for i, a := range n.Args {
			checkDivisors(a, fmt.Sprintf("%s.arg[%d]", path, i), facts, out)
		}
	case *ast.Quant:
		// Generated binders are fresh, but arbitrary SMT-LIB may rebind
		// a name that an outer guard speaks of.
		checkDivisors(n.Body, path+".body", facts.without(n.Bound), out)
	}
}

func reportUnguarded(div *ast.App, d ast.Term, path string, facts factSet, out *[]Diagnostic) {
	if isNonzeroLiteral(d) {
		return
	}
	if isZeroLiteral(d) {
		*out = append(*out, Diagnostic{
			Pass: "divguard", Severity: SeverityWarning,
			Path:    path,
			Message: fmt.Sprintf("(%s ...) divides by the literal zero", div.Op),
		})
		return
	}
	if _, ok := facts[ast.Print(d)]; ok {
		return
	}
	*out = append(*out, Diagnostic{
		Pass: "divguard", Severity: SeverityWarning,
		Path:    path,
		Message: fmt.Sprintf("(%s ...) has possibly-zero divisor %s with no nonzero guard in scope", div.Op, ast.Print(d)),
	})
}

func isZeroLiteral(t ast.Term) bool {
	sign, ok := literalSign(t)
	return ok && sign == 0
}

func isNonzeroLiteral(t ast.Term) bool {
	sign, ok := literalSign(t)
	return ok && sign != 0
}

// literalSign returns the sign of a numeric literal, with ok=false
// for non-literals. SMT-LIB text has no negative or non-integer
// numerals — -3 prints as (- 3) and 2/3 as (/ 2.0 3.0) — so after a
// print/reparse round trip a rational literal is a tree of those two
// applications over positive numerals; literalSign folds both.
func literalSign(t ast.Term) (int, bool) {
	if v, ok := ast.Numeral(t); ok {
		return v.Sign(), true
	}
	if n, ok := t.(*ast.App); ok {
		if n.Op == ast.OpNeg && len(n.Args) == 1 {
			if s, ok := literalSign(n.Args[0]); ok {
				return -s, true
			}
		}
		if n.Op == ast.OpRealDiv && len(n.Args) == 2 {
			num, okN := literalSign(n.Args[0])
			den, okD := literalSign(n.Args[1])
			if okN && okD && den != 0 {
				return num * den, true
			}
		}
	}
	return 0, false
}
