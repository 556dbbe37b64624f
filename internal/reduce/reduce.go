// Package reduce shrinks bug-triggering SMT-LIB scripts, standing in
// for C-Reduce in the paper's workflow: delta debugging over the assert
// list, structural term shrinking, and the paper's simplifying pretty
// printer (flatten same-operator nests, drop neutral elements). The
// caller supplies the "interestingness" predicate (typically: the same
// defect still fires with the same wrong result).
package reduce

import (
	"repro/internal/ast"
	"repro/internal/rat"
	"repro/internal/smtlib"
)

// Interesting reports whether a candidate script still exhibits the
// behaviour being isolated. It must be safe to call on any well-formed
// shrink of the original script.
type Interesting func(*smtlib.Script) bool

// Options bounds the reduction.
type Options struct {
	// MaxChecks bounds the number of Interesting evaluations (default
	// 2000).
	MaxChecks int
}

// Reduce shrinks the script while it stays interesting. The input
// script must itself be interesting; Reduce returns the smallest
// interesting shrink found — every returned script satisfies the
// predicate. The shrinks are built in a table of the reduction's own.
func Reduce(s *smtlib.Script, interesting Interesting, opts Options) *smtlib.Script {
	if opts.MaxChecks == 0 {
		opts.MaxChecks = 2000
	}
	tb := ast.NewTable(nil)
	r := &reducer{tb: tb, interesting: interesting, budget: opts.MaxChecks}
	cur := s.Import(tb).Clone()
	for {
		next, changed := r.pass(cur)
		if !changed || r.budget <= 0 {
			return r.finish(next)
		}
		cur = next
	}
}

// finish applies the pretty printer and confirms the result still
// satisfies the predicate: flattening and neutral-element dropping
// preserve semantics but not syntax, and the predicate may be
// sensitive to the exact shape (a parser defect, a text match). When
// the prettified script fails the check — or the budget is exhausted
// before it can run — the verified shrink wins.
func (r *reducer) finish(s *smtlib.Script) *smtlib.Script {
	pretty := Prettify(r.tb, s)
	if smtlib.Print(pretty) == smtlib.Print(s) || r.check(pretty) {
		return pretty
	}
	return s
}

type reducer struct {
	tb          *ast.Table
	interesting Interesting
	budget      int
}

func (r *reducer) check(s *smtlib.Script) bool {
	if r.budget <= 0 {
		return false
	}
	r.budget--
	return r.interesting(s)
}

// pass runs one round of all shrink strategies, returning the improved
// script and whether anything changed.
func (r *reducer) pass(s *smtlib.Script) (*smtlib.Script, bool) {
	changed := false
	if next, ok := r.dropAsserts(s); ok {
		s = next
		changed = true
	}
	if next, ok := r.shrinkTerms(s); ok {
		s = next
		changed = true
	}
	if next, ok := r.dropUnusedDecls(s); ok {
		s = next
		changed = true
	}
	return s, changed
}

// dropAsserts removes asserts one at a time (repeatedly) while the
// script stays interesting.
func (r *reducer) dropAsserts(s *smtlib.Script) (*smtlib.Script, bool) {
	changed := false
	for i := 0; i < len(s.Commands); i++ {
		if _, ok := s.Commands[i].(*smtlib.Assert); !ok {
			continue
		}
		cand := s.Clone()
		cand.Commands = append(cand.Commands[:i:i], cand.Commands[i+1:]...)
		if r.check(cand) {
			s = cand
			changed = true
			i--
		}
	}
	return s, changed
}

// dropUnusedDecls removes declarations of variables that no longer
// occur in any assert.
func (r *reducer) dropUnusedDecls(s *smtlib.Script) (*smtlib.Script, bool) {
	used := map[string]bool{}
	for _, a := range s.Asserts() {
		for _, v := range ast.FreeVars(a) {
			used[v.Name] = true
		}
	}
	changed := false
	for i := 0; i < len(s.Commands); i++ {
		d, ok := s.Commands[i].(*smtlib.DeclareFun)
		if !ok || used[d.Name] {
			continue
		}
		cand := s.Clone()
		cand.Commands = append(cand.Commands[:i:i], cand.Commands[i+1:]...)
		if r.check(cand) {
			s = cand
			changed = true
			i--
		}
	}
	return s, changed
}

// shrinkTerms tries structural shrinks on each assert: replacing a
// subterm by a same-sort child (hoisting), by a trivial literal, or —
// for boolean subterms — by true.
func (r *reducer) shrinkTerms(s *smtlib.Script) (*smtlib.Script, bool) {
	changed := false
	// Reserve half the remaining budget for the other strategies: each
	// accepted shrink restarts candidate enumeration, so an unbounded
	// inner loop can burn every remaining check here and starve
	// dropUnusedDecls, leaving dead declarations in the final script.
	// The outer pass loop re-enters with a fresh reservation, so
	// shrinking still converges when the budget allows.
	floor := r.budget / 2
	for idx, c := range s.Commands {
		a, ok := c.(*smtlib.Assert)
		if !ok {
			continue
		}
		term := a.Term
		improved := true
		for improved && r.budget > floor {
			improved = false
			for _, cand := range shrinkCandidates(r.tb, term) {
				if r.budget <= floor {
					break
				}
				candScript := s.Clone()
				candScript.Commands[idx] = &smtlib.Assert{Term: cand}
				if r.check(candScript) {
					term = cand
					s = candScript
					changed = true
					improved = true
					break
				}
			}
		}
	}
	return s, changed
}

// shrinkCandidates enumerates one-step shrinks of a term, smallest
// first.
func shrinkCandidates(tb *ast.Table, t ast.Term) []ast.Term {
	var out []ast.Term
	var walk func(path []int)
	walk = func(path []int) {
		sub := subtermAt(t, path)
		app, isApp := sub.(*ast.App)
		if isApp {
			// Hoist a same-sort argument.
			for _, arg := range app.Args {
				if arg.Sort() == app.Sort() {
					if cand, ok := replaceAt(tb, t, path, arg); ok {
						out = append(out, cand)
					}
				}
			}
			// Replace by a trivial literal.
			if lit := trivialLiteral(tb, app.Sort()); lit != nil && !ast.Equal(sub, lit) {
				if cand, ok := replaceAt(tb, t, path, lit); ok {
					out = append(out, cand)
				}
			}
			for i := range app.Args {
				walk(append(append([]int{}, path...), i))
			}
			return
		}
		if q, isQ := sub.(*ast.Quant); isQ {
			_ = q
			walk(append(append([]int{}, path...), 0))
		}
	}
	walk(nil)
	return out
}

func trivialLiteral(tb *ast.Table, s ast.Sort) ast.Term {
	switch s {
	case ast.SortBool:
		return ast.True
	case ast.SortInt:
		return tb.Int(0)
	case ast.SortReal:
		return tb.Real(0, 1)
	case ast.SortString:
		return tb.Str("")
	default:
		return nil
	}
}

// subtermAt returns the subterm at a child-index path.
func subtermAt(t ast.Term, path []int) ast.Term {
	for _, i := range path {
		switch n := t.(type) {
		case *ast.App:
			t = n.Args[i]
		case *ast.Quant:
			t = n.Body
		default:
			return t
		}
	}
	return t
}

// replaceAt rebuilds the term with the subterm at path replaced. It
// reports false when the replacement would be ill-sorted.
func replaceAt(tb *ast.Table, t ast.Term, path []int, repl ast.Term) (ast.Term, bool) {
	if len(path) == 0 {
		if t.Sort() != repl.Sort() {
			return nil, false
		}
		return repl, true
	}
	switch n := t.(type) {
	case *ast.App:
		i := path[0]
		sub, ok := replaceAt(tb, n.Args[i], path[1:], repl)
		if !ok {
			return nil, false
		}
		args := make([]ast.Term, len(n.Args))
		copy(args, n.Args)
		args[i] = sub
		out, err := tb.NewApp(n.Op, args...)
		if err != nil {
			return nil, false
		}
		return out, true
	case *ast.Quant:
		sub, ok := replaceAt(tb, n.Body, path[1:], repl)
		if !ok {
			return nil, false
		}
		q, err := tb.NewQuant(n.Forall, n.Bound, sub)
		if err != nil {
			return nil, false
		}
		return q, true
	default:
		return nil, false
	}
}

// Prettify applies the paper's pretty-printer transformations: flatten
// nests of the same associative operator and drop additions and
// multiplications with neutral elements. It preserves semantics. The
// rewritten terms are built in tb.
func Prettify(tb *ast.Table, s *smtlib.Script) *smtlib.Script {
	out := s.Clone()
	for i, c := range out.Commands {
		if a, ok := c.(*smtlib.Assert); ok {
			out.Commands[i] = &smtlib.Assert{Term: prettifyTerm(tb, a.Term)}
		}
	}
	return out
}

func prettifyTerm(tb *ast.Table, t ast.Term) ast.Term {
	return tb.Transform(t, func(n ast.Term) ast.Term {
		app, ok := n.(*ast.App)
		if !ok {
			return n
		}
		switch app.Op {
		case ast.OpAnd, ast.OpOr, ast.OpAdd, ast.OpMul, ast.OpStrConcat:
			flat := make([]ast.Term, 0, len(app.Args))
			changed := false
			for _, a := range app.Args {
				if sub, ok := a.(*ast.App); ok && sub.Op == app.Op {
					flat = append(flat, sub.Args...)
					changed = true
					continue
				}
				flat = append(flat, a)
			}
			// Drop neutral elements.
			kept := flat[:0]
			for _, a := range flat {
				if isNeutral(app.Op, a) && len(flat) > 1 {
					changed = true
					continue
				}
				kept = append(kept, a)
			}
			if !changed {
				return n
			}
			if len(kept) == 0 {
				return neutralTerm(tb, app.Op, app.Sort())
			}
			if len(kept) == 1 {
				return kept[0]
			}
			return tb.MustApp(app.Op, kept...)
		}
		return n
	})
}

func isNeutral(op ast.Op, t ast.Term) bool {
	switch op {
	case ast.OpAnd:
		b, ok := t.(*ast.BoolLit)
		return ok && b.V
	case ast.OpOr:
		b, ok := t.(*ast.BoolLit)
		return ok && !b.V
	case ast.OpAdd:
		v, ok := ast.Numeral(t)
		return ok && v.IsZero()
	case ast.OpMul:
		v, ok := ast.Numeral(t)
		return ok && v.Cmp(rat.Int(1)) == 0
	case ast.OpStrConcat:
		sl, ok := t.(*ast.StrLit)
		return ok && sl.V == ""
	}
	return false
}

func neutralTerm(tb *ast.Table, op ast.Op, sort ast.Sort) ast.Term {
	switch op {
	case ast.OpAnd:
		return ast.True
	case ast.OpOr:
		return ast.False
	case ast.OpAdd:
		if sort == ast.SortReal {
			return tb.Real(0, 1)
		}
		return tb.Int(0)
	case ast.OpMul:
		if sort == ast.SortReal {
			return tb.Real(1, 1)
		}
		return tb.Int(1)
	default:
		return tb.Str("")
	}
}
