package eval

import (
	"repro/internal/ast"
	"repro/internal/regex"
)

// Regex reads a RegLan term into a regex. It is the one reader of
// SMT-LIB's regular-expression terms: the interpreter, the compiled
// path and the strings theory all go through it, so a rule such as
// re.range's single-character bounds cannot differ between the theory
// that decides a test and the evaluator that certifies its model.
//
// The string leaves of str.to_re and re.range are evaluated under m. A
// literal leaf is read directly, and under a nil model a leaf that
// mentions a variable fails with ErrUnbound, so a nil-model read
// accepts only ground terms.
func Regex(t ast.Term, m Model) (regex.Regex, error) {
	app, ok := t.(*ast.App)
	if !ok {
		return nil, newErr(ErrUnsupported, t, "non-application RegLan term %T", t)
	}
	var leaf [2]string
	var subs []regex.Regex
	switch app.Op {
	case ast.OpStrToRe, ast.OpReRange:
		lo, _ := app.Op.Arity()
		for i := range lo {
			s, err := leafString(app, i, m)
			if err != nil {
				return nil, err
			}
			leaf[i] = s
		}
	default:
		// Unary operands stay on the stack; the strings theory reads
		// every regex of every Check.
		var buf [2]regex.Regex
		subs = buf[:0]
		if len(app.Args) > len(buf) {
			subs = make([]regex.Regex, 0, len(app.Args))
		}
		for i, a := range app.Args {
			if a.Sort() != ast.SortRegLan {
				return nil, at(newErr(ErrSortMismatch, a, "%v argument %d has sort %v, want RegLan", app.Op, i, a.Sort()), i)
			}
			r, err := Regex(a, m)
			if err != nil {
				return nil, at(err, i)
			}
			subs = append(subs, r)
		}
	}
	r, ok := reOf(app.Op, leaf, subs)
	if !ok {
		return nil, newErr(ErrUnsupported, app, "RegLan operator %v", app.Op)
	}
	return r, nil
}

// leafString reads String argument i of a str.to_re or re.range leaf.
func leafString(app *ast.App, i int, m Model) (string, error) {
	if lit, ok := app.Args[i].(*ast.StrLit); ok {
		return lit.V, nil
	}
	v, err := Term(app.Args[i], m)
	if err != nil {
		return "", at(err, i)
	}
	if v.sort != ast.SortString {
		return "", at(newErr(ErrSortMismatch, app.Args[i], "%v argument %d has sort %v, want String", app.Op, i, v.sort), i)
	}
	return v.s, nil
}

// reOf is the meaning of one RegLan operator: str.to_re and re.range
// over the strings of their leaf arguments, every other operator over
// the regexes of its operands. false means op is not a RegLan operator.
func reOf(op ast.Op, leaf [2]string, subs []regex.Regex) (regex.Regex, bool) {
	switch op {
	case ast.OpStrToRe:
		return regex.Lit(leaf[0]), true
	case ast.OpReRange:
		// Per SMT-LIB, re.range is empty unless both bounds are
		// single-character strings.
		if len(leaf[0]) != 1 || len(leaf[1]) != 1 {
			return regex.None(), true
		}
		return regex.Range(leaf[0][0], leaf[1][0]), true
	case ast.OpReStar:
		return regex.Star(subs[0]), true
	case ast.OpRePlus:
		return regex.Plus(subs[0]), true
	case ast.OpReOpt:
		return regex.Opt(subs[0]), true
	case ast.OpReUnion:
		return regex.Union(subs...), true
	case ast.OpReInter:
		return regex.Inter(subs...), true
	case ast.OpReConcat:
		return regex.Concat(subs...), true
	case ast.OpReComp:
		return regex.Comp(subs[0]), true
	case ast.OpReDiff:
		return regex.Diff(subs[0], subs[1]), true
	case ast.OpReAllChar:
		return regex.AnyChar(), true
	case ast.OpReAll:
		return regex.All(), true
	case ast.OpReNone:
		return regex.None(), true
	}
	return nil, false
}
