package eval

import (
	"strconv"
	"strings"

	"repro/internal/ast"
	"repro/internal/regex"
	"repro/internal/solver/rat"
)

// Program is a term compiled for repeated evaluation over unboxed
// values. Term stays the reference interpreter; a Program computes the
// same results without walking the term, boxing values or building a
// Model, which is what the strings witness search needs when it
// evaluates one literal under thousands of candidate assignments.
//
// The program reads its variables by local index, numbered in
// ast.FreeVars order, so it depends only on its term: Eval reads
// variable j from frame[slots[j]], and any caller numbering of the
// frame works.
//
// The compiled code is a fast path that answers only when it can vouch
// for the result. Ground subterms are folded at compile time, and
// and/or/=>/ite keep Term's short-circuit order. Anything Term would
// reject (an unbound or wrong-sort variable, an ill-sorted
// application, a quantifier) makes the fast path give up, and Eval then
// re-runs Term on the model the frame denotes. Results and errors,
// cause and Path included, are therefore exactly Term's.
type Program struct {
	t    ast.Term
	vars []*ast.Var
	root step
}

// step evaluates one compiled subterm. ok is false when the fast path
// gives up; the Val is then meaningless.
type step func(frame []Val, slots []int) (v Val, ok bool)

// reStep builds a regex operand that mentions variables.
type reStep func(frame []Val, slots []int) (r regex.Regex, ok bool)

// Compile compiles t.
func Compile(t ast.Term) *Program {
	p := &Program{t: t, vars: ast.FreeVars(t)}
	c := compiler{index: make(map[string]int, len(p.vars))}
	for j, v := range p.vars {
		c.index[v.Name] = j
	}
	p.root = c.term(t).run
	return p
}

// Eval evaluates the program with variable j bound to frame[slots[j]];
// a zero Val leaves the variable unbound. slots must have one entry
// per variable of the term.
func (p *Program) Eval(frame []Val, slots []int) (Val, error) {
	if v, ok := p.root(frame, slots); ok {
		return v, nil
	}
	v, err := Term(p.t, p.model(frame, slots))
	if err != nil {
		return Val{}, err
	}
	return Unbox(v), nil
}

// Bool is Eval for a boolean term, like Bool for Term.
func (p *Program) Bool(frame []Val, slots []int) (bool, error) {
	if v, ok := p.root(frame, slots); ok && v.sort == ast.SortBool {
		return v.b, nil
	}
	return Bool(p.t, p.model(frame, slots))
}

// model boxes the frame into the Model it denotes.
func (p *Program) model(frame []Val, slots []int) Model {
	m := make(Model, len(p.vars))
	for j, v := range p.vars {
		if fv := frame[slots[j]]; fv.sort != ast.SortInvalid {
			m[v.Name] = fv.Box()
		}
	}
	return m
}

// compiled is one compiled subterm. sort is the sort of every value
// run returns with ok, and konst marks a folded ground subterm.
type compiled struct {
	run   step
	sort  ast.Sort
	konst bool
}

// giveUp compiles a subterm whose evaluation always gives up. Claiming
// the subterm's declared sort is vacuously sound, and lets a lazy
// parent still answer when it never reaches the subterm.
func giveUp(s ast.Sort) compiled {
	return compiled{run: func([]Val, []int) (Val, bool) { return Val{}, false }, sort: s}
}

func constant(v Val) compiled {
	return compiled{run: func([]Val, []int) (Val, bool) { return v, true }, sort: v.sort, konst: true}
}

// fold evaluates a ground term once, at compile time.
func fold(t ast.Term) compiled {
	v, err := Term(t, nil)
	if err != nil {
		return giveUp(t.Sort())
	}
	return constant(Unbox(v))
}

type compiler struct {
	index map[string]int
}

func (c *compiler) term(t ast.Term) compiled {
	switch n := t.(type) {
	case *ast.Var:
		want := n.VSort
		switch want {
		case ast.SortBool, ast.SortInt, ast.SortReal, ast.SortString:
		default:
			return giveUp(want)
		}
		j := c.index[n.Name]
		return compiled{run: func(frame []Val, slots []int) (Val, bool) {
			v := frame[slots[j]]
			return v, v.sort == want
		}, sort: want}
	case *ast.BoolLit, *ast.IntLit, *ast.RealLit, *ast.StrLit:
		return fold(t)
	case *ast.App:
		return c.app(n)
	}
	return giveUp(t.Sort())
}

// app compiles an application whose arguments have the sorts its
// operator's typing rule demands; any other shape gives up when run.
func (c *compiler) app(n *ast.App) compiled {
	lo, hi := n.Op.Arity()
	if len(n.Args) < lo || (hi >= 0 && len(n.Args) > hi) {
		return giveUp(n.Sort())
	}
	if n.Op == ast.OpStrInRe {
		return c.inRe(n)
	}
	args := make([]compiled, len(n.Args))
	ground := true
	for i, a := range n.Args {
		args[i] = c.term(a)
		ground = ground && args[i].konst
	}
	if ground {
		return fold(n)
	}
	runs := make([]step, len(args))
	for i, a := range args {
		runs[i] = a.run
	}
	same := sameSort(args)

	switch n.Op {
	case ast.OpAnd, ast.OpOr:
		if same != ast.SortBool {
			return giveUp(n.Sort())
		}
		return boolOut(andOr(runs, n.Op == ast.OpOr))
	case ast.OpImplies:
		if same != ast.SortBool {
			return giveUp(n.Sort())
		}
		return boolOut(implies(runs))
	case ast.OpIte:
		if args[0].sort != ast.SortBool || args[1].sort == ast.SortInvalid || args[1].sort != args[2].sort {
			return giveUp(n.Sort())
		}
		return compiled{run: ite(runs[0], runs[1], runs[2]), sort: args[1].sort}
	case ast.OpNot:
		if same != ast.SortBool {
			return giveUp(n.Sort())
		}
		a := runs[0]
		return boolOut(func(frame []Val, slots []int) (Val, bool) {
			v, ok := a(frame, slots)
			return BoolVal(!v.b), ok
		})
	case ast.OpXor:
		if same != ast.SortBool {
			return giveUp(n.Sort())
		}
		return boolOut(xor(runs))
	case ast.OpEq, ast.OpDistinct:
		if same == ast.SortInvalid {
			return giveUp(n.Sort())
		}
		if n.Op == ast.OpEq {
			return boolOut(eq(runs))
		}
		return boolOut(distinct(runs))
	case ast.OpLe, ast.OpLt, ast.OpGe, ast.OpGt:
		if !same.IsArith() {
			return giveUp(n.Sort())
		}
		return boolOut(compare(runs, n.Op))
	case ast.OpToReal:
		if same != ast.SortInt {
			return giveUp(n.Sort())
		}
		return unary(runs[0], ast.SortReal, func(v Val) Val { return RealVal(v.r) })
	case ast.OpToInt:
		if same != ast.SortReal {
			return giveUp(n.Sort())
		}
		return unary(runs[0], ast.SortInt, func(v Val) Val { return IntVal(v.r.Floor()) })
	case ast.OpIsInt:
		if same != ast.SortReal {
			return giveUp(n.Sort())
		}
		return unary(runs[0], ast.SortBool, func(v Val) Val { return BoolVal(v.r.IsInt()) })
	}
	if a, ok := arithOp(n, same, runs); ok {
		return a
	}
	return strOp(n, args, runs)
}

// sameSort returns the sort all args share, or ast.SortInvalid.
func sameSort(args []compiled) ast.Sort {
	s := args[0].sort
	for _, a := range args[1:] {
		if a.sort != s {
			return ast.SortInvalid
		}
	}
	return s
}

func boolOut(run step) compiled { return compiled{run: run, sort: ast.SortBool} }

func unary(a step, out ast.Sort, f func(Val) Val) compiled {
	return compiled{run: func(frame []Val, slots []int) (Val, bool) {
		v, ok := a(frame, slots)
		if !ok {
			return Val{}, false
		}
		return f(v), true
	}, sort: out}
}

// andOr short-circuits on the first argument equal to stop.
func andOr(runs []step, stop bool) step {
	return func(frame []Val, slots []int) (Val, bool) {
		for _, r := range runs {
			v, ok := r(frame, slots)
			if !ok {
				return Val{}, false
			}
			if v.b == stop {
				return BoolVal(stop), true
			}
		}
		return BoolVal(!stop), true
	}
}

// implies is right-associative (=> a b c) = (=> a (=> b c)).
func implies(runs []step) step {
	last := runs[len(runs)-1]
	prem := runs[:len(runs)-1]
	return func(frame []Val, slots []int) (Val, bool) {
		for _, r := range prem {
			v, ok := r(frame, slots)
			if !ok {
				return Val{}, false
			}
			if !v.b {
				return BoolVal(true), true
			}
		}
		return last(frame, slots)
	}
}

func ite(cond, then, els step) step {
	return func(frame []Val, slots []int) (Val, bool) {
		c, ok := cond(frame, slots)
		if !ok {
			return Val{}, false
		}
		if c.b {
			return then(frame, slots)
		}
		return els(frame, slots)
	}
}

func xor(runs []step) step {
	return func(frame []Val, slots []int) (Val, bool) {
		out := false
		for _, r := range runs {
			v, ok := r(frame, slots)
			if !ok {
				return Val{}, false
			}
			out = out != v.b
		}
		return BoolVal(out), true
	}
}

// eq evaluates every argument, as Term does, before comparing.
func eq(runs []step) step {
	if len(runs) == 2 {
		a, b := runs[0], runs[1]
		return func(frame []Val, slots []int) (Val, bool) {
			x, ok := a(frame, slots)
			if !ok {
				return Val{}, false
			}
			y, ok := b(frame, slots)
			return BoolVal(x.Equal(y)), ok
		}
	}
	return func(frame []Val, slots []int) (Val, bool) {
		first, ok := runs[0](frame, slots)
		if !ok {
			return Val{}, false
		}
		out := true
		for _, r := range runs[1:] {
			v, ok := r(frame, slots)
			if !ok {
				return Val{}, false
			}
			out = out && first.Equal(v)
		}
		return BoolVal(out), true
	}
}

func distinct(runs []step) step {
	return func(frame []Val, slots []int) (Val, bool) {
		vals := make([]Val, len(runs))
		for i, r := range runs {
			v, ok := r(frame, slots)
			if !ok {
				return Val{}, false
			}
			vals[i] = v
		}
		for i := range vals {
			for j := i + 1; j < len(vals); j++ {
				if vals[i].Equal(vals[j]) {
					return BoolVal(false), true
				}
			}
		}
		return BoolVal(true), true
	}
}

// compare evaluates every argument, then checks the chain pairwise.
func compare(runs []step, op ast.Op) step {
	holds := func(c int) bool {
		switch op {
		case ast.OpLe:
			return c <= 0
		case ast.OpLt:
			return c < 0
		case ast.OpGe:
			return c >= 0
		}
		return c > 0
	}
	return func(frame []Val, slots []int) (Val, bool) {
		prev, ok := runs[0](frame, slots)
		if !ok {
			return Val{}, false
		}
		out := true
		for _, r := range runs[1:] {
			v, ok := r(frame, slots)
			if !ok {
				return Val{}, false
			}
			out = out && holds(prev.r.Cmp(v.r))
			prev = v
		}
		return BoolVal(out), true
	}
}

// arithOp compiles the arithmetic operators on the sort of their first
// argument, reporting false for any other operator.
func arithOp(n *ast.App, same ast.Sort, runs []step) (compiled, bool) {
	op := n.Op
	var f func(a, b rat.Rat) rat.Rat
	switch op {
	case ast.OpAdd:
		f = rat.Rat.Add
	case ast.OpSub:
		f = rat.Rat.Sub
	case ast.OpMul:
		f = rat.Rat.Mul
	case ast.OpRealDiv:
		f = realQuo
	case ast.OpIntDiv:
		f = intDiv
	case ast.OpMod:
		f = intMod
	case ast.OpNeg, ast.OpAbs:
	default:
		return compiled{}, false
	}
	out := compiled{sort: same}
	switch {
	case same == ast.SortInt && op != ast.OpRealDiv:
	case same == ast.SortReal && (op == ast.OpAdd || op == ast.OpSub || op == ast.OpMul || op == ast.OpRealDiv || op == ast.OpNeg):
	default:
		return giveUp(n.Sort()), true
	}
	switch op {
	case ast.OpNeg:
		out.run = func(frame []Val, slots []int) (Val, bool) {
			v, ok := runs[0](frame, slots)
			v.r = v.r.Neg()
			return v, ok
		}
	case ast.OpAbs:
		out.run = func(frame []Val, slots []int) (Val, bool) {
			v, ok := runs[0](frame, slots)
			if v.r.Sign() < 0 {
				v.r = v.r.Neg()
			}
			return v, ok
		}
	default:
		out.run = func(frame []Val, slots []int) (Val, bool) {
			acc, ok := runs[0](frame, slots)
			if !ok {
				return Val{}, false
			}
			for _, r := range runs[1:] {
				v, ok := r(frame, slots)
				if !ok {
					return Val{}, false
				}
				acc.r = f(acc.r, v.r)
			}
			return acc, true
		}
	}
	return out, true
}

// realQuo is (/ a b) with the fixed interpretation a/0 = 0.
func realQuo(a, b rat.Rat) rat.Rat {
	if b.IsZero() {
		return rat.Rat{}
	}
	return a.Quo(b)
}

// intDiv is euclideanDiv on rationals holding integers.
func intDiv(a, b rat.Rat) rat.Rat {
	if b.IsZero() {
		return rat.Rat{}
	}
	x, xok := int64Of(a)
	y, yok := int64Of(b)
	if !xok || !yok {
		return rat.FromBigInt(euclideanDiv(a.Big().Num(), b.Big().Num()))
	}
	// Inline integers exclude MinInt64, so x/y cannot overflow.
	q := x / y
	if x%y < 0 {
		if y > 0 {
			q--
		} else {
			q++
		}
	}
	return rat.Int(q)
}

// intMod is euclideanMod on rationals holding integers.
func intMod(a, b rat.Rat) rat.Rat {
	if b.IsZero() {
		return a
	}
	x, xok := int64Of(a)
	y, yok := int64Of(b)
	if !xok || !yok {
		return rat.FromBigInt(euclideanMod(a.Big().Num(), b.Big().Num()))
	}
	if y < 0 {
		y = -y
	}
	r := x % y
	if r < 0 {
		r += y
	}
	return rat.Int(r)
}

// int64Of returns an integer-valued r as an int64 when it is inline.
func int64Of(r rat.Rat) (int64, bool) {
	n, d, ok := r.Inline()
	return n, ok && d == 1
}

// strOp compiles the string operators; every argument sort is fixed by
// the operator.
func strOp(n *ast.App, args []compiled, runs []step) compiled {
	op := n.Op
	S, I := ast.SortString, ast.SortInt
	want := func(sorts ...ast.Sort) bool {
		for i, s := range sorts {
			if args[i].sort != s {
				return false
			}
		}
		return true
	}
	switch op {
	case ast.OpStrConcat:
		if sameSort(args) != S {
			return giveUp(n.Sort())
		}
		return compiled{run: concat(runs), sort: S}
	case ast.OpStrLen:
		if !want(S) {
			return giveUp(n.Sort())
		}
		return unary(runs[0], I, func(v Val) Val { return IntVal(rat.Int(int64(len(v.s)))) })
	case ast.OpStrToInt:
		if !want(S) {
			return giveUp(n.Sort())
		}
		return unary(runs[0], I, func(v Val) Val { return IntVal(strToInt(v.s)) })
	case ast.OpStrFromInt:
		if !want(I) {
			return giveUp(n.Sort())
		}
		return unary(runs[0], S, func(v Val) Val { return StrVal(strFromInt(v.r)) })
	case ast.OpStrAt:
		if !want(S, I) {
			return giveUp(n.Sort())
		}
		return binary(runs, S, func(s, i Val) Val {
			idx, ok := int64Of(i.r)
			if !ok || idx < 0 || idx >= int64(len(s.s)) {
				return StrVal("")
			}
			return StrVal(s.s[idx : idx+1])
		})
	case ast.OpStrPrefixOf, ast.OpStrSuffixOf, ast.OpStrContains, ast.OpStrLtOp, ast.OpStrLeOp:
		if !want(S, S) {
			return giveUp(n.Sort())
		}
		var f func(s, t string) bool
		switch op {
		case ast.OpStrPrefixOf:
			f = func(s, t string) bool { return strings.HasPrefix(t, s) }
		case ast.OpStrSuffixOf:
			f = func(s, t string) bool { return strings.HasSuffix(t, s) }
		case ast.OpStrContains:
			f = strings.Contains
		case ast.OpStrLtOp:
			f = func(s, t string) bool { return s < t }
		default:
			f = func(s, t string) bool { return s <= t }
		}
		return binary(runs, ast.SortBool, func(s, t Val) Val { return BoolVal(f(s.s, t.s)) })
	case ast.OpStrSubstr:
		if !want(S, I, I) {
			return giveUp(n.Sort())
		}
		return ternary(runs, S, func(s, i, n Val) Val { return StrVal(substr(s.s, i.r, n.r)) })
	case ast.OpStrIndexOf:
		if !want(S, S, I) {
			return giveUp(n.Sort())
		}
		return ternary(runs, I, func(s, t, from Val) Val { return IntVal(indexOf(s.s, t.s, from.r)) })
	case ast.OpStrReplace, ast.OpStrReplaceAll:
		if !want(S, S, S) {
			return giveUp(n.Sort())
		}
		f := strReplace
		if op == ast.OpStrReplaceAll {
			f = strReplaceAll
		}
		return ternary(runs, S, func(s, t, u Val) Val { return StrVal(f(s.s, t.s, u.s)) })
	}
	return giveUp(n.Sort())
}

func binary(runs []step, out ast.Sort, f func(a, b Val) Val) compiled {
	x, y := runs[0], runs[1]
	return compiled{run: func(frame []Val, slots []int) (Val, bool) {
		a, ok := x(frame, slots)
		if !ok {
			return Val{}, false
		}
		b, ok := y(frame, slots)
		if !ok {
			return Val{}, false
		}
		return f(a, b), true
	}, sort: out}
}

func ternary(runs []step, out ast.Sort, f func(a, b, c Val) Val) compiled {
	x, y, z := runs[0], runs[1], runs[2]
	return compiled{run: func(frame []Val, slots []int) (Val, bool) {
		a, ok := x(frame, slots)
		if !ok {
			return Val{}, false
		}
		b, ok := y(frame, slots)
		if !ok {
			return Val{}, false
		}
		c, ok := z(frame, slots)
		if !ok {
			return Val{}, false
		}
		return f(a, b, c), true
	}, sort: out}
}

func concat(runs []step) step {
	return func(frame []Val, slots []int) (Val, bool) {
		acc, ok := runs[0](frame, slots)
		if !ok {
			return Val{}, false
		}
		for _, r := range runs[1:] {
			v, ok := r(frame, slots)
			if !ok {
				return Val{}, false
			}
			acc.s += v.s
		}
		return acc, true
	}
}

// substr is strSubstr on rationals holding integers.
func substr(s string, i, n rat.Rat) string {
	start, ok := int64Of(i)
	if !ok || start < 0 || start >= int64(len(s)) || n.Sign() <= 0 {
		return ""
	}
	length := int64(len(s)) - start
	if m, ok := int64Of(n); ok && m < length {
		length = m
	}
	return s[start : start+length]
}

// indexOf is strIndexOf on a rational holding an integer.
func indexOf(s, t string, from rat.Rat) rat.Rat {
	i, ok := int64Of(from)
	if !ok || i < 0 || i > int64(len(s)) {
		return rat.Int(-1)
	}
	idx := strings.Index(s[i:], t)
	if idx < 0 {
		return rat.Int(-1)
	}
	return rat.Int(i + int64(idx))
}

// strToInt is StrToInt without allocating for strings of at most 18
// bytes, numerals or not (a failed strconv parse allocates its error).
func strToInt(s string) rat.Rat {
	if len(s) > 18 {
		return rat.FromBigInt(StrToInt(s))
	}
	if s == "" {
		return rat.Int(-1)
	}
	var n int64
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return rat.Int(-1)
		}
		n = n*10 + int64(c-'0')
	}
	return rat.Int(n)
}

// strFromInt is StrFromInt on a rational holding an integer.
func strFromInt(n rat.Rat) string {
	if n.Sign() < 0 {
		return ""
	}
	if x, ok := int64Of(n); ok {
		return strconv.FormatInt(x, 10)
	}
	return n.String()
}

// inRe compiles (str.in_re s r). A ground regex operand is built once,
// by evalRegex; one that mentions variables is rebuilt per evaluation.
func (c *compiler) inRe(n *ast.App) compiled {
	subj := c.term(n.Args[0])
	run, re, ok := c.regex(n.Args[1])
	if subj.sort != ast.SortString || !ok {
		return giveUp(n.Sort())
	}
	if subj.konst && run == nil {
		return fold(n)
	}
	s := subj.run
	return boolOut(func(frame []Val, slots []int) (Val, bool) {
		v, ok := s(frame, slots)
		if !ok {
			return Val{}, false
		}
		r := re
		if run != nil {
			if r, ok = run(frame, slots); !ok {
				return Val{}, false
			}
		}
		return BoolVal(regex.Match(r, v.s)), true
	})
}

// regex compiles a RegLan operand as evalRegex reads it: a ground one
// to its regex (and a nil step), any other to a step that rebuilds it.
// false means evaluation gives up.
func (c *compiler) regex(t ast.Term) (reStep, regex.Regex, bool) {
	if len(ast.FreeVars(t)) == 0 {
		re, err := evalRegex(t, nil)
		return nil, re, err == nil
	}
	app, ok := t.(*ast.App)
	if !ok {
		return nil, nil, false
	}
	lo, hi := app.Op.Arity()
	if len(app.Args) < lo || (hi >= 0 && len(app.Args) > hi) {
		return nil, nil, false
	}
	switch app.Op {
	case ast.OpStrToRe, ast.OpReRange:
		args := make([]step, len(app.Args))
		for i, a := range app.Args {
			ca := c.term(a)
			if ca.sort != ast.SortString {
				return nil, nil, false
			}
			args[i] = ca.run
		}
		if app.Op == ast.OpStrToRe {
			return func(frame []Val, slots []int) (regex.Regex, bool) {
				v, ok := args[0](frame, slots)
				return regex.Lit(v.s), ok
			}, nil, true
		}
		return func(frame []Val, slots []int) (regex.Regex, bool) {
			l, ok := args[0](frame, slots)
			if !ok {
				return nil, false
			}
			h, ok := args[1](frame, slots)
			if !ok {
				return nil, false
			}
			if len(l.s) != 1 || len(h.s) != 1 {
				return regex.None(), true
			}
			return regex.Range(l.s[0], h.s[0]), true
		}, nil, true
	case ast.OpReStar, ast.OpRePlus, ast.OpReOpt, ast.OpReComp, ast.OpReDiff,
		ast.OpReUnion, ast.OpReInter, ast.OpReConcat:
	default:
		return nil, nil, false
	}
	subs := make([]reStep, len(app.Args))
	for i, a := range app.Args {
		if a.Sort() != ast.SortRegLan {
			return nil, nil, false
		}
		sub, re, ok := c.regex(a)
		if !ok {
			return nil, nil, false
		}
		if sub == nil {
			sub = func([]Val, []int) (regex.Regex, bool) { return re, true }
		}
		subs[i] = sub
	}
	op := app.Op
	return func(frame []Val, slots []int) (regex.Regex, bool) {
		rs := make([]regex.Regex, len(subs))
		for i, sub := range subs {
			r, ok := sub(frame, slots)
			if !ok {
				return nil, false
			}
			rs[i] = r
		}
		switch op {
		case ast.OpReStar:
			return regex.Star(rs[0]), true
		case ast.OpRePlus:
			return regex.Plus(rs[0]), true
		case ast.OpReOpt:
			return regex.Opt(rs[0]), true
		case ast.OpReComp:
			return regex.Comp(rs[0]), true
		case ast.OpReDiff:
			return regex.Diff(rs[0], rs[1]), true
		case ast.OpReUnion:
			return regex.Union(rs...), true
		case ast.OpReInter:
			return regex.Inter(rs...), true
		}
		return regex.Concat(rs...), true
	}, nil, true
}
