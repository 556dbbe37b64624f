package eval

import (
	"repro/internal/ast"
	"repro/internal/rat"
	"repro/internal/regex"
)

// Program is a term compiled for repeated evaluation over a frame of
// Vals. Term stays the reference interpreter; a Program computes the
// same results, through the same operator helpers, without walking the
// term or building a Model, which is what the strings witness search
// needs when it evaluates one literal under thousands of candidate
// assignments.
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
//
// A Program holds scratch state that lasts across evaluations: the byte
// buffers in which an =, str.prefixof, str.suffixof, str.contains or
// str.len whose argument is a str.++ compares the concatenation in
// place instead of building its string, and one regex.Matcher, with its
// derivative memo, per str.in_re over a ground regex. It is therefore
// single-owner like regex.Matcher: not safe for concurrent use.
type Program struct {
	t    ast.Term
	vars []*ast.Var
	root step
}

// step evaluates one compiled subterm. ok is false when the fast path
// gives up; the Val is then meaningless.
type step func(frame []Val, slots []int) (v Val, ok bool)

// appender appends a String subterm's value to dst. ok is false when
// the fast path gives up; dst's contents are then meaningless.
type appender func(frame []Val, slots []int, dst []byte) (out []byte, ok bool)

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
	return Term(p.t, p.model(frame, slots))
}

// Bool is Eval for a boolean term, like Bool for Term.
func (p *Program) Bool(frame []Val, slots []int) (bool, error) {
	if v, ok := p.root(frame, slots); ok && v.sort == ast.SortBool {
		return v.b, nil
	}
	return Bool(p.t, p.model(frame, slots))
}

// model returns the Model the frame denotes.
func (p *Program) model(frame []Val, slots []int) Model {
	m := make(Model, len(p.vars))
	for j, v := range p.vars {
		if fv := frame[slots[j]]; fv.sort != ast.SortInvalid {
			m[v.Name] = fv
		}
	}
	return m
}

// compiled is one compiled subterm. sort is the sort of every value
// run returns with ok, and konst marks a folded ground subterm. app,
// set only on a str.++ that is not folded, appends the value without
// building its string.
type compiled struct {
	run   step
	sort  ast.Sort
	konst bool
	app   appender
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
	return constant(v)
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
	if arity(n) != nil {
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
	if test, ok := bytesTests[n.Op]; ok && len(args) == 2 && same == ast.SortString && (args[0].app != nil || args[1].app != nil) {
		return inPlace(args[0], args[1], test)
	}
	if n.Op == ast.OpStrLen && args[0].app != nil {
		return lenInPlace(args[0].app)
	}

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
	case ast.OpStrConcat:
		if same != ast.SortString {
			return giveUp(n.Sort())
		}
		return compiled{run: concat(runs), sort: ast.SortString, app: concatApp(args)}
	}
	if op, ok := stricts[n.Op]; ok {
		for i, s := range op.args {
			if args[i].sort != s {
				return giveUp(n.Sort())
			}
		}
		return compiled{run: strictStep(runs, op.f), sort: op.out}
	}
	return arithStep(n, same, runs)
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
			out = out && holds(op, prev.r.Cmp(v.r))
			prev = v
		}
		return BoolVal(out), true
	}
}

// arithStep compiles an arithmetic operator on the sort its arguments
// share; any other operator gives up.
func arithStep(n *ast.App, same ast.Sort, runs []step) compiled {
	fold, unary, ok := arithOn(n.Op, same)
	if !ok {
		return giveUp(n.Sort())
	}
	if unary != nil {
		a := runs[0]
		return compiled{run: func(frame []Val, slots []int) (Val, bool) {
			v, ok := a(frame, slots)
			v.r = unary(v.r)
			return v, ok
		}, sort: same}
	}
	return compiled{run: func(frame []Val, slots []int) (Val, bool) {
		acc, ok := runs[0](frame, slots)
		if !ok {
			return Val{}, false
		}
		for _, r := range runs[1:] {
			v, ok := r(frame, slots)
			if !ok {
				return Val{}, false
			}
			acc.r = fold(acc.r, v.r)
		}
		return acc, true
	}, sort: same}
}

// strictStep evaluates every argument, then applies f. Each arity gets
// its own closure: the strings search runs these in its inner loop.
func strictStep(runs []step, f func(a, b, c Val) Val) step {
	x := runs[0]
	switch len(runs) {
	case 1:
		return func(frame []Val, slots []int) (Val, bool) {
			a, ok := x(frame, slots)
			if !ok {
				return Val{}, false
			}
			return f(a, Val{}, Val{}), true
		}
	case 2:
		y := runs[1]
		return func(frame []Val, slots []int) (Val, bool) {
			a, ok := x(frame, slots)
			if !ok {
				return Val{}, false
			}
			b, ok := y(frame, slots)
			if !ok {
				return Val{}, false
			}
			return f(a, b, Val{}), true
		}
	}
	y, z := runs[1], runs[2]
	return func(frame []Val, slots []int) (Val, bool) {
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
	}
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

// appendOf returns a String subterm's appender: a str.++'s own, or one
// that runs the subterm and appends its value.
func appendOf(a compiled) appender {
	if a.app != nil {
		return a.app
	}
	run := a.run
	return func(frame []Val, slots []int, dst []byte) ([]byte, bool) {
		v, ok := run(frame, slots)
		return append(dst, v.s...), ok
	}
}

// concatApp appends every argument of a str.++ in turn, nested ones in
// place too.
func concatApp(args []compiled) appender {
	apps := make([]appender, len(args))
	for i, a := range args {
		apps[i] = appendOf(a)
	}
	return func(frame []Val, slots []int, dst []byte) ([]byte, bool) {
		for _, a := range apps {
			var ok bool
			if dst, ok = a(frame, slots, dst); !ok {
				return dst, false
			}
		}
		return dst, true
	}
}

// inPlace compiles a String predicate of two arguments, one of them a
// str.++: it appends both sides into one reusable buffer, x's bytes
// first, and tests the two halves, so no string is built.
func inPlace(x, y compiled, test func(a, b []byte) bool) compiled {
	ax, ay := appendOf(x), appendOf(y)
	var buf []byte
	return boolOut(func(frame []Val, slots []int) (Val, bool) {
		b, ok := ax(frame, slots, buf[:0])
		n := len(b)
		if ok {
			b, ok = ay(frame, slots, b)
		}
		buf = b
		if !ok {
			return Val{}, false
		}
		return BoolVal(test(b[:n], b[n:])), true
	})
}

// lenInPlace compiles (str.len s) of a str.++ s by appending s into a
// reusable buffer.
func lenInPlace(app appender) compiled {
	var buf []byte
	return compiled{run: func(frame []Val, slots []int) (Val, bool) {
		b, ok := app(frame, slots, buf[:0])
		buf = b
		return IntVal(rat.Int(int64(len(b)))), ok
	}, sort: ast.SortInt}
}

// inRe compiles (str.in_re s r). A ground regex operand is built once,
// by Regex, and matched through one Matcher whose derivative memo lasts
// as long as the program; one that mentions variables is rebuilt and
// matched afresh per evaluation.
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
	if run == nil {
		m := regex.NewMatcher(re)
		return boolOut(func(frame []Val, slots []int) (Val, bool) {
			v, ok := s(frame, slots)
			return BoolVal(ok && m.Match(v.s)), ok
		})
	}
	return boolOut(func(frame []Val, slots []int) (Val, bool) {
		v, ok := s(frame, slots)
		if !ok {
			return Val{}, false
		}
		r, ok := run(frame, slots)
		if !ok {
			return Val{}, false
		}
		return BoolVal(regex.Match(r, v.s)), true
	})
}

// regex compiles a RegLan operand as Regex reads it: a ground one to
// its regex (and a nil step), any other to a step that rebuilds it
// through reOf. false means evaluation gives up.
func (c *compiler) regex(t ast.Term) (reStep, regex.Regex, bool) {
	if len(ast.FreeVars(t)) == 0 {
		re, err := Regex(t, nil)
		return nil, re, err == nil
	}
	app, ok := t.(*ast.App)
	if !ok || arity(app) != nil {
		return nil, nil, false
	}
	op := app.Op
	if op == ast.OpStrToRe || op == ast.OpReRange {
		args := make([]step, len(app.Args))
		for i, a := range app.Args {
			ca := c.term(a)
			if ca.sort != ast.SortString {
				return nil, nil, false
			}
			args[i] = ca.run
		}
		return func(frame []Val, slots []int) (regex.Regex, bool) {
			var leaf [2]string
			for i, arg := range args {
				v, ok := arg(frame, slots)
				if !ok {
					return nil, false
				}
				leaf[i] = v.s
			}
			return reOf(op, leaf, nil)
		}, nil, true
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
	return func(frame []Val, slots []int) (regex.Regex, bool) {
		rs := make([]regex.Regex, len(subs))
		for i, sub := range subs {
			r, ok := sub(frame, slots)
			if !ok {
				return nil, false
			}
			rs[i] = r
		}
		return reOf(op, [2]string{}, rs)
	}, nil, true
}
