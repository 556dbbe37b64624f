package eval

import (
	"repro/internal/ast"
	"repro/internal/regex"
)

// Term evaluates t under model m. Evaluation is total on well-sorted
// terms over bound variables: any failure is a structured *Error (see
// error.go) carrying the offending subterm and its path — never a
// panic, even on ill-sorted terms forged through ast.UncheckedApp or
// on models disagreeing with the term's sorts.
func Term(t ast.Term, m Model) (Val, error) {
	switch n := t.(type) {
	case *ast.Var:
		v, ok := m[n.Name]
		if !ok {
			return Val{}, newErr(ErrUnbound, n, "%s has no model entry", n.Name)
		}
		if v.sort != n.VSort {
			return Val{}, newErr(ErrSortMismatch, n, "model value for %s has sort %v, want %v", n.Name, v.sort, n.VSort)
		}
		return v, nil
	case *ast.BoolLit:
		return BoolVal(n.V), nil
	case *ast.IntLit, *ast.RealLit:
		v, _ := ast.Numeral(n)
		return Val{sort: n.Sort(), r: v}, nil
	case *ast.StrLit:
		return StrVal(n.V), nil
	case *ast.Quant:
		return Val{}, newErr(ErrQuantifier, n, "quantified subterm")
	case *ast.App:
		return app(n, m)
	default:
		return Val{}, newErr(ErrUnsupported, t, "unknown term type %T", t)
	}
}

// Bool evaluates a boolean term, unwrapping the result.
func Bool(t ast.Term, m Model) (bool, error) {
	v, err := Term(t, m)
	if err != nil {
		return false, err
	}
	if v.sort != ast.SortBool {
		return false, newErr(ErrSortMismatch, t, "expected Bool, got %v", v.sort)
	}
	return v.b, nil
}

func app(n *ast.App, m Model) (Val, error) {
	if err := arity(n); err != nil {
		return Val{}, err
	}
	// Short-circuiting boolean operators evaluate lazily so that models
	// need not define values along pruned branches.
	switch n.Op {
	case ast.OpAnd, ast.OpOr:
		stop := n.Op == ast.OpOr
		for i, a := range n.Args {
			b, err := Bool(a, m)
			if err != nil {
				return Val{}, at(err, i)
			}
			if b == stop {
				return BoolVal(stop), nil
			}
		}
		return BoolVal(!stop), nil
	case ast.OpImplies:
		// Right-associative: (=> a b c) = (=> a (=> b c)).
		for i := 0; i < len(n.Args)-1; i++ {
			b, err := Bool(n.Args[i], m)
			if err != nil {
				return Val{}, at(err, i)
			}
			if !b {
				return BoolVal(true), nil
			}
		}
		return argTerm(n, len(n.Args)-1, m)
	case ast.OpIte:
		c, err := Bool(n.Args[0], m)
		if err != nil {
			return Val{}, at(err, 0)
		}
		if c {
			return argTerm(n, 1, m)
		}
		return argTerm(n, 2, m)
	case ast.OpStrInRe:
		s, err := argTerm(n, 0, m)
		if err != nil {
			return Val{}, err
		}
		if s.sort != ast.SortString {
			return Val{}, at(newErr(ErrSortMismatch, n.Args[0], "str.in_re subject has sort %v, want String", s.sort), 0)
		}
		re, err := Regex(n.Args[1], m)
		if err != nil {
			return Val{}, at(err, 1)
		}
		return BoolVal(regex.Match(re, s.s)), nil
	}

	// Operands of up to three arguments stay on the stack.
	var buf [3]Val
	args := buf[:0]
	for i := range n.Args {
		v, err := argTerm(n, i, m)
		if err != nil {
			return Val{}, err
		}
		args = append(args, v)
	}
	return applyOp(n, args)
}

// arity rejects an application with an argument count its operator
// does not accept. Only ast.UncheckedApp builds one; every other reader
// of n.Args may then index by the operator's arity.
func arity(n *ast.App) error {
	lo, hi := n.Op.Arity()
	if len(n.Args) < lo || (hi >= 0 && len(n.Args) > hi) {
		return newErr(ErrArity, n, "%v applied to %d arguments", n.Op, len(n.Args))
	}
	return nil
}

// argTerm evaluates argument i of n, with i's step on an error's path.
func argTerm(n *ast.App, i int, m Model) (Val, error) {
	v, err := Term(n.Args[i], m)
	if err != nil {
		return Val{}, at(err, i)
	}
	return v, nil
}

// applyOp applies an operator that reads every argument to their values,
// checking their sorts in argument order.
func applyOp(n *ast.App, args []Val) (Val, error) {
	if op, ok := stricts[n.Op]; ok {
		var in [3]Val
		for i, s := range op.args {
			if err := want(n, args, i, s); err != nil {
				return Val{}, err
			}
			in[i] = args[i]
		}
		return op.f(in[0], in[1], in[2]), nil
	}
	switch n.Op {
	case ast.OpXor:
		out := false
		for i := range args {
			if err := want(n, args, i, ast.SortBool); err != nil {
				return Val{}, err
			}
			out = out != args[i].b
		}
		return BoolVal(out), nil
	case ast.OpEq:
		for i := 1; i < len(args); i++ {
			if !args[0].Equal(args[i]) {
				return BoolVal(false), nil
			}
		}
		return BoolVal(true), nil
	case ast.OpDistinct:
		for i := 0; i < len(args); i++ {
			for j := i + 1; j < len(args); j++ {
				if args[i].Equal(args[j]) {
					return BoolVal(false), nil
				}
			}
		}
		return BoolVal(true), nil
	case ast.OpLe, ast.OpLt, ast.OpGe, ast.OpGt:
		return compareChain(n, args)
	case ast.OpAdd, ast.OpSub, ast.OpMul, ast.OpNeg, ast.OpRealDiv, ast.OpIntDiv, ast.OpMod, ast.OpAbs:
		return arith(n, args)
	case ast.OpStrConcat:
		var out string
		for i := range args {
			if err := want(n, args, i, ast.SortString); err != nil {
				return Val{}, err
			}
			out += args[i].s
		}
		return StrVal(out), nil
	}
	return Val{}, newErr(ErrUnsupported, n, "operator %v", n.Op)
}

// arith applies an arithmetic operator on the sort of its first
// argument. A folding operator checks each further argument as it
// reaches it; mod reads only its second.
func arith(n *ast.App, args []Val) (Val, error) {
	s := args[0].sort
	if !s.IsArith() {
		return Val{}, at(newErr(ErrSortMismatch, n.Args[0], "%v argument 0 has sort %v, want Int or Real", n.Op, s), 0)
	}
	fold, unary, ok := arithOn(n.Op, s)
	if !ok {
		return Val{}, newErr(ErrUnsupported, n, "operator %v on %v arguments", n.Op, s)
	}
	acc := args[0]
	if unary != nil {
		acc.r = unary(acc.r)
		return acc, nil
	}
	last := len(args)
	if n.Op == ast.OpMod {
		last = 2
	}
	for i := 1; i < last; i++ {
		if err := want(n, args, i, s); err != nil {
			return Val{}, err
		}
		acc.r = fold(acc.r, args[i].r)
	}
	return acc, nil
}

// compareChain checks a comparison chain pairwise, left to right, and
// stops at the first pair that fails: a later argument's sort is then
// never checked.
func compareChain(n *ast.App, args []Val) (Val, error) {
	s := args[0].sort
	if !s.IsArith() {
		return Val{}, at(newErr(ErrSortMismatch, n.Args[0], "%v argument 0 has sort %v, want Int or Real", n.Op, s), 0)
	}
	for i := 0; i+1 < len(args); i++ {
		if err := want(n, args, i+1, s); err != nil {
			return Val{}, err
		}
		if !holds(n.Op, args[i].r.Cmp(args[i+1].r)) {
			return BoolVal(false), nil
		}
	}
	return BoolVal(true), nil
}
