package eval

import (
	"math/big"
	"strings"

	"repro/internal/ast"
	"repro/internal/regex"
)

// Term evaluates t under model m. Evaluation is total on well-sorted
// terms over bound variables: any failure is a structured *Error (see
// error.go) carrying the offending subterm and its path — never a
// panic, even on ill-sorted terms forged through ast.UncheckedApp or
// on models disagreeing with the term's sorts.
func Term(t ast.Term, m Model) (Value, error) {
	switch n := t.(type) {
	case *ast.Var:
		v, ok := m[n.Name]
		if !ok {
			return nil, newErr(ErrUnbound, n, "%s has no model entry", n.Name)
		}
		if v.Sort() != n.VSort {
			return nil, newErr(ErrSortMismatch, n, "model value for %s has sort %v, want %v", n.Name, v.Sort(), n.VSort)
		}
		return v, nil
	case *ast.BoolLit:
		return BoolV(n.V), nil
	case *ast.IntLit:
		return IntV{V: n.V}, nil
	case *ast.RealLit:
		return RealV{V: n.V}, nil
	case *ast.StrLit:
		return StrV(n.V), nil
	case *ast.Quant:
		return nil, newErr(ErrQuantifier, n, "quantified subterm")
	case *ast.App:
		return app(n, m)
	default:
		return nil, newErr(ErrUnsupported, t, "unknown term type %T", t)
	}
}

// Bool evaluates a boolean term, unwrapping the result.
func Bool(t ast.Term, m Model) (bool, error) {
	v, err := Term(t, m)
	if err != nil {
		return false, err
	}
	b, ok := v.(BoolV)
	if !ok {
		return false, newErr(ErrSortMismatch, t, "expected Bool, got %v", v.Sort())
	}
	return bool(b), nil
}

func app(n *ast.App, m Model) (Value, error) {
	// Short-circuiting boolean operators evaluate lazily so that models
	// need not define values along pruned branches.
	switch n.Op {
	case ast.OpAnd:
		for i, a := range n.Args {
			b, err := Bool(a, m)
			if err != nil {
				return nil, at(err, i)
			}
			if !b {
				return BoolV(false), nil
			}
		}
		return BoolV(true), nil
	case ast.OpOr:
		for i, a := range n.Args {
			b, err := Bool(a, m)
			if err != nil {
				return nil, at(err, i)
			}
			if b {
				return BoolV(true), nil
			}
		}
		return BoolV(false), nil
	case ast.OpImplies:
		// Right-associative: (=> a b c) = (=> a (=> b c)).
		for i := 0; i < len(n.Args)-1; i++ {
			b, err := Bool(n.Args[i], m)
			if err != nil {
				return nil, at(err, i)
			}
			if !b {
				return BoolV(true), nil
			}
		}
		last := len(n.Args) - 1
		v, err := Term(n.Args[last], m)
		if err != nil {
			return nil, at(err, last)
		}
		return v, nil
	case ast.OpIte:
		c, err := Bool(n.Args[0], m)
		if err != nil {
			return nil, at(err, 0)
		}
		branch := 2
		if c {
			branch = 1
		}
		v, err := Term(n.Args[branch], m)
		if err != nil {
			return nil, at(err, branch)
		}
		return v, nil
	case ast.OpStrInRe:
		s, err := Term(n.Args[0], m)
		if err != nil {
			return nil, at(err, 0)
		}
		sv, ok := s.(StrV)
		if !ok {
			return nil, at(newErr(ErrSortMismatch, n.Args[0], "str.in_re subject has sort %v, want String", s.Sort()), 0)
		}
		re, err := Regex(n.Args[1], m)
		if err != nil {
			return nil, at(err, 1)
		}
		return BoolV(regex.Match(re, string(sv))), nil
	}

	args := make([]Value, len(n.Args))
	for i, a := range n.Args {
		v, err := Term(a, m)
		if err != nil {
			return nil, at(err, i)
		}
		args[i] = v
	}
	return applyOp(n, args)
}

func applyOp(n *ast.App, args []Value) (Value, error) {
	switch n.Op {
	case ast.OpNot:
		b, err := argBool(n, args, 0)
		if err != nil {
			return nil, err
		}
		return BoolV(!b), nil
	case ast.OpXor:
		out := false
		for i := range args {
			b, err := argBool(n, args, i)
			if err != nil {
				return nil, err
			}
			out = out != b
		}
		return BoolV(out), nil
	case ast.OpEq:
		for i := 1; i < len(args); i++ {
			if !Equal(args[0], args[i]) {
				return BoolV(false), nil
			}
		}
		return BoolV(true), nil
	case ast.OpDistinct:
		for i := 0; i < len(args); i++ {
			for j := i + 1; j < len(args); j++ {
				if Equal(args[i], args[j]) {
					return BoolV(false), nil
				}
			}
		}
		return BoolV(true), nil

	case ast.OpAdd, ast.OpSub, ast.OpMul, ast.OpNeg, ast.OpRealDiv,
		ast.OpIntDiv, ast.OpMod, ast.OpAbs:
		return arith(n, args)
	case ast.OpLe, ast.OpLt, ast.OpGe, ast.OpGt:
		return compareChain(n, args)
	case ast.OpToReal:
		v, err := argInt(n, args, 0)
		if err != nil {
			return nil, err
		}
		return RealV{V: new(big.Rat).SetInt(v.V)}, nil
	case ast.OpToInt:
		v, err := argReal(n, args, 0)
		if err != nil {
			return nil, err
		}
		return RealFloor(v), nil
	case ast.OpIsInt:
		v, err := argReal(n, args, 0)
		if err != nil {
			return nil, err
		}
		return BoolV(v.V.IsInt()), nil

	default:
		return stringOp(n, args)
	}
}

// RealFloor returns floor(v) as an integer value.
func RealFloor(v RealV) IntV {
	q := new(big.Int)
	rem := new(big.Int)
	q.QuoRem(v.V.Num(), v.V.Denom(), rem)
	if rem.Sign() < 0 {
		q.Sub(q, big.NewInt(1))
	}
	return IntV{V: q}
}

func arith(n *ast.App, args []Value) (Value, error) {
	switch args[0].(type) {
	case IntV:
		return intArith(n, args)
	case RealV:
		return realArith(n, args)
	default:
		return nil, at(newErr(ErrSortMismatch, n.Args[0], "%v argument 0 has sort %v, want Int or Real", n.Op, args[0].Sort()), 0)
	}
}

func intArith(n *ast.App, args []Value) (Value, error) {
	get := func(i int) (*big.Int, error) {
		v, err := argInt(n, args, i)
		if err != nil {
			return nil, err
		}
		return v.V, nil
	}
	first, err := get(0)
	if err != nil {
		return nil, err
	}
	out := new(big.Int).Set(first)
	switch n.Op {
	case ast.OpAdd, ast.OpSub, ast.OpMul, ast.OpIntDiv:
		for i := 1; i < len(args); i++ {
			v, err := get(i)
			if err != nil {
				return nil, err
			}
			switch n.Op {
			case ast.OpAdd:
				out.Add(out, v)
			case ast.OpSub:
				out.Sub(out, v)
			case ast.OpMul:
				out.Mul(out, v)
			case ast.OpIntDiv:
				out = euclideanDiv(out, v)
			}
		}
	case ast.OpNeg:
		out.Neg(out)
	case ast.OpAbs:
		out.Abs(out)
	case ast.OpMod:
		v, err := get(1)
		if err != nil {
			return nil, err
		}
		return IntV{V: euclideanMod(out, v)}, nil
	default:
		return nil, newErr(ErrUnsupported, n, "operator %v on Int arguments", n.Op)
	}
	return IntV{V: out}, nil
}

// euclideanDiv implements SMT-LIB (div m n): the unique q with
// m = n·q + r and 0 ≤ r < |n|. Division by zero yields 0 (this
// package's fixed interpretation of the underspecified case).
func euclideanDiv(m, n *big.Int) *big.Int {
	if n.Sign() == 0 {
		return big.NewInt(0)
	}
	q := new(big.Int)
	r := new(big.Int)
	q.QuoRem(m, n, r)
	if r.Sign() < 0 {
		if n.Sign() > 0 {
			q.Sub(q, big.NewInt(1))
		} else {
			q.Add(q, big.NewInt(1))
		}
	}
	return q
}

// euclideanMod implements SMT-LIB (mod m n) with 0 ≤ r < |n|.
// Modulo by zero yields m (the fixed interpretation).
func euclideanMod(m, n *big.Int) *big.Int {
	if n.Sign() == 0 {
		return new(big.Int).Set(m)
	}
	r := new(big.Int).Mod(m, new(big.Int).Abs(n))
	return r
}

func realArith(n *ast.App, args []Value) (Value, error) {
	get := func(i int) (*big.Rat, error) {
		v, err := argReal(n, args, i)
		if err != nil {
			return nil, err
		}
		return v.V, nil
	}
	first, err := get(0)
	if err != nil {
		return nil, err
	}
	out := new(big.Rat).Set(first)
	switch n.Op {
	case ast.OpAdd, ast.OpSub, ast.OpMul, ast.OpRealDiv:
		for i := 1; i < len(args); i++ {
			v, err := get(i)
			if err != nil {
				return nil, err
			}
			switch n.Op {
			case ast.OpAdd:
				out.Add(out, v)
			case ast.OpSub:
				out.Sub(out, v)
			case ast.OpMul:
				out.Mul(out, v)
			case ast.OpRealDiv:
				if v.Sign() == 0 {
					// Fixed interpretation: x/0 = 0.
					out.SetInt64(0)
				} else {
					out.Quo(out, v)
				}
			}
		}
	case ast.OpNeg:
		out.Neg(out)
	default:
		return nil, newErr(ErrUnsupported, n, "operator %v on Real arguments", n.Op)
	}
	return RealV{V: out}, nil
}

func compareChain(n *ast.App, args []Value) (Value, error) {
	_, isInt := args[0].(IntV)
	_, isReal := args[0].(RealV)
	if !isInt && !isReal {
		return nil, at(newErr(ErrSortMismatch, n.Args[0], "%v argument 0 has sort %v, want Int or Real", n.Op, args[0].Sort()), 0)
	}
	cmp := func(i int) (int, error) {
		if isInt {
			a, err := argInt(n, args, i)
			if err != nil {
				return 0, err
			}
			b, err := argInt(n, args, i+1)
			if err != nil {
				return 0, err
			}
			return a.V.Cmp(b.V), nil
		}
		a, err := argReal(n, args, i)
		if err != nil {
			return 0, err
		}
		b, err := argReal(n, args, i+1)
		if err != nil {
			return 0, err
		}
		return a.V.Cmp(b.V), nil
	}
	for i := 0; i+1 < len(args); i++ {
		c, err := cmp(i)
		if err != nil {
			return nil, err
		}
		ok := false
		switch n.Op {
		case ast.OpLe:
			ok = c <= 0
		case ast.OpLt:
			ok = c < 0
		case ast.OpGe:
			ok = c >= 0
		case ast.OpGt:
			ok = c > 0
		}
		if !ok {
			return BoolV(false), nil
		}
	}
	return BoolV(true), nil
}

func stringOp(n *ast.App, args []Value) (Value, error) {
	str := func(i int) (string, error) { return argStr(n, args, i) }
	intAt := func(i int) (*big.Int, error) {
		v, err := argInt(n, args, i)
		if err != nil {
			return nil, err
		}
		return v.V, nil
	}
	// str2 evaluates the common two-string-argument prelude.
	str2 := func() (string, string, error) {
		a, err := str(0)
		if err != nil {
			return "", "", err
		}
		b, err := str(1)
		return a, b, err
	}
	switch n.Op {
	case ast.OpStrConcat:
		var b strings.Builder
		for i := range args {
			s, err := str(i)
			if err != nil {
				return nil, err
			}
			b.WriteString(s)
		}
		return StrV(b.String()), nil
	case ast.OpStrLen:
		s, err := str(0)
		if err != nil {
			return nil, err
		}
		return IntV{V: big.NewInt(int64(len(s)))}, nil
	case ast.OpStrAt:
		s, err := str(0)
		if err != nil {
			return nil, err
		}
		i, err := intAt(1)
		if err != nil {
			return nil, err
		}
		return StrV(strAt(s, i)), nil
	case ast.OpStrSubstr:
		s, err := str(0)
		if err != nil {
			return nil, err
		}
		i, err := intAt(1)
		if err != nil {
			return nil, err
		}
		ln, err := intAt(2)
		if err != nil {
			return nil, err
		}
		return StrV(strSubstr(s, i, ln)), nil
	case ast.OpStrIndexOf:
		s, t, err := str2()
		if err != nil {
			return nil, err
		}
		from, err := intAt(2)
		if err != nil {
			return nil, err
		}
		return IntV{V: strIndexOf(s, t, from)}, nil
	case ast.OpStrReplace, ast.OpStrReplaceAll:
		s, t, err := str2()
		if err != nil {
			return nil, err
		}
		u, err := str(2)
		if err != nil {
			return nil, err
		}
		if n.Op == ast.OpStrReplace {
			return StrV(strReplace(s, t, u)), nil
		}
		return StrV(strReplaceAll(s, t, u)), nil
	case ast.OpStrPrefixOf:
		s, t, err := str2()
		if err != nil {
			return nil, err
		}
		return BoolV(strings.HasPrefix(t, s)), nil
	case ast.OpStrSuffixOf:
		s, t, err := str2()
		if err != nil {
			return nil, err
		}
		return BoolV(strings.HasSuffix(t, s)), nil
	case ast.OpStrContains:
		s, t, err := str2()
		if err != nil {
			return nil, err
		}
		return BoolV(strings.Contains(s, t)), nil
	case ast.OpStrToInt:
		s, err := str(0)
		if err != nil {
			return nil, err
		}
		return IntV{V: StrToInt(s)}, nil
	case ast.OpStrFromInt:
		v, err := intAt(0)
		if err != nil {
			return nil, err
		}
		return StrV(StrFromInt(v)), nil
	case ast.OpStrLtOp:
		s, t, err := str2()
		if err != nil {
			return nil, err
		}
		return BoolV(s < t), nil
	case ast.OpStrLeOp:
		s, t, err := str2()
		if err != nil {
			return nil, err
		}
		return BoolV(s <= t), nil
	default:
		return nil, newErr(ErrUnsupported, n, "operator %v", n.Op)
	}
}

func strAt(s string, i *big.Int) string {
	if !i.IsInt64() {
		return ""
	}
	idx := i.Int64()
	if idx < 0 || idx >= int64(len(s)) {
		return ""
	}
	return s[idx : idx+1]
}

func strSubstr(s string, i, n *big.Int) string {
	if !i.IsInt64() || i.Sign() < 0 || i.Int64() >= int64(len(s)) || n.Sign() <= 0 {
		return ""
	}
	start := i.Int64()
	length := int64(len(s)) - start
	if n.IsInt64() && n.Int64() < length {
		length = n.Int64()
	}
	return s[start : start+length]
}

func strIndexOf(s, t string, from *big.Int) *big.Int {
	if !from.IsInt64() {
		return big.NewInt(-1)
	}
	i := from.Int64()
	if i < 0 || i > int64(len(s)) {
		return big.NewInt(-1)
	}
	idx := strings.Index(s[i:], t)
	if idx < 0 {
		return big.NewInt(-1)
	}
	return big.NewInt(i + int64(idx))
}

func strReplace(s, t, u string) string {
	if t == "" {
		// SMT-LIB: replacing the empty string prepends u.
		return u + s
	}
	idx := strings.Index(s, t)
	if idx < 0 {
		return s
	}
	return s[:idx] + u + s[idx+len(t):]
}

func strReplaceAll(s, t, u string) string {
	if t == "" {
		return u + s
	}
	return strings.ReplaceAll(s, t, u)
}

// StrToInt implements SMT-LIB str.to_int: the denoted non-negative
// decimal numeral, or -1 if s is not a (non-empty) digit sequence.
func StrToInt(s string) *big.Int {
	if s == "" {
		return big.NewInt(-1)
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return big.NewInt(-1)
		}
	}
	v, _ := new(big.Int).SetString(s, 10)
	return v
}

// StrFromInt implements SMT-LIB str.from_int: the decimal numeral for
// non-negative n, "" otherwise.
func StrFromInt(n *big.Int) string {
	if n.Sign() < 0 {
		return ""
	}
	return n.String()
}
