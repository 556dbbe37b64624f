// Package arith implements the arithmetic theory layer of the reference
// solver: normalization of terms into linear expressions (with
// abstraction of nonlinear subterms), a decision procedure for
// conjunctions of linear atoms over reals and integers (exact simplex
// plus branch-and-bound), and interval evaluation used to refute
// nonlinear conjunctions.
package arith

import (
	"fmt"
	"math/big"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/ast"
	"repro/internal/solver/rat"
)

// VarCoeff is one summand Coeff·Var of a linear expression.
type VarCoeff struct {
	Var   string
	Coeff rat.Rat
}

// LinExpr is a linear expression: a rational constant plus a rational
// combination of named variables. Coeffs is sorted by variable name
// and holds no zero coefficient.
type LinExpr struct {
	Coeffs []VarCoeff
	Const  rat.Rat
}

// NewLinExpr returns the zero expression.
func NewLinExpr() *LinExpr { return &LinExpr{} }

// AddExpr adds o scaled by k into e (in place).
func (e *LinExpr) AddExpr(o *LinExpr, k rat.Rat) {
	e.Const = e.Const.Add(o.Const.Mul(k))
	for _, t := range o.Coeffs {
		e.AddVar(t.Var, t.Coeff.Mul(k))
	}
}

// AddVar adds c·v into e (in place).
func (e *LinExpr) AddVar(v string, c rat.Rat) {
	i := sort.Search(len(e.Coeffs), func(i int) bool { return e.Coeffs[i].Var >= v })
	if i < len(e.Coeffs) && e.Coeffs[i].Var == v {
		if sum := e.Coeffs[i].Coeff.Add(c); !sum.IsZero() {
			e.Coeffs[i].Coeff = sum
		} else {
			e.Coeffs = append(e.Coeffs[:i], e.Coeffs[i+1:]...)
		}
		return
	}
	if c.IsZero() {
		return
	}
	e.Coeffs = append(e.Coeffs, VarCoeff{})
	copy(e.Coeffs[i+1:], e.Coeffs[i:])
	e.Coeffs[i] = VarCoeff{Var: v, Coeff: c}
}

// Scale multiplies e by k (in place).
func (e *LinExpr) Scale(k rat.Rat) {
	e.Const = e.Const.Mul(k)
	if k.IsZero() {
		e.Coeffs = e.Coeffs[:0]
		return
	}
	for i := range e.Coeffs {
		e.Coeffs[i].Coeff = e.Coeffs[i].Coeff.Mul(k)
	}
}

// Coeff returns the coefficient of v in e (zero when v does not occur).
func (e *LinExpr) Coeff(v string) rat.Rat {
	i := sort.Search(len(e.Coeffs), func(i int) bool { return e.Coeffs[i].Var >= v })
	if i < len(e.Coeffs) && e.Coeffs[i].Var == v {
		return e.Coeffs[i].Coeff
	}
	return rat.Rat{}
}

// IsConst reports whether e has no variables.
func (e *LinExpr) IsConst() bool { return len(e.Coeffs) == 0 }

// Eval evaluates e under a model as returned by Check; missing
// variables are an error.
func (e *LinExpr) Eval(vals map[string]*big.Rat) (*big.Rat, error) {
	out := e.Const.Big()
	for _, t := range e.Coeffs {
		val, ok := vals[t.Var]
		if !ok {
			return nil, fmt.Errorf("arith: no value for %s", t.Var)
		}
		out.Add(out, new(big.Rat).Mul(t.Coeff.Big(), val))
	}
	return out, nil
}

// String renders the expression deterministically (sorted variables).
func (e *LinExpr) String() string {
	var b []byte
	for _, t := range e.Coeffs {
		b = t.Coeff.Append(b)
		b = append(b, "·"...)
		b = append(b, t.Var...)
		b = append(b, " + "...)
	}
	return string(e.Const.Append(b))
}

// Abstractor allocates fresh variables for nonlinear or foreign
// subterms during linearization, memoizing by structural term identity
// so equal subterms share an abstraction variable (a congruence-lite
// that is essential for fused formulas).
type Abstractor struct {
	prefix string
	byTerm map[ast.Term]string
	terms  map[string]ast.Term
	n      int
}

// NewAbstractor returns an abstractor generating names with the given
// prefix (the prefix must not collide with formula variables; the
// solver uses an illegal-character prefix).
func NewAbstractor(prefix string) *Abstractor {
	return &Abstractor{prefix: prefix, byTerm: map[ast.Term]string{}, terms: map[string]ast.Term{}}
}

// Reset forgets every abstraction, keeping the maps' storage: the next
// VarFor calls hand out the same names again, from the first.
func (a *Abstractor) Reset() {
	clear(a.byTerm)
	clear(a.terms)
	a.n = 0
}

// VarFor returns the abstraction variable name for term t. Terms are
// interned, so structural memoization is a pointer-keyed lookup.
func (a *Abstractor) VarFor(t ast.Term) string {
	if v, ok := a.byTerm[t]; ok {
		return v
	}
	v := a.prefix + strconv.Itoa(a.n)
	a.n++
	a.byTerm[t] = v
	a.terms[v] = t
	return v
}

// Terms returns the abstracted terms keyed by abstraction variable.
func (a *Abstractor) Terms() map[string]ast.Term { return a.terms }

// Sort returns the sort of an abstraction variable.
func (a *Abstractor) Sort(v string) (ast.Sort, bool) {
	t, ok := a.terms[v]
	if !ok {
		return ast.SortInvalid, false
	}
	return t.Sort(), true
}

// Len reports how many abstraction variables were created.
func (a *Abstractor) Len() int { return a.n }

// Linearize converts an Int- or Real-sorted term into a linear
// expression. Nonlinear subterms (variable products, divisions by
// non-constants, div/mod/abs, to_int) and foreign terms (str.len,
// str.to_int, str.indexof, ite) are abstracted into fresh variables via
// abs; if abs is nil, such terms are an error.
func Linearize(t ast.Term, abs *Abstractor) (*LinExpr, error) {
	return LinearizeDiff(t, nil, abs)
}

// LinearizeDiff linearizes l − r, the normal form of a binary
// arithmetic atom, into a single fresh expression; a nil r reads as 0.
// The sum accumulates in a recycled buffer and is copied out at its
// final size.
func LinearizeDiff(l, r ast.Term, abs *Abstractor) (*LinExpr, error) {
	acc := getAccumulator()
	defer accumulators.Put(acc)
	if err := LinearizeInto(acc, l, rat.Int(1), abs); err != nil {
		return nil, err
	}
	if r != nil {
		if err := LinearizeInto(acc, r, rat.Int(-1), abs); err != nil {
			return nil, err
		}
	}
	return &LinExpr{Coeffs: slices.Clone(acc.Coeffs), Const: acc.Const}, nil
}

// Template is the linearization of l − r recorded once, to be replayed
// on many abstractors. It holds the expression over the ordinary
// variables and every subterm the linearization abstracted, in the
// order of their first VarFor call, with the coefficient each ended up
// with. Replaying those VarFor calls on an abstractor gives exactly the
// names, expression and abstractor state a fresh LinearizeDiff on that
// abstractor would, so a caller that linearizes the same atom in many
// rounds pays for the term walk once. A Template keeps its last
// instantiation, so it is not safe for concurrent use.
type Template struct {
	expr *LinExpr      // the ordinary-variable part; the whole expression when subs is empty
	subs []abstraction // first-VarFor order
	err  error         // the linearization error, if any
	last *LinExpr      // the latest instantiation, over the names in subs
}

// abstraction is one abstracted subterm of a Template: its coefficient
// (zero when it cancelled) and the name its latest instantiation gave
// it.
type abstraction struct {
	t     ast.Term
	coeff rat.Rat
	name  string
}

// templatePrefix names a template's private abstraction variables; like
// the solver's prefix it cannot occur in a formula variable name.
const templatePrefix = "\x00tpl!"

// MakeTemplate records the linearization of l − r (a nil r reads as 0).
func MakeTemplate(l, r ast.Term) Template {
	abs := NewAbstractor(templatePrefix)
	e, err := LinearizeDiff(l, r, abs)
	tp := Template{expr: e, err: err}
	if abs.n == 0 {
		return tp
	}
	tp.subs = make([]abstraction, abs.n)
	for i := range tp.subs {
		name := templatePrefix + strconv.Itoa(i)
		tp.subs[i].t = abs.terms[name]
		if err == nil {
			tp.subs[i].coeff = e.Coeff(name)
		}
	}
	if err == nil {
		// The private names sort before every formula variable.
		k := 0
		for _, c := range e.Coeffs {
			if !strings.HasPrefix(c.Var, templatePrefix) {
				break
			}
			k++
		}
		e.Coeffs = e.Coeffs[k:]
	}
	return tp
}

// Instantiate returns what LinearizeDiff(l, r, abs) would, after making
// the same VarFor calls on abs in the same order. The expression may be
// shared with earlier instantiations that gave the subterms the same
// names, so callers must not mutate it.
func (tp *Template) Instantiate(abs *Abstractor) (*LinExpr, error) {
	if len(tp.subs) == 0 {
		return tp.expr, tp.err
	}
	same := tp.last != nil
	for i := range tp.subs {
		sub := &tp.subs[i]
		name := abs.VarFor(sub.t)
		same = same && sub.name == name
		sub.name = name
	}
	if tp.err != nil {
		return nil, tp.err
	}
	if same {
		return tp.last, nil
	}
	out := &LinExpr{Coeffs: make([]VarCoeff, len(tp.expr.Coeffs), len(tp.expr.Coeffs)+len(tp.subs)), Const: tp.expr.Const}
	copy(out.Coeffs, tp.expr.Coeffs)
	for _, sub := range tp.subs {
		if !sub.coeff.IsZero() {
			out.AddVar(sub.name, sub.coeff)
		}
	}
	tp.last = out
	return out, nil
}

// accumulators recycles the working expressions of LinearizeDiff and
// linearizeProduct.
var accumulators = sync.Pool{New: func() any { return new(LinExpr) }}

// getAccumulator returns a recycled working expression, reset to zero.
func getAccumulator() *LinExpr {
	acc := accumulators.Get().(*LinExpr)
	acc.Coeffs, acc.Const = acc.Coeffs[:0], rat.Rat{}
	return acc
}

// LinearizeInto accumulates k·t into out, so an entire sum tree shares
// one coefficient slice instead of allocating an intermediate LinExpr
// per node.
func LinearizeInto(out *LinExpr, t ast.Term, k rat.Rat, abs *Abstractor) error {
	switch n := t.(type) {
	case *ast.Var:
		out.AddVar(n.Name, k)
		return nil
	case *ast.IntLit, *ast.RealLit:
		c, _ := numeral(t)
		out.Const = out.Const.Add(c.Mul(k))
		return nil
	case *ast.App:
		return linearizeApp(out, n, k, abs)
	default:
		return fmt.Errorf("arith: cannot linearize %T", t)
	}
}

// numeral returns the value of an integer or real literal.
func numeral(t ast.Term) (rat.Rat, bool) {
	switch n := t.(type) {
	case *ast.IntLit:
		return rat.FromBigInt(n.V), true
	case *ast.RealLit:
		return rat.FromBig(n.V), true
	}
	return rat.Rat{}, false
}

func linearizeApp(out *LinExpr, n *ast.App, k rat.Rat, abs *Abstractor) error {
	switch n.Op {
	case ast.OpAdd:
		for _, a := range n.Args {
			if err := LinearizeInto(out, a, k, abs); err != nil {
				return err
			}
		}
		return nil
	case ast.OpSub:
		if err := LinearizeInto(out, n.Args[0], k, abs); err != nil {
			return err
		}
		nk := k.Neg()
		for _, a := range n.Args[1:] {
			if err := LinearizeInto(out, a, nk, abs); err != nil {
				return err
			}
		}
		return nil
	case ast.OpNeg:
		return LinearizeInto(out, n.Args[0], k.Neg(), abs)
	case ast.OpMul:
		return linearizeProduct(out, n, k, abs)
	case ast.OpRealDiv:
		quot, err := Linearize(n.Args[0], abs)
		if err != nil {
			return err
		}
		for _, a := range n.Args[1:] {
			e, err := Linearize(a, abs)
			if err != nil {
				return err
			}
			if !e.IsConst() || e.Const.IsZero() {
				// Division by a non-constant (or by the fixed zero
				// interpretation) is not linear.
				return abstractInto(out, n, k, abs)
			}
			quot.Scale(e.Const.Inv())
		}
		out.AddExpr(quot, k)
		return nil
	case ast.OpToReal:
		return LinearizeInto(out, n.Args[0], k, abs)
	default:
		// div, mod, abs, to_int, ite, str.len, str.to_int,
		// str.indexof: foreign/nonlinear — abstract.
		return abstractInto(out, n, k, abs)
	}
}

// linearizeProduct accumulates k·t into out for a product t. Constant
// factors (numerals, and any factor that linearizes to a constant) fold
// into the scale, and the one non-constant factor, if any, is added at
// that scale. Factors linearize left to right, stopping at a second
// non-constant factor: the product is then nonlinear and abstracted.
func linearizeProduct(out *LinExpr, t *ast.App, k rat.Rat, abs *Abstractor) error {
	scale := k
	var prod, tmp *LinExpr
	defer func() {
		if prod != nil {
			accumulators.Put(prod)
		}
		if tmp != nil {
			accumulators.Put(tmp)
		}
	}()
	for _, a := range t.Args {
		if c, ok := numeral(a); ok {
			scale = scale.Mul(c)
			continue
		}
		if tmp == nil {
			tmp = getAccumulator()
		} else {
			tmp.Coeffs, tmp.Const = tmp.Coeffs[:0], rat.Rat{}
		}
		if err := LinearizeInto(tmp, a, rat.Int(1), abs); err != nil {
			return err
		}
		switch {
		case tmp.IsConst():
			scale = scale.Mul(tmp.Const)
		case prod == nil:
			prod, tmp = tmp, nil
		default:
			return abstractInto(out, t, k, abs)
		}
	}
	if prod == nil {
		out.Const = out.Const.Add(scale)
		return nil
	}
	out.AddExpr(prod, scale)
	return nil
}

func abstractInto(out *LinExpr, t ast.Term, k rat.Rat, abs *Abstractor) error {
	if abs == nil {
		return fmt.Errorf("arith: nonlinear or foreign term %s", ast.Print(t))
	}
	out.AddVar(abs.VarFor(t), k)
	return nil
}
