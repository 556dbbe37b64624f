package arith

import (
	"repro/internal/ast"
	"repro/internal/fuel"
	"repro/internal/solver/rat"
	"repro/internal/telemetry"
)

// cIntervalSteps counts interval-refinement literal visits — one
// increment per fuel unit spent in the propagation rounds.
var cIntervalSteps = telemetry.NewCounter("yy_arith_interval_steps_total", "interval-refinement literal visits")

// Env maps variable names to interval enclosures.
type Env map[string]Interval

// EvalInterval computes an interval enclosure of an Int- or Real-sorted
// term under env. Variables absent from env are unbounded. The
// enclosure is sound: every value the term can take under assignments
// consistent with env lies in the result.
func EvalInterval(t ast.Term, env Env, intVars map[string]bool) Interval {
	switch n := t.(type) {
	case *ast.Var:
		if iv, ok := env[n.Name]; ok {
			return iv
		}
		return Whole()
	case *ast.IntLit:
		return Point(rat.FromBigInt(n.V))
	case *ast.RealLit:
		return Point(rat.FromBig(n.V))
	case *ast.App:
		return evalIntervalApp(n, env, intVars)
	default:
		return Whole()
	}
}

func evalIntervalApp(n *ast.App, env Env, intVars map[string]bool) Interval {
	sub := func(i int) Interval { return EvalInterval(n.Args[i], env, intVars) }
	switch n.Op {
	case ast.OpAdd:
		out := sub(0)
		for i := 1; i < len(n.Args); i++ {
			out = out.Add(sub(i))
		}
		return out
	case ast.OpSub:
		out := sub(0)
		for i := 1; i < len(n.Args); i++ {
			out = out.Sub(sub(i))
		}
		return out
	case ast.OpNeg:
		return sub(0).Neg()
	case ast.OpMul:
		out := sub(0)
		for i := 1; i < len(n.Args); i++ {
			out = out.Mul(sub(i))
		}
		return out
	case ast.OpRealDiv:
		out := sub(0)
		for i := 1; i < len(n.Args); i++ {
			out = out.Div(sub(i))
		}
		return out
	case ast.OpAbs:
		return sub(0).Abs()
	case ast.OpToReal:
		return sub(0)
	case ast.OpToInt:
		// floor: shift the enclosure down by at most 1.
		in := sub(0)
		out := in
		if !out.Lo.Inf {
			out.Lo = finite(out.Lo.V.Sub(rat.Int(1)), false)
		}
		if !out.Hi.Inf {
			out.Hi = finite(out.Hi.V, false)
		}
		return out
	case ast.OpIte:
		return sub(1).Hull(sub(2))
	case ast.OpIntDiv:
		// Conservative: Euclidean quotient of bounded operands with a
		// nonzero divisor lies within the real quotient hull ±1.
		a, b := sub(0), sub(1)
		if b.ContainsZero() {
			// x div 0 = 0 under the fixed interpretation: hull with 0.
			return Whole()
		}
		q := a.Div(b)
		one := Point(rat.Int(1))
		return q.Add(Interval{Lo: one.Neg().Lo, Hi: one.Hi})
	case ast.OpMod:
		// 0 ≤ mod < |divisor| when the divisor is nonzero; mod x 0 = x.
		b := sub(1)
		nonneg := Interval{Lo: finite(rat.Rat{}, false), Hi: Endpoint{Inf: true}}
		if b.ContainsZero() {
			return nonneg.Hull(sub(0))
		}
		out := nonneg
		mag := b.Abs()
		if !mag.Hi.Inf {
			out.Hi = Endpoint{V: mag.Hi.V, Open: true}
		}
		return out
	case ast.OpStrLen:
		return Interval{Lo: finite(rat.Rat{}, false), Hi: Endpoint{Inf: true}}
	case ast.OpStrToInt:
		return Interval{Lo: finite(rat.Int(-1), false), Hi: Endpoint{Inf: true}}
	case ast.OpStrIndexOf:
		return Interval{Lo: finite(rat.Int(-1), false), Hi: Endpoint{Inf: true}}
	default:
		return Whole()
	}
}

// RefuteIntervals attempts to prove a conjunction of arithmetic
// literals unsatisfiable by bound propagation and interval evaluation.
// Each literal must be a comparison (possibly under a single not, which
// callers are expected to have eliminated by flipping the relation) or
// an equality over Int/Real terms. It returns true only if the
// conjunction is definitely unsatisfiable. One fuel unit is spent per
// literal per round; exhaustion abandons the refinement (no proof).
// Each visit is recorded into tr (nil records nothing).
func RefuteIntervals(lits []ast.Term, intVars map[string]bool, rounds int, m *fuel.Meter, tr *telemetry.Tracker) bool {
	env := Env{}
	for round := 0; round < rounds; round++ {
		changed := false
		for _, lit := range lits {
			if !m.Spend(1) {
				return false
			}
			tr.Inc(cIntervalSteps)
			app, ok := lit.(*ast.App)
			if !ok {
				continue
			}
			rel, ok := RelOf(app.Op)
			if !ok || len(app.Args) != 2 {
				continue
			}
			if !app.Args[0].Sort().IsArith() {
				continue
			}
			a, b := app.Args[0], app.Args[1]
			ia := EvalInterval(a, env, intVars)
			ib := EvalInterval(b, env, intVars)
			if !feasible(rel, ia.Sub(ib)) {
				return true
			}
			// Tighten variable endpoints.
			if v, ok := a.(*ast.Var); ok {
				if tightenVar(env, v.Name, rel, ib, intVars) {
					changed = true
				}
				if iv, ok := env[v.Name]; ok && iv.IsEmpty() {
					return true
				}
			}
			if v, ok := b.(*ast.Var); ok {
				if tightenVar(env, v.Name, flipRel(rel), ia, intVars) {
					changed = true
				}
				if iv, ok := env[v.Name]; ok && iv.IsEmpty() {
					return true
				}
			}
		}
		if !changed {
			break
		}
	}
	return false
}

// Comparison reads a literal as a binary arithmetic comparison: under
// any not-wrappers, a RelOf operator over two Int- or Real-sorted
// arguments. It returns the arguments and the relation with the
// wrappers' polarity applied, so the literal holds iff lhs rel rhs, and
// false for any other literal. The literal memo and the string layer
// read their comparisons through it.
func Comparison(lit ast.Term) (lhs, rhs ast.Term, rel Rel, ok bool) {
	polarity := true
	app, isApp := lit.(*ast.App)
	//golint:allow fuel-charge — strips a finite chain of not-wrappers; the term strictly shrinks every iteration
	for isApp && app.Op == ast.OpNot {
		app, isApp = app.Args[0].(*ast.App)
		polarity = !polarity
	}
	if !isApp || len(app.Args) != 2 || !app.Args[0].Sort().IsArith() {
		return nil, nil, 0, false
	}
	if rel, ok = RelOf(app.Op); !ok {
		return nil, nil, 0, false
	}
	if !polarity {
		rel = rel.Negate()
	}
	return app.Args[0], app.Args[1], rel, true
}

// RelOf maps a comparison operator to its relation: the one op→relation
// map of the arith front end, the string layer's length abstraction and
// the literal memo.
func RelOf(op ast.Op) (Rel, bool) {
	switch op {
	case ast.OpLe:
		return RelLe, true
	case ast.OpLt:
		return RelLt, true
	case ast.OpGe:
		return RelGe, true
	case ast.OpGt:
		return RelGt, true
	case ast.OpEq:
		return RelEq, true
	case ast.OpDistinct:
		return RelNe, true
	}
	return 0, false
}

// flipRel mirrors the relation for swapped operands: a ⋈ b ≡ b ⋈' a.
func flipRel(r Rel) Rel {
	switch r {
	case RelLe:
		return RelGe
	case RelLt:
		return RelGt
	case RelGe:
		return RelLe
	case RelGt:
		return RelLt
	default:
		return r
	}
}

// feasible reports whether d ⋈ 0 can hold for some d in the interval.
func feasible(rel Rel, d Interval) bool {
	if d.IsEmpty() {
		return false
	}
	switch rel {
	case RelLe: // need some d ≤ 0
		if d.Lo.Inf {
			return true
		}
		c := d.Lo.V.Sign()
		return c < 0 || (c == 0 && !d.Lo.Open)
	case RelLt: // need some d < 0
		if d.Lo.Inf {
			return true
		}
		return d.Lo.V.Sign() < 0
	case RelGe:
		if d.Hi.Inf {
			return true
		}
		c := d.Hi.V.Sign()
		return c > 0 || (c == 0 && !d.Hi.Open)
	case RelGt:
		if d.Hi.Inf {
			return true
		}
		return d.Hi.V.Sign() > 0
	case RelEq:
		return d.ContainsZero()
	case RelNe:
		// Infeasible only if d is exactly {0}.
		point := !d.Lo.Inf && !d.Hi.Inf &&
			d.Lo.V.Sign() == 0 && d.Hi.V.Sign() == 0 && !d.Lo.Open && !d.Hi.Open
		return !point
	}
	return true
}

// tightenVar intersects env[name] with the constraint name ⋈ other.
// It reports whether the interval changed.
func tightenVar(env Env, name string, rel Rel, other Interval, intVars map[string]bool) bool {
	cur, ok := env[name]
	if !ok {
		cur = Whole()
	}
	var constraint Interval
	switch rel {
	case RelLe:
		constraint = Interval{Lo: Endpoint{Inf: true}, Hi: other.Hi}
	case RelLt:
		hi := other.Hi
		if !hi.Inf {
			hi.Open = true
		}
		constraint = Interval{Lo: Endpoint{Inf: true}, Hi: hi}
	case RelGe:
		constraint = Interval{Lo: other.Lo, Hi: Endpoint{Inf: true}}
	case RelGt:
		lo := other.Lo
		if !lo.Inf {
			lo.Open = true
		}
		constraint = Interval{Lo: lo, Hi: Endpoint{Inf: true}}
	case RelEq:
		constraint = other
	default:
		return false // ≠ does not tighten an interval
	}
	next := cur.Intersect(constraint)
	if intVars[name] {
		next = next.TightenInt()
	}
	if intervalEq(cur, next) {
		return false
	}
	env[name] = next
	return true
}

func intervalEq(a, b Interval) bool {
	return endpointEq(a.Lo, b.Lo) && endpointEq(a.Hi, b.Hi)
}

func endpointEq(a, b Endpoint) bool {
	if a.Inf != b.Inf {
		return false
	}
	if a.Inf {
		return true
	}
	return a.Open == b.Open && a.V.Cmp(b.V) == 0
}
