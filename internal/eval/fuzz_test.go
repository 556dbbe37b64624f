package eval_test

import (
	"errors"
	"testing"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/smtlib"
)

// FuzzEvalTotal checks the evaluator's totality contract: on any term
// the elaborator accepts, under any model — including models with
// missing bindings and wrong-sort bindings — evaluation returns either
// a value or a structured *eval.Error, and never panics. The salt
// steers the model away from well-formedness so the unbound and
// sort-mismatch branches are exercised, not just the happy path.
func FuzzEvalTotal(f *testing.F) {
	for _, s := range evalSeeds {
		f.Add(s, byte(0))
		f.Add(s, byte(3))
	}
	f.Fuzz(func(t *testing.T, src string, salt byte) {
		sc, err := smtlib.ParseScript(src)
		if err != nil {
			return
		}
		m := saltedModel(sc, salt)
		for _, a := range sc.Asserts() {
			v, err := eval.Term(a, m)
			if err != nil {
				var ee *eval.Error
				if !errors.As(err, &ee) {
					t.Fatalf("unstructured evaluation error %T: %v", err, err)
				}
				continue
			}
			if v.Sort() == ast.SortInvalid {
				t.Fatal("evaluation returned neither value nor error")
			}
		}
	})
}

// evalSeeds are the scripts both evaluator fuzz targets start from.
var evalSeeds = []string{
	"(set-logic QF_LIA)\n(declare-fun x () Int)\n(assert (> (div x 0) (mod x 2)))\n(check-sat)\n",
	"(set-logic QF_S)\n(declare-fun s () String)\n(assert (str.contains (str.replace s \"a\" \"\") (str.at s (- 1))))\n(check-sat)\n",
	"(set-logic QF_NRA)\n(declare-fun a () Real)\n(assert (= (/ a a) 1.0))\n(check-sat)\n",
	"(set-logic QF_LIA)\n(declare-fun p () Bool)\n(assert (ite p (< 1 2 3) (distinct 1 2 1)))\n(check-sat)\n",
	"(set-logic QF_S)\n(declare-fun s () String)\n(assert (str.in_re s (re.union (re.* (str.to_re \"a\")) (re.range \"a\" \"z\"))))\n(check-sat)\n",
	"(set-logic QF_LRA)\n(declare-fun r () Real)\n(assert (<= (to_real (to_int r)) r))\n(check-sat)\n",
	"(set-logic QF_S)\n(declare-fun s () String)\n(assert (= (str.to_int (str.from_int (str.len s))) (str.indexof s s 0)))\n(check-sat)\n",
}

// saltedModel binds every declared variable of sc to its sort's default,
// except that the salt's bit 0 leaves the first variable unbound and
// bit 1 binds every variable to a value of the wrong sort.
func saltedModel(sc *smtlib.Script, salt byte) eval.Model {
	m := eval.Model{}
	for i, d := range sc.Declarations() {
		switch {
		case salt&1 == 1 && i == 0:
			// Leave the first variable unbound: the ErrUnbound path.
		case salt&2 == 2:
			// Bind a deliberately wrong-sorted value: the
			// ErrSortMismatch path (Bool is wrong for every
			// non-Bool variable, String for every Bool one).
			if d.Sort.String() == "Bool" {
				m[d.Name] = eval.StrVal("oops")
			} else {
				m[d.Name] = eval.BoolVal(true)
			}
		default:
			m[d.Name] = eval.DefaultValue(d.Sort)
		}
	}
	return m
}
