package strings

import (
	"testing"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/smtlib"
)

// checkScript parses a script and checks the conjunction of its asserts.
func checkScript(t *testing.T, src string) (Status, eval.Model) {
	t.Helper()
	s, err := smtlib.ParseScript(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return Check(&Problem{Lits: s.Asserts()})
}

// certify asserts that a Sat result's model satisfies every assert.
func certify(t *testing.T, src string, m eval.Model) {
	t.Helper()
	s, _ := smtlib.ParseScript(src)
	for _, a := range s.Asserts() {
		ok, err := eval.Bool(a, m)
		if err != nil {
			t.Fatalf("certify eval: %v", err)
		}
		if !ok {
			t.Fatalf("model %v violates %s", m, ast.Print(a))
		}
	}
}

func TestSimpleEquality(t *testing.T) {
	src := `
(declare-fun a () String)
(declare-fun b () String)
(assert (= a (str.++ b "x")))
(assert (= b "ab"))
`
	st, m := checkScript(t, src)
	if st != Sat {
		t.Fatalf("status %v", st)
	}
	certify(t, src, m)
	if m["a"].Str() != "abx" {
		t.Errorf("a = %v", m["a"])
	}
}

func TestLiteralConflict(t *testing.T) {
	// a = "x" ∧ a = "y": same lengths, so the length abstraction cannot
	// see it — the congruence check must.
	st, _ := checkScript(t, `
(declare-fun a () String)
(assert (= a "x"))
(assert (= a "y"))
`)
	if st != Unsat {
		t.Fatalf("conflicting literals: %v, want unsat", st)
	}
}

func TestCongruenceChains(t *testing.T) {
	// a = b ∧ b = "ab" ∧ a = "cd" conflicts through the chain.
	st, _ := checkScript(t, `
(declare-fun a () String)
(declare-fun b () String)
(assert (= a b))
(assert (= b "ab"))
(assert (= a "cd"))
`)
	if st != Unsat {
		t.Fatalf("chained conflict: %v", st)
	}
	// Consistent chain stays satisfiable.
	src := `
(declare-fun a () String)
(declare-fun b () String)
(assert (= a b))
(assert (= b "ab"))
(assert (= a "ab"))
`
	st, m := checkScript(t, src)
	if st != Sat {
		t.Fatalf("consistent chain: %v", st)
	}
	certify(t, src, m)
	// Negated equalities do not participate.
	st, m = checkScript(t, `
(declare-fun a () String)
(assert (not (= a "x")))
(assert (= a "y"))
`)
	if st != Sat {
		t.Fatalf("negated equality wrongly merged: %v", st)
	}
}

func TestLengthAbstractionUnsat(t *testing.T) {
	// len(a) = len(a)+1 via concat: a = a ++ "x" is unsat by lengths.
	st, _ := checkScript(t, `
(declare-fun a () String)
(assert (= a (str.++ a "x")))
`)
	if st != Unsat {
		t.Fatalf("status %v, want unsat via length abstraction", st)
	}
}

func TestLengthVsIntConstraint(t *testing.T) {
	// len(a) < 0 is unsat.
	st, _ := checkScript(t, `
(declare-fun a () String)
(assert (< (str.len a) 0))
`)
	if st != Unsat {
		t.Fatalf("status %v", st)
	}
	// len(a) = 3 ∧ a in (aa)* : lengths 0,2,4,... conflict with 3.
	st, _ = checkScript(t, `
(declare-fun a () String)
(assert (= (str.len a) 3))
(assert (str.in_re a (re.* (str.to_re "aa"))))
`)
	// MinLen/MaxLen give only 0..∞ bounds here, so the length
	// abstraction alone cannot refute; accept Unknown but reject Sat.
	if st == Sat {
		t.Fatalf("parity-length conflict reported sat")
	}
}

func TestRegexMembershipSat(t *testing.T) {
	src := `
(declare-fun c () String)
(assert (str.in_re c (re.* (str.to_re "aa"))))
(assert (> (str.len c) 2))
`
	st, m := checkScript(t, src)
	if st != Sat {
		t.Fatalf("status %v", st)
	}
	certify(t, src, m)
}

func TestRegexEmptyIntersection(t *testing.T) {
	st, _ := checkScript(t, `
(declare-fun c () String)
(assert (str.in_re c (str.to_re "ab")))
(assert (str.in_re c (str.to_re "cd")))
`)
	if st != Unsat {
		t.Fatalf("status %v", st)
	}
}

func TestRegexMinLenUnsat(t *testing.T) {
	// c ∈ (aaa)+ forces len ≥ 3; len(c) ≤ 2 contradicts.
	st, _ := checkScript(t, `
(declare-fun c () String)
(assert (str.in_re c (re.+ (str.to_re "aaa"))))
(assert (<= (str.len c) 2))
`)
	if st != Unsat {
		t.Fatalf("status %v", st)
	}
}

func TestRegexMaxLenUnsat(t *testing.T) {
	// c ∈ opt(ab) has max length 2; len(c) > 5 contradicts.
	st, _ := checkScript(t, `
(declare-fun c () String)
(assert (str.in_re c (re.opt (str.to_re "ab"))))
(assert (> (str.len c) 5))
`)
	if st != Unsat {
		t.Fatalf("status %v", st)
	}
}

func TestNegativeMembership(t *testing.T) {
	src := `
(declare-fun c () String)
(assert (not (str.in_re c (re.* (str.to_re "a")))))
(assert (<= (str.len c) 2))
`
	st, m := checkScript(t, src)
	if st != Sat {
		t.Fatalf("status %v", st)
	}
	certify(t, src, m)
}

func TestConcatChainPropagation(t *testing.T) {
	src := `
(declare-fun a () String)
(declare-fun b () String)
(declare-fun c () String)
(declare-fun d () String)
(assert (= b "ab"))
(assert (= c (str.++ b b)))
(assert (= d (str.++ c "!")))
(assert (= a d))
`
	st, m := checkScript(t, src)
	if st != Sat {
		t.Fatalf("status %v", st)
	}
	certify(t, src, m)
	if m["a"].Str() != "abab!" {
		t.Errorf("a = %v", m["a"])
	}
}

func TestMixedIntString(t *testing.T) {
	src := `
(declare-fun a () String)
(declare-fun n () Int)
(assert (= a "hello"))
(assert (= n (str.len a)))
(assert (> n 4))
`
	st, m := checkScript(t, src)
	if st != Sat {
		t.Fatalf("status %v", st)
	}
	certify(t, src, m)
}

func TestStrToIntConstraint(t *testing.T) {
	src := `
(declare-fun a () String)
(assert (= (str.to_int a) 7))
(assert (<= (str.len a) 1))
`
	st, m := checkScript(t, src)
	if st != Sat {
		t.Fatalf("status %v", st)
	}
	certify(t, src, m)
	if m["a"].Str() != "7" {
		t.Errorf("a = %v", m["a"])
	}
}

func TestBooleanMix(t *testing.T) {
	// The paper's Figure 2 φ2 shape: boolean guards around string/int
	// facts.
	src := `
(declare-fun y () Int)
(declare-fun v () Bool)
(assert (= v (not (= y (- 1)))))
(assert (ite v false (= y (- 1))))
`
	st, m := checkScript(t, src)
	if st != Sat {
		t.Fatalf("status %v", st)
	}
	certify(t, src, m)
	if m["v"].Bool() {
		t.Error("v must be false")
	}
}

func TestPrefixSuffixContains(t *testing.T) {
	src := `
(declare-fun a () String)
(assert (str.prefixof "ab" a))
(assert (str.suffixof "ba" a))
(assert (str.contains a "bab"))
(assert (<= (str.len a) 5))
`
	st, m := checkScript(t, src)
	if st != Sat {
		t.Fatalf("status %v", st)
	}
	certify(t, src, m)
}

func TestContainsLengthUnsat(t *testing.T) {
	st, _ := checkScript(t, `
(declare-fun a () String)
(assert (str.contains a "abcdef"))
(assert (< (str.len a) 3))
`)
	if st != Unsat {
		t.Fatalf("status %v", st)
	}
}

func TestReplaceSemanticSearch(t *testing.T) {
	src := `
(declare-fun a () String)
(declare-fun b () String)
(assert (= (str.replace a b "") "x"))
(assert (= (str.len a) 2))
(assert (= (str.len b) 1))
`
	st, m := checkScript(t, src)
	if st != Sat {
		t.Fatalf("status %v", st)
	}
	certify(t, src, m)
}

func TestUnknownOnHardInstance(t *testing.T) {
	// A satisfiable instance whose witness is longer than the search
	// bound: the solver must say Unknown (or find it), never Unsat.
	st, _ := Check(&Problem{
		Lits: mustAsserts(t, `
(declare-fun a () String)
(assert (= (str.len a) 40))
`),
		Limits: Limits{MaxLen: 3, MaxCandidates: 10, MaxNodes: 100},
	})
	if st == Unsat {
		t.Fatalf("incomplete search must not report unsat")
	}
}

func mustAsserts(t *testing.T, src string) []ast.Term {
	t.Helper()
	s, err := smtlib.ParseScript(src)
	if err != nil {
		t.Fatal(err)
	}
	return s.Asserts()
}

func TestPaperFigure13aShape(t *testing.T) {
	// The satisfiable sibling of the paper's Figure 13a: same structure
	// without the contradiction.
	src := `
(declare-fun b () String)
(declare-fun c () String)
(assert (str.in_re c (re.* (str.to_re "aa"))))
(assert (str.prefixof b (str.++ b c)))
`
	st, m := checkScript(t, src)
	if st != Sat {
		t.Fatalf("status %v", st)
	}
	certify(t, src, m)
}
