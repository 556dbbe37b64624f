package strings

import (
	"testing"

	"repro/internal/smtlib"
)

func checkerFor(t *testing.T, src string) *checker {
	t.Helper()
	return newChecker(&Problem{Lits: mustAsserts(t, src)})
}

func TestBuildAlphabet(t *testing.T) {
	c2 := checkerFor(t, `
(declare-fun a () String)
(assert (= a "xz"))
(assert (= (str.to_int a) 5))
`)
	c2.pos = nil
	c2.neg = nil
	c2.buildAlphabet()
	set := map[byte]bool{}
	for _, b := range c2.alphabet {
		set[b] = true
	}
	// Literal chars, digits (to_int present), and a fresh byte.
	for _, want := range []byte{'x', 'z', '0', '1'} {
		if !set[want] {
			t.Errorf("alphabet missing %c: %v", want, c2.alphabet)
		}
	}
	if len(c2.alphabet) < 5 {
		t.Errorf("no representative outside byte: %v", c2.alphabet)
	}
}

func TestShortlexOrder(t *testing.T) {
	c := checkerFor(t, `(declare-fun a () String)(assert (= a "ab"))`)
	c.buildAlphabet()
	out := c.shortlex(3, 10)
	if out[0] != "" {
		t.Errorf("first is %q", out[0])
	}
	for i := 1; i < len(out); i++ {
		if len(out[i]) < len(out[i-1]) {
			t.Errorf("not shortlex at %d: %q after %q", i, out[i], out[i-1])
		}
	}
	if len(out) != 10 {
		t.Errorf("limit not respected: %d", len(out))
	}
}

func TestStringCandidatesIncludeLiteralsAndInts(t *testing.T) {
	c3 := checkerFor(t, `
(declare-fun a () String)
(assert (= (str.to_int a) 37))
`)
	c3.pos = nil
	c3.neg = nil
	c3.buildAlphabet()
	cands := c3.stringCandidates("a")
	found := false
	for _, v := range cands {
		if v.Str() == "37" {
			found = true
		}
	}
	if !found {
		t.Error(`"37" not among candidates despite str.to_int constraint`)
	}
}

func TestLengthAbstractionDefectHooks(t *testing.T) {
	src := `
(declare-fun a () String)
(declare-fun b () String)
(assert (str.prefixof a b))
(assert (= (str.len a) 1))
(assert (= (str.len b) 3))
`
	// Reference: |a| ≤ |b| holds (1 ≤ 3): sat expected.
	st, _ := checkScript(t, src)
	if st != Sat {
		t.Fatalf("reference: %v", st)
	}
	// Flipped abstraction (|a| ≥ |b|): 1 ≥ 3 is a bogus conflict.
	if st, fired := checkWithDefect(t, src, "th-len-abs-prefix-flip"); st != Unsat || !fired {
		t.Fatalf("flipped abstraction should fire and answer unsat, got %v (fired %t)", st, fired)
	}
}

// checkWithDefect checks src with only the defect id enabled, and
// reports whether its site fired.
func checkWithDefect(t *testing.T, src, id string) (Status, bool) {
	t.Helper()
	s, err := smtlib.ParseScript(src)
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	st, _ := Check(&Problem{
		Lits: s.Asserts(),
		Defect: func(d string) bool {
			fired = fired || d == id
			return d == id
		},
	})
	return st, fired
}

func TestRegexMinLenDefectHook(t *testing.T) {
	src := `
(declare-fun c () String)
(assert (str.in_re c (re.+ (str.to_re "ab"))))
(assert (= (str.len c) 2))
`
	st, _ := checkScript(t, src)
	if st != Sat {
		t.Fatalf("reference: %v", st)
	}
	if st, fired := checkWithDefect(t, src, "th-regex-min-len-strict"); st != Unsat || !fired {
		t.Fatalf("strict min-len should fire and answer unsat, got %v (fired %t)", st, fired)
	}
}

func TestViolatesNeg(t *testing.T) {
	src := `
(declare-fun a () String)
(assert (not (str.in_re a (re.* (str.to_re "x")))))
(assert (= (str.len a) 1))
`
	st, m := checkScript(t, src)
	if st != Sat {
		t.Fatalf("status %v", st)
	}
	if got := m["a"].Str(); got == "x" {
		t.Error("negative membership violated")
	}
}
