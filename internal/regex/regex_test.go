package regex

import (
	"math/rand"
	"strings"
	"testing"
)

func TestMatchBasics(t *testing.T) {
	cases := []struct {
		r    Regex
		yes  []string
		no   []string
		name string
	}{
		{Lit("abc"), []string{"abc"}, []string{"", "ab", "abcd", "abd"}, "lit"},
		{Star(Lit("aa")), []string{"", "aa", "aaaa", "aaaaaa"}, []string{"a", "aaa", "ab"}, "star"},
		{Plus(Lit("ab")), []string{"ab", "abab"}, []string{"", "a", "aba"}, "plus"},
		{Opt(Lit("x")), []string{"", "x"}, []string{"xx", "y"}, "opt"},
		{Union(Lit("cat"), Lit("dog")), []string{"cat", "dog"}, []string{"", "catdog", "cow"}, "union"},
		{Concat(Lit("a"), Star(Lit("b")), Lit("c")), []string{"ac", "abc", "abbbc"}, []string{"a", "c", "abcb"}, "concat"},
		{Range('a', 'z'), []string{"a", "m", "z"}, []string{"", "A", "aa", "{"}, "range"},
		{AnyChar(), []string{"a", "!", "~"}, []string{"", "ab"}, "anychar"},
		{All(), []string{"", "anything at all"}, nil, "all"},
		{None(), nil, []string{"", "a"}, "none"},
		{Inter(Star(Lit("a")), Concat(AnyChar(), AnyChar())), []string{"aa"}, []string{"", "a", "aaa"}, "inter"},
		{Comp(Lit("no")), []string{"", "yes", "n", "noo"}, []string{"no"}, "comp"},
		{Diff(Star(Lit("a")), Eps()), []string{"a", "aa"}, []string{""}, "diff"},
	}
	for _, c := range cases {
		for _, s := range c.yes {
			if !Match(c.r, s) {
				t.Errorf("%s: %q should match %s", c.name, s, Key(c.r))
			}
		}
		for _, s := range c.no {
			if Match(c.r, s) {
				t.Errorf("%s: %q should not match %s", c.name, s, Key(c.r))
			}
		}
	}
}

func TestNullable(t *testing.T) {
	if Nullable(Lit("a")) || !Nullable(Lit("")) || !Nullable(Eps()) || Nullable(None()) {
		t.Error("basic nullability wrong")
	}
	if !Nullable(Star(Lit("a"))) || Nullable(Plus(Lit("a"))) || !Nullable(Opt(Lit("a"))) {
		t.Error("closure nullability wrong")
	}
	if !Nullable(Comp(Lit("a"))) || Nullable(Comp(Eps())) {
		t.Error("complement nullability wrong")
	}
}

func TestIsEmpty(t *testing.T) {
	empties := []Regex{
		None(),
		Inter(Lit("a"), Lit("b")),
		Inter(Star(Lit("aa")), Lit("a")),
		Diff(Lit("x"), Lit("x")),
		Concat(Lit("a"), None()),
		Range('z', 'a'),
	}
	for _, r := range empties {
		if !IsEmpty(r) {
			t.Errorf("IsEmpty(%s) should be true", Key(r))
		}
	}
	nonEmpties := []Regex{
		Eps(), Lit("a"), Star(None()),
		Inter(Star(Lit("a")), Plus(Lit("a"))),
		Comp(All()), // = none... actually Comp(All()) normalizes to None
	}
	// Comp(All()) normalizes to None; drop it from the non-empty list.
	nonEmpties = nonEmpties[:len(nonEmpties)-1]
	for _, r := range nonEmpties {
		if IsEmpty(r) {
			t.Errorf("IsEmpty(%s) should be false", Key(r))
		}
	}
}

func TestNormalization(t *testing.T) {
	if Key(Union(Lit("a"), Lit("a"))) != Key(Lit("a")) {
		t.Error("duplicate union not collapsed")
	}
	if Key(Union(Lit("b"), Lit("a"))) != Key(Union(Lit("a"), Lit("b"))) {
		t.Error("union not canonically ordered")
	}
	if Key(Star(Star(Lit("a")))) != Key(Star(Lit("a"))) {
		t.Error("nested star not collapsed")
	}
	if Key(Concat(Lit("a"), Eps(), Lit("b"))) != Key(Concat(Lit("a"), Lit("b"))) {
		t.Error("eps in concat not dropped")
	}
	if Key(Comp(Comp(Lit("a")))) != Key(Lit("a")) {
		t.Error("double complement not collapsed")
	}
	if _, isNone := Concat(Lit("a"), None()).(none); !isNone {
		t.Error("concat with none should be none")
	}
}

func TestMinMaxLen(t *testing.T) {
	cases := []struct {
		r        Regex
		min      int
		max      int
		bounded  bool
		nonEmpty bool
	}{
		{Lit("abc"), 3, 3, true, true},
		{Star(Lit("ab")), 0, 0, false, true},
		{Union(Lit("a"), Lit("bcd")), 1, 3, true, true},
		{Concat(Lit("a"), Opt(Lit("bb"))), 1, 3, true, true},
		{None(), 0, 0, false, false},
		{Eps(), 0, 0, true, true},
		{Plus(Lit("xy")), 2, 0, false, true},
	}
	for _, c := range cases {
		min, ok := MinLen(c.r)
		if ok != c.nonEmpty {
			t.Errorf("MinLen(%s) ok=%v want %v", Key(c.r), ok, c.nonEmpty)
			continue
		}
		if ok && min != c.min {
			t.Errorf("MinLen(%s) = %d want %d", Key(c.r), min, c.min)
		}
		max, bounded := MaxLen(c.r)
		if bounded != c.bounded {
			t.Errorf("MaxLen(%s) bounded=%v want %v", Key(c.r), bounded, c.bounded)
			continue
		}
		if bounded && max != c.max {
			t.Errorf("MaxLen(%s) = %d want %d", Key(c.r), max, c.max)
		}
	}
}

func TestEnumerate(t *testing.T) {
	got := Enumerate(Star(Lit("ab")), 6, 10)
	want := []string{"", "ab", "abab", "ababab"}
	if len(got) != len(want) {
		t.Fatalf("Enumerate = %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Enumerate = %v want %v", got, want)
		}
	}
	// Every enumerated member actually matches.
	r := Union(Plus(Lit("a")), Concat(Lit("b"), Star(Range('0', '9'))))
	for _, s := range Enumerate(r, 5, 50) {
		if !Match(r, s) {
			t.Errorf("enumerated non-member %q", s)
		}
	}
}

func TestMatcherMemoizationEquivalence(t *testing.T) {
	r := Inter(Star(Union(Lit("a"), Lit("bb"))), Comp(Lit("abb")))
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		n := rng.Intn(8)
		var b strings.Builder
		for j := 0; j < n; j++ {
			b.WriteByte("ab"[rng.Intn(2)])
		}
		s := b.String()
		m1 := NewMatcher(r)
		m2 := NewMatcher(r)
		m2.Memoize = false
		if m1.Match(s) != m2.Match(s) {
			t.Fatalf("memoized and plain matcher disagree on %q", s)
		}
	}
}

// TestDerivativePumping cross-checks the derivative matcher against a
// direct structural matcher on random small strings — a property test of
// the engine's core invariant.
func TestDerivativePumping(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	regexes := []Regex{
		Star(Lit("aa")),
		Concat(Star(Lit("a")), Lit("b")),
		Union(Star(Lit("ab")), Plus(Lit("ba"))),
		Inter(Star(AnyChar()), Comp(Concat(Lit("a"), Star(AnyChar())))),
	}
	// Reference: w ∈ L(r) iff deriving by each byte ends nullable —
	// but implemented with fresh matchers per prefix split to exercise
	// concat distribution.
	for _, r := range regexes {
		for i := 0; i < 100; i++ {
			n := rng.Intn(6)
			var b strings.Builder
			for j := 0; j < n; j++ {
				b.WriteByte("ab"[rng.Intn(2)])
			}
			s := b.String()
			direct := Match(r, s)
			// Split matching: s ∈ L(r) iff "" ∈ L(d_s(r)).
			cur := r
			for k := 0; k < len(s); k++ {
				cur = Derive(cur, s[k])
			}
			if Nullable(cur) != direct {
				t.Fatalf("split/direct mismatch on %q for %s", s, Key(r))
			}
		}
	}
}
