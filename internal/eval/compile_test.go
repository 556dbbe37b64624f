package eval_test

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/smtlib"
)

// compiledSeeds add the arithmetic corners of the compiled path to
// evalSeeds: the fixed division-by-zero conventions on non-ground
// operands, values that leave the int64 range, and string operations
// on non-empty operands.
var compiledSeeds = []string{
	"(set-logic QF_LIA)\n(declare-fun x () Int)\n(assert (= (div (+ x 7) 0) (mod (- x 7) 0) (div (- x 7) 2) (mod (- x 7) 2) (div (- x 7) (- 2)) (mod (- x 7) (- 2))))\n(check-sat)\n",
	"(set-logic QF_LRA)\n(declare-fun a () Real)\n(assert (= (/ (+ a 1.5) 0.0) (/ a 0.0 2.0)))\n(check-sat)\n",
	"(set-logic QF_LIA)\n(declare-fun x () Int)\n(assert (> (* (+ x 9223372036854775807) 9223372036854775807) (div (- x 9223372036854775807 9) 2) (mod (- x 9223372036854775807 9) 10)))\n(check-sat)\n",
	"(set-logic QF_NRA)\n(declare-fun a () Real)\n(assert (is_int (to_real (to_int (/ (+ a 9223372036854775807.0) 0.5)))))\n(check-sat)\n",
	"(set-logic QF_SLIA)\n(declare-fun s () String)\n(declare-fun x () Int)\n(assert (= (str.to_int (str.++ s \"99999999999999999999\")) (+ x (str.len (str.from_int (* (+ x 9223372036854775807) 4))))))\n(check-sat)\n",
	"(set-logic QF_SLIA)\n(declare-fun s () String)\n(declare-fun x () Int)\n(assert (= (str.at s (+ x 9223372036854775807 1)) (str.substr s (- x 1) (+ x 9223372036854775807 5)) (str.replace_all s \"\" s)))\n(check-sat)\n",
	"(set-logic QF_SLIA)\n(declare-fun s () String)\n(declare-fun x () Int)\n(assert (= (str.substr (str.++ s \"abcdef\") (+ x 1) (+ x 2)) (str.at (str.++ \"xbc\" s) (+ x 1)) (str.replace (str.++ s \"abab\") \"b\" s) (str.replace_all (str.++ s \"abab\") \"b\" s) (str.from_int (str.indexof (str.++ s \"abab\") \"ba\" (+ x 1)))))\n(check-sat)\n",
	"(set-logic QF_S)\n(declare-fun s () String)\n(declare-fun t () String)\n(assert (=> (str.< s t) (str.<= t s) (str.in_re (str.++ s t) (re.++ (str.to_re s) (re.* (re.range t \"z\"))))))\n(check-sat)\n",
	// RegLan leaves: a multi-character re.range bound, a variable
	// bound, and str.to_re of a ground compound string.
	"(set-logic QF_S)\n(declare-fun s () String)\n(declare-fun t () String)\n(assert (or (str.in_re s (re.range \"ab\" \"z\")) (str.in_re s (re.+ (re.range \"a\" (str.++ t \"z\")))) (str.in_re s (re.range (str.at t 0) \"m\")) (str.in_re (str.++ s t) (re.* (str.to_re (str.++ \"a\" \"b\"))))))\n(check-sat)\n",
	// re.diff and re.comp, ground and over a variable.
	"(set-logic QF_S)\n(declare-fun s () String)\n(declare-fun t () String)\n(assert (and (str.in_re s (re.diff (re.* re.allchar) (re.comp (str.to_re t)))) (str.in_re t (re.comp (re.diff re.all (re.range \"a\" \"c\")))) (str.in_re s (re.inter (re.opt (str.to_re t)) (re.union re.none (re.comp (str.to_re s)) (re.range \"a\" \"b\"))))))\n(check-sat)\n",
	// In-place consumers: str.++ under =, str.prefixof, str.suffixof,
	// str.contains and str.len, on either side and nested, with
	// ite/str.substr/str.replace arguments. s is declared first, so
	// salt 1 leaves a variable inside every concat unbound.
	"(set-logic QF_S)\n(declare-fun s () String)\n(declare-fun t () String)\n(assert (and (= (str.++ s \"a\" (str.++ t s)) (str.++ t s)) (= \"0aba\" (str.++ s t)) (= t (str.++ (str.++ s t) s)) (= (str.++ s t) \"ab\" (str.++ t s)) (distinct (str.++ s t) (str.++ t s))))\n(check-sat)\n",
	"(set-logic QF_S)\n(declare-fun s () String)\n(declare-fun t () String)\n(assert (or (str.prefixof (str.++ s \"a\") (str.++ t s \"a\")) (str.prefixof s (str.++ s t)) (str.suffixof (str.++ t \"b\") t) (str.suffixof s (str.++ t s)) (str.contains (str.++ s t) (str.++ t \"b\")) (str.contains t (str.++ s s)) (str.contains (str.++ t (str.++ s t)) s)))\n(check-sat)\n",
	"(set-logic QF_SLIA)\n(declare-fun s () String)\n(declare-fun t () String)\n(declare-fun x () Int)\n(assert (and (= (str.len (str.++ s (str.++ t \"ab\"))) (+ x 3)) (= (str.++ (ite (= x 0) s t) (str.substr s 0 x) (str.replace t s \"a\")) (str.++ t s)) (str.prefixof (str.++ (str.at t x) s) (str.replace_all (str.++ s t) \"a\" t)) (> (str.len (str.++ (ite (> x 1) (str.++ s t) t) s)) x)))\n(check-sat)\n",
	// A ground regex matched by one Matcher across evaluations.
	"(set-logic QF_S)\n(declare-fun s () String)\n(declare-fun t () String)\n(assert (and (str.in_re (str.++ s t) (re.* (re.union (str.to_re \"ab\") (re.range \"0\" \"9\")))) (str.in_re t (re.comp (re.++ (str.to_re \"1\") re.all)))))\n(check-sat)\n",
}

// FuzzCompiledMatchesTerm checks the compiled evaluator against the
// reference interpreter. For every assert and every subterm, under the
// same three model salts as FuzzEvalTotal (well-formed, unbound,
// wrong-sort), each run with default and with varied values,
// Compile(t).Eval on the frame must return a value equal
// to eval.Term's on the model, or an error with the same
// sentinel cause and Path; Bool must agree with eval.Bool likewise. The
// compiled fast path itself must never answer where Term fails or
// differ where it answers, and on a well-formed model of a
// quantifier-free term it must answer whenever Term succeeds, so the
// reference fallback is reached only by terms Term rejects.
func FuzzCompiledMatchesTerm(f *testing.F) {
	for _, s := range append(evalSeeds, compiledSeeds...) {
		for salt := byte(0); salt < 3; salt++ {
			f.Add(s, salt)
		}
	}
	for _, c := range committedCorpus(f, "FuzzEvalTotal") {
		f.Add(c.src, c.salt)
	}
	f.Fuzz(func(t *testing.T, src string, salt byte) {
		sc, err := smtlib.ParseScript(src)
		if err != nil {
			return
		}
		// Each program runs under the salted model, the one with bit 2
		// flipped, and the first again, so scratch state a program
		// carries from one evaluation into the next shows.
		m, other := saltedModel(sc, salt), saltedModel(sc, salt^4)
		for _, a := range sc.Asserts() {
			ast.Walk(a, func(s ast.Term) bool {
				checkCompiled(t, s, []eval.Model{m, other, m}, salt&3 == 0)
				return true
			})
		}
	})
}

// checkCompiled compiles s once and runs the program under each model
// in turn, checking every run against Term.
func checkCompiled(t *testing.T, s ast.Term, models []eval.Model, wellFormed bool) {
	t.Helper()
	vars := ast.FreeVars(s)
	p := eval.Compile(s)
	for _, m := range models {
		// A frame in reverse variable order, so slots is not the identity.
		frame := make([]eval.Val, len(vars))
		slots := make([]int, len(vars))
		for j, v := range vars {
			slots[j] = len(vars) - 1 - j
			if val, ok := m[v.Name]; ok {
				frame[slots[j]] = val
			}
		}
		want, wantErr := eval.Term(s, m)
		got, gotErr := p.Eval(frame, slots)
		sameOutcome(t, ast.Print(s), got, gotErr, want, wantErr)

		fast, ok := p.Fast(frame, slots)
		switch {
		case ok && (wantErr != nil || !fast.Equal(want)):
			t.Fatalf("%s: fast path answered %v, Term %v (%v)", ast.Print(s), fast, want, wantErr)
		case !ok && wantErr == nil && wellFormed && !ast.HasQuantifier(s):
			t.Fatalf("%s: fast path gave up where Term answers %v", ast.Print(s), want)
		}

		if s.Sort() == ast.SortBool {
			wantB, wantErr := eval.Bool(s, m)
			gotB, gotErr := p.Bool(frame, slots)
			sameOutcome(t, ast.Print(s), eval.BoolVal(gotB), gotErr, eval.BoolVal(wantB), wantErr)
		}
	}
}

// sameOutcome fails unless got and want are equal values, or errors
// with the same sentinel cause and Path.
func sameOutcome(t *testing.T, what string, got eval.Val, gotErr error, want eval.Val, wantErr error) {
	t.Helper()
	if wantErr != nil {
		var we, ge *eval.Error
		if !errors.As(wantErr, &we) || !errors.As(gotErr, &ge) || ge.Err != we.Err || ge.Path != we.Path {
			t.Fatalf("%s: compiled error %v, Term error %v", what, gotErr, wantErr)
		}
		return
	}
	if gotErr != nil || got.Sort() == ast.SortInvalid || !got.Equal(want) {
		t.Fatalf("%s: compiled %v (%v), Term %v", what, got, gotErr, want)
	}
}

type corpusEntry struct {
	src  string
	salt byte
}

// committedCorpus reads another fuzz target's committed corpus of
// (string, byte) inputs from testdata/fuzz.
func committedCorpus(tb testing.TB, target string) []corpusEntry {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
	if err != nil {
		tb.Fatal(err)
	}
	var out []corpusEntry
	for _, name := range files {
		data, err := os.ReadFile(name)
		if err != nil {
			tb.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if len(lines) != 3 {
			tb.Fatalf("%s: want a version line and two values", name)
		}
		src, err1 := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "string("), ")"))
		salt, err2 := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[2], "byte("), ")"))
		if err1 != nil || err2 != nil || len(salt) != 1 {
			tb.Fatalf("%s: unreadable corpus entry", name)
		}
		out = append(out, corpusEntry{src, salt[0]})
	}
	if len(out) == 0 {
		tb.Fatalf("no committed corpus for %s", target)
	}
	return out
}
