package smtlib

import "testing"

// FuzzParsePrintRoundTrip checks that printing is a fixpoint of
// parsing: any input the parser accepts must print to a script that
// re-parses, and the second print must be byte-identical to the first.
// This is the property the reproducer pipeline leans on — bundles store
// printed text and compare replays byte-for-byte.
func FuzzParsePrintRoundTrip(f *testing.F) {
	seeds := []string{
		"(set-logic QF_LIA)\n(declare-fun x () Int)\n(assert (> x 1))\n(check-sat)\n",
		"(set-logic QF_S)\n(declare-fun s () String)\n(assert (str.prefixof s (str.++ s \"ab\")))\n(check-sat)\n",
		"(set-logic QF_NRA)\n(declare-fun a () Real)\n(assert (< (* a a) 0.0))\n(check-sat)\n",
		"(set-logic LIA)\n(declare-fun n () Int)\n(assert (forall ((h Int)) (<= h n)))\n(check-sat)\n",
		"(set-logic QF_LIA)\n(declare-fun p () Bool)\n(declare-fun q () Bool)\n(assert (ite p (and p q) (or (not p) q)))\n(check-sat)\n",
		"(set-logic QF_S)\n(declare-fun s () String)\n(assert (str.in_re s (re.* (str.to_re \"ab\"))))\n(check-sat)\n",
		"(set-logic QF_LRA)\n(declare-fun r () Real)\n(define-fun twice ((v Real)) Real (* 2.0 v))\n(assert (= (twice r) 4.0))\n(check-sat)\n(get-model)\n",
		"(set-logic QF_LIA)\n(declare-fun x () Int)\n(assert (distinct (div x 2) (mod x 2)))\n(check-sat)\n(exit)\n",
		// Numerals at and across the int64 boundary, and decimals whose
		// printing takes the exact-decimal and the (/ p q) forms.
		"(set-logic QF_LIA)\n(declare-fun x () Int)\n(assert (< x 9223372036854775807))\n(check-sat)\n",
		"(set-logic QF_LIA)\n(declare-fun x () Int)\n(assert (> x (- 9223372036854775808)))\n(check-sat)\n",
		"(set-logic QF_NIA)\n(declare-fun x () Int)\n(assert (= (* x 18446744073709551616) 1234567890123456789012345678901234567890))\n(check-sat)\n",
		"(set-logic QF_LRA)\n(declare-fun r () Real)\n(assert (and (< 0.5 r) (< r (+ 0.125 1))))\n(check-sat)\n",
		"(set-logic QF_LRA)\n(declare-fun r () Real)\n(assert (= r 1234567890123.456789012345))\n(check-sat)\n",
		"(set-logic QF_LRA)\n(declare-fun r () Real)\n(assert (= r (/ 1.0 3.0)))\n(check-sat)\n",
		"(set-logic QF_LIA)\n(declare-fun x () Int)\n(assert (= x (- 7)))\n(check-sat)\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		sc, err := ParseScript(src)
		if err != nil {
			return // rejecting garbage is fine; panicking is not
		}
		text := Print(sc)
		sc2, err := ParseScript(text)
		if err != nil {
			t.Fatalf("printed script does not re-parse: %v\n%s", err, text)
		}
		if again := Print(sc2); again != text {
			t.Fatalf("print is not a parse fixpoint:\nfirst:\n%s\nsecond:\n%s", text, again)
		}
	})
}
