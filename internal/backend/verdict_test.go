package backend

import (
	"strings"
	"testing"
)

// TestParseVerdict drives the shared output normalizer through the
// byte streams real solvers and shell plumbing produce: CRLF endings,
// trailing whitespace, comment and banner lines, mixed case, models
// after the verdict, diagnostics before it — plus the garbled and
// partial outputs that must never alias to a verdict.
func TestParseVerdict(t *testing.T) {
	tests := []struct {
		name string
		raw  string
		want Verdict
		ok   bool
	}{
		{"plain sat", "sat\n", Sat, true},
		{"plain unsat", "unsat\n", Unsat, true},
		{"plain unknown", "unknown\n", Unknown, true},
		{"timeout token", "timeout\n", Timeout, true},
		{"no trailing newline", "unsat", Unsat, true},
		{"crlf", "sat\r\n", Sat, true},
		{"upper case crlf", "UNSAT\r\n", Unsat, true},
		{"mixed case", "Sat\n", Sat, true},
		{"leading and trailing spaces", "   unsat   \n", Unsat, true},
		{"tab padding", "\tsat\t\n", Sat, true},
		{"comment lines before verdict", "; banner\n;; warming up\nunsat\n", Unsat, true},
		{"comment-only prefix crlf", "; fakesolver v1.0\r\n  SAT  \r\n(model)\r\n", Sat, true},
		{"diagnostics before verdict", "(error \"unbound symbol\")\nunsat\n", Unsat, true},
		{"model after verdict", "sat\n(\n  (define-fun x () Int 3)\n)\n", Sat, true},
		{"blank lines", "\n\n\nsat\n", Sat, true},

		{"empty", "", Unknown, false},
		{"whitespace only", "  \r\n\t\n", Unknown, false},
		{"comment only", "; nothing to see\n", Unknown, false},
		{"truncated token", "uns", Unknown, false},
		{"prose is not a verdict", "unsatisfiable\n", Unknown, false},
		{"superstring", "satisfied\n", Unknown, false},
		{"garbage", "segmentation fault dumped core\n", Unknown, false},
		{"token inside sentence", "the answer is sat today\n", Unknown, false},
		{"kelvin sign is not k", "UN\u212aNOWN\n", Unknown, false},
		{"unicode space is not trimmed", " unsat\u0085\n", Unknown, false},
		{"no-break space is not trimmed", "\u00a0sat\n", Unknown, false},
		{"vertical tab and form feed trimmed", "\v\fsat\f\n", Sat, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := ParseVerdict(tc.raw)
			if ok != tc.ok {
				t.Fatalf("ParseVerdict(%q) ok = %v, want %v", tc.raw, ok, tc.ok)
			}
			if ok && got != tc.want {
				t.Fatalf("ParseVerdict(%q) = %v, want %v", tc.raw, got, tc.want)
			}
		})
	}
}

func TestVerdictStrings(t *testing.T) {
	pairs := map[Verdict]string{
		Sat: "sat", Unsat: "unsat", Unknown: "unknown", Timeout: "timeout",
		Crash: "crash", Garbled: "garbled", Fault: "fault", Quarantined: "quarantined",
	}
	for v, want := range pairs {
		if v.String() != want {
			t.Errorf("Verdict(%d).String() = %q, want %q", int(v), v.String(), want)
		}
	}
	if !Sat.Definite() || !Unsat.Definite() {
		t.Error("sat/unsat must be definite")
	}
	if Unknown.Definite() || Timeout.Definite() || Crash.Definite() || Garbled.Definite() {
		t.Error("only sat/unsat are definite")
	}
}

// FuzzParseVerdict checks ParseVerdict against an independent oracle on
// arbitrary bytes: the output has a verdict exactly when some line that
// is not a ';' comment, trimmed of ASCII space, tab, CR, VT and FF,
// byte-equals a verdict token after ASCII lower-casing — and the first
// such line names it. ParseVerdict must never panic.
func FuzzParseVerdict(f *testing.F) {
	for _, seed := range []string{
		"sat\n", "UNSAT\r\n", "; c\n(error)\n  Unknown \n", "timeout", "uns",
		"UN\u212aNOWN\n", " unsat\u0085\n", "\u00a0sat\n", "\v\fsat\f\n", "",
	} {
		f.Add([]byte(seed))
	}
	tokens := map[string]Verdict{"sat": Sat, "unsat": Unsat, "unknown": Unknown, "timeout": Timeout}
	f.Fuzz(func(t *testing.T, raw []byte) {
		want, wantOK := Unknown, false
		for _, line := range strings.Split(string(raw), "\n") {
			line = trimASCII(line)
			if line == "" || line[0] == ';' {
				continue
			}
			lower := []byte(line)
			for i, c := range lower {
				if 'A' <= c && c <= 'Z' {
					lower[i] = c + 32
				}
			}
			if v, ok := tokens[string(lower)]; ok {
				want, wantOK = v, true
				break
			}
		}
		got, ok := ParseVerdict(string(raw))
		if ok != wantOK || (ok && got != want) {
			t.Fatalf("ParseVerdict(%q) = %v, %v; oracle %v, %v", raw, got, ok, want, wantOK)
		}
	})
}

// trimASCII strips space, tab, CR, VT and FF from both ends of s.
func trimASCII(s string) string {
	isSpace := func(c byte) bool {
		return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f'
	}
	for len(s) > 0 && isSpace(s[0]) {
		s = s[1:]
	}
	for len(s) > 0 && isSpace(s[len(s)-1]) {
		s = s[:len(s)-1]
	}
	return s
}
