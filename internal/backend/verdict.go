package backend

import "strings"

// ParseVerdict scans raw solver output for a verdict token. The
// normalization is deliberately forgiving about everything real solvers
// and shell plumbing do to the byte stream — CRLF line endings,
// trailing whitespace, banner/diagnostic lines, `;` comment lines,
// and any letter case — while staying strict about the token itself:
// a line must read exactly sat, unsat, unknown, or timeout after
// trimming, so truncated output ("uns") and prose ("unsatisfiable")
// never alias to a verdict. Trimming and case folding are ASCII-only:
// Unicode rules would let the Kelvin sign (U+212A) fold to "k" and
// strip U+0085 or U+00A0 as space, aliasing non-ASCII lines to tokens.
//
// Lines that are neither comments nor verdict tokens are skipped: real
// solvers interleave `(error ...)` diagnostics before the verdict and
// models after it. Output with no verdict token on any line parses to
// (0, false) and is classified garbled by the caller.
func ParseVerdict(raw string) (Verdict, bool) {
	for len(raw) > 0 {
		line := raw
		if i := strings.IndexByte(raw, '\n'); i >= 0 {
			line, raw = raw[:i], raw[i+1:]
		} else {
			raw = ""
		}
		line = strings.Trim(line, asciiSpace) // eats the \r of CRLF endings too
		if line == "" || line[0] == ';' {
			continue
		}
		for _, tok := range verdictTokens {
			if asciiFoldEqual(line, tok.text) {
				return tok.v, true
			}
		}
	}
	return Unknown, false
}

// asciiSpace is the whitespace ParseVerdict trims from a line.
const asciiSpace = " \t\r\v\f"

var verdictTokens = []struct {
	text string
	v    Verdict
}{{"sat", Sat}, {"unsat", Unsat}, {"unknown", Unknown}, {"timeout", Timeout}}

// asciiFoldEqual reports whether s equals the lower-case ASCII token
// tok under ASCII case folding only.
func asciiFoldEqual(s, tok string) bool {
	if len(s) != len(tok) {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != tok[i] {
			return false
		}
	}
	return true
}
