package ast

import (
	"bytes"
	"fmt"
	"math/big"
	"math/bits"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/rat"
)

// Print returns the canonical SMT-LIB rendering of the term. The output
// parses back to a structurally equal term (given matching declarations),
// which also makes it usable as a structural hash key.
func Print(t Term) string {
	var b strings.Builder
	printTerm(&b, t)
	return b.String()
}

func printTerm(b *strings.Builder, t Term) {
	switch n := t.(type) {
	case *Var:
		b.WriteString(n.Name)
	case *BoolLit:
		if n.V {
			b.WriteString("true")
		} else {
			b.WriteString("false")
		}
	case *IntLit:
		printNum(b, n.V, false)
	case *RealLit:
		printNum(b, n.V, true)
	case *StrLit:
		printStringLit(b, n.V)
	case *App:
		if len(n.Args) == 0 {
			b.WriteString(n.Op.String())
			return
		}
		b.WriteByte('(')
		b.WriteString(n.Op.String())
		for _, a := range n.Args {
			b.WriteByte(' ')
			printTerm(b, a)
		}
		b.WriteByte(')')
	case *Quant:
		if n.Forall {
			b.WriteString("(forall (")
		} else {
			b.WriteString("(exists (")
		}
		for i, sv := range n.Bound {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteByte('(')
			b.WriteString(sv.Name)
			b.WriteByte(' ')
			b.WriteString(sv.Sort.String())
			b.WriteByte(')')
		}
		b.WriteString(") ")
		printTerm(b, n.Body)
		b.WriteByte(')')
	default:
		panic(fmt.Sprintf("ast: unknown term type %T", t))
	}
}

// printNum writes a numeric literal: a negative value as (- |v|), an
// Int in decimal, a Real integer with ".0", a Real whose denominator is
// 2^a·5^b as its exact decimal, and any other Real as (/ p.0 q.0).
// Inline values render through strconv into a stack buffer.
func printNum(b *strings.Builder, v rat.Rat, real bool) {
	var buf [48]byte
	s := v.Append(buf[:0]) // "[-]n" or "[-]n/d"
	neg := s[0] == '-'
	if neg {
		b.WriteString("(- ")
		s = s[1:]
	}
	num, den, frac := bytes.Cut(s, []byte{'/'})
	switch {
	case !real:
		b.Write(num)
	case !frac:
		b.Write(num)
		b.WriteString(".0")
	case !writeDecimal(b, v):
		b.WriteString("(/ ")
		b.Write(num)
		b.WriteString(".0 ")
		b.Write(den)
		b.WriteString(".0)")
	}
	if neg {
		b.WriteByte(')')
	}
}

// writeDecimal writes |v|, which is not an integer, as a finite
// decimal if its denominator is 2^a·5^b with a+b ≤ 64, and reports
// whether it did. An inline value is expanded by long division.
func writeDecimal(b *strings.Builder, v rat.Rat) bool {
	n, d, ok := v.Inline()
	if !ok {
		r := v.Big()
		dec, ok := exactDecimal(r.Abs(r)) // dec is "" when !ok
		b.WriteString(dec)
		return ok
	}
	den := uint64(d)
	twos := bits.TrailingZeros64(den)
	odd, fives := den>>twos, 0
	for odd%5 == 0 {
		odd /= 5
		fives++
	}
	if odd != 1 {
		return false
	}
	if n < 0 {
		n = -n
	}
	var buf [20]byte
	b.Write(strconv.AppendUint(buf[:0], uint64(n)/den, 10))
	b.WriteByte('.')
	// 10·rem < 10·den fits 128 bits with a high word below den.
	for i, rem := 0, uint64(n)%den; i < max(twos, fives); i++ {
		hi, lo := bits.Mul64(rem, 10)
		var q uint64
		q, rem = bits.Div64(hi, lo, den)
		b.WriteByte(byte('0' + q))
	}
	return true
}

// exactDecimal renders a positive non-integer rational as a finite
// decimal if its denominator is 2^a·5^b with a+b ≤ 64: if the odd part
// of the denominator is a power of five, "10…0" in base 5.
func exactDecimal(v *big.Rat) (string, bool) {
	twos, odd := int(v.Denom().TrailingZeroBits()), v.Denom()
	if twos > 0 {
		odd = new(big.Int).Rsh(odd, uint(twos))
	}
	// 2^64 ≡ 1 (mod 5), so odd ≡ Σ words (mod 5): a denominator with
	// a prime factor other than 2 and 5 is most often rejected here
	// without allocating.
	var m big.Word
	for _, w := range odd.Bits() {
		m += w % 5
	}
	if m%5 != 0 && odd.BitLen() > 1 {
		return "", false
	}
	var buf [64]byte
	fives := odd.Append(buf[:0], 5)
	if string(bytes.TrimRight(fives, "0")) != "1" || twos+len(fives)-1 > 64 {
		return "", false
	}
	digits := max(twos, len(fives)-1)
	scaled := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(digits)), nil)
	s := scaled.Mul(scaled, v.Num()).Quo(scaled, v.Denom()).String()
	s = strings.Repeat("0", max(0, digits+1-len(s))) + s
	return s[:len(s)-digits] + "." + s[len(s)-digits:], true
}

func printStringLit(b *strings.Builder, s string) {
	b.WriteByte('"')
	for i := 0; i < len(s); {
		r, size := utf8.DecodeRuneInString(s[i:])
		// Invalid UTF-8 bytes and runes beyond SMT-LIB's \u{} range
		// (2.6 caps escapes at 0x2FFFF) are escaped byte by byte.
		// Re-parsing such an escape yields the rune with that value —
		// normalizing the string — and printing the result reproduces
		// the same escape, so printing stays a parse fixpoint.
		if (r == utf8.RuneError && size == 1) || r > 0x2FFFF {
			for j := 0; j < size; j++ {
				writeEscape(b, rune(s[i+j]))
			}
			i += size
			continue
		}
		switch {
		case r == '"':
			b.WriteString(`""`)
		case r == '\\':
			// The parser also reads the legacy escapes \\ \n \t \" and
			// \u{…}: a bare backslash before one of those would re-parse
			// as an escape, so it is always written as one.
			writeEscape(b, r)
		case r >= 0x20 && r < 0x7f:
			b.WriteByte(byte(r))
		default:
			writeEscape(b, r)
		}
		i += size
	}
	b.WriteByte('"')
}

// Equal reports structural equality of two terms. Numeric literals
// compare by value; bound-variable names compare literally (terms are
// produced by shared constructors, so alpha-variant trees are compared
// as distinct, which is the behaviour dedup and caching want).
//
// Two terms of one table chain make this a pointer comparison; the
// structural walk below only runs for terms of different chains (or
// forged outside a table), and short-circuits on the cached structural
// hash.
func Equal(a, b Term) bool {
	if a == b {
		return true
	}
	if Hash(a) != Hash(b) {
		return false
	}
	switch x := a.(type) {
	case *Var:
		y, ok := b.(*Var)
		return ok && x.Name == y.Name && x.VSort == y.VSort
	case *BoolLit:
		y, ok := b.(*BoolLit)
		return ok && x.V == y.V
	case *IntLit:
		y, ok := b.(*IntLit)
		return ok && x.V.Cmp(y.V) == 0
	case *RealLit:
		y, ok := b.(*RealLit)
		return ok && x.V.Cmp(y.V) == 0
	case *StrLit:
		y, ok := b.(*StrLit)
		return ok && x.V == y.V
	case *App:
		y, ok := b.(*App)
		if !ok || x.Op != y.Op || len(x.Args) != len(y.Args) {
			return false
		}
		for i := range x.Args {
			if !Equal(x.Args[i], y.Args[i]) {
				return false
			}
		}
		return true
	case *Quant:
		y, ok := b.(*Quant)
		if !ok || x.Forall != y.Forall || len(x.Bound) != len(y.Bound) {
			return false
		}
		for i := range x.Bound {
			if x.Bound[i] != y.Bound[i] {
				return false
			}
		}
		return Equal(x.Body, y.Body)
	default:
		return false
	}
}

// writeEscape writes r as an SMT-LIB 2.6 \u{…} escape.
func writeEscape(b *strings.Builder, r rune) {
	b.WriteString(`\u{`)
	b.WriteString(strconv.FormatInt(int64(r), 16))
	b.WriteByte('}')
}
