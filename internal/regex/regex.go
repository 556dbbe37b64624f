// Package regex implements the SMT-LIB regular-language operations used
// by the string logics (QF_S, QF_SLIA): membership via memoized
// Brzozowski derivatives, emptiness, length bounds, and bounded language
// enumeration. Expressions are normalized by smart constructors so the
// derivative closure stays finite even with complement and intersection.
package regex

import (
	"sort"
	"strconv"
	"strings"
)

// Regex is a regular-language expression over byte strings. (The string
// fragments this system generates and fuses are ASCII; the engine
// operates byte-wise, which keeps derivatives simple and exact for that
// fragment.)
type Regex interface {
	// key returns a canonical form used for memoization and
	// normalization. Structurally equal expressions share a key.
	key() string
}

type (
	// none is the empty language (re.none).
	none struct{}
	// eps is the language containing only the empty string.
	eps struct{}
	// lit matches exactly one literal string (str.to_re "...").
	lit struct {
		keyed
		s string
	}
	// rng matches a single byte in [lo, hi] (re.range).
	rng struct {
		keyed
		lo, hi byte
	}
	// anyChar matches any single byte (re.allchar).
	anyChar struct{}
	// star is Kleene iteration (re.*).
	star struct {
		keyed
		r Regex
	}
	// concat is sequential composition (re.++).
	concat struct {
		keyed
		rs []Regex
	}
	// union is alternation (re.union).
	union struct {
		keyed
		rs []Regex
	}
	// inter is intersection (re.inter).
	inter struct {
		keyed
		rs []Regex
	}
	// comp is complement (re.comp).
	comp struct {
		keyed
		r Regex
	}
)

// keyed holds a compound node's key. Its constructor builds the key
// once, from the keys of its operands, so key() costs O(1) however
// often derivatives, sorts and memos ask for it.
type keyed struct{ k string }

func (n keyed) key() string { return n.k }

func (none) key() string    { return "∅" }
func (eps) key() string     { return "ε" }
func (anyChar) key() string { return "." }

// joinKeys renders an n-ary node's key: its operands' keys joined by
// sep, in parentheses.
func joinKeys(rs []Regex, sep string) string {
	var b strings.Builder
	b.WriteByte('(')
	for i, r := range rs {
		if i > 0 {
			b.WriteString(sep)
		}
		b.WriteString(r.key())
	}
	b.WriteByte(')')
	return b.String()
}

// Constructors (normalizing).

// None returns the empty language.
func None() Regex { return none{} }

// Eps returns the language {""}.
func Eps() Regex { return eps{} }

// Lit returns the language {s}.
func Lit(s string) Regex {
	if s == "" {
		return eps{}
	}
	return lit{keyed{"L" + strconv.Quote(s)}, s}
}

// Range returns the single-byte range language [lo, hi]; empty if lo>hi.
func Range(lo, hi byte) Regex {
	if lo > hi {
		return none{}
	}
	return rng{keyed{"R" + strconv.Itoa(int(lo)) + "-" + strconv.Itoa(int(hi))}, lo, hi}
}

// AnyChar returns the language of all single-byte strings.
func AnyChar() Regex { return anyChar{} }

// All returns the language of all strings (re.all).
func All() Regex { return Star(AnyChar()) }

// Star returns the Kleene closure of r.
func Star(r Regex) Regex {
	switch r.(type) {
	case none, eps:
		return eps{}
	case star:
		return r
	}
	return star{keyed{"(" + r.key() + ")*"}, r}
}

// Plus returns one-or-more iterations of r.
func Plus(r Regex) Regex { return Concat(r, Star(r)) }

// Opt returns r or the empty string.
func Opt(r Regex) Regex { return Union(r, Eps()) }

// Concat returns the sequential composition of rs.
func Concat(rs ...Regex) Regex {
	var flat []Regex
	for _, r := range rs {
		switch n := r.(type) {
		case none:
			return none{}
		case eps:
			// identity
		case concat:
			flat = append(flat, n.rs...)
		default:
			flat = append(flat, r)
		}
	}
	switch len(flat) {
	case 0:
		return eps{}
	case 1:
		return flat[0]
	}
	return concat{keyed{joinKeys(flat, "·")}, flat}
}

// Union returns the alternation of rs.
func Union(rs ...Regex) Regex {
	seen := map[string]bool{}
	var flat []Regex
	for _, r := range rs {
		switch n := r.(type) {
		case none:
			// identity
		case union:
			for _, s := range n.rs {
				if !seen[s.key()] {
					seen[s.key()] = true
					flat = append(flat, s)
				}
			}
		default:
			if !seen[r.key()] {
				seen[r.key()] = true
				flat = append(flat, r)
			}
		}
	}
	switch len(flat) {
	case 0:
		return none{}
	case 1:
		return flat[0]
	}
	sort.Slice(flat, func(i, j int) bool { return flat[i].key() < flat[j].key() })
	return union{keyed{joinKeys(flat, "|")}, flat}
}

// Inter returns the intersection of rs.
func Inter(rs ...Regex) Regex {
	seen := map[string]bool{}
	var flat []Regex
	for _, r := range rs {
		switch n := r.(type) {
		case none:
			return none{}
		case inter:
			for _, s := range n.rs {
				if !seen[s.key()] {
					seen[s.key()] = true
					flat = append(flat, s)
				}
			}
		default:
			if isAll(r) {
				continue
			}
			if !seen[r.key()] {
				seen[r.key()] = true
				flat = append(flat, r)
			}
		}
	}
	switch len(flat) {
	case 0:
		return All()
	case 1:
		return flat[0]
	}
	sort.Slice(flat, func(i, j int) bool { return flat[i].key() < flat[j].key() })
	return inter{keyed{joinKeys(flat, "&")}, flat}
}

// Comp returns the complement of r.
func Comp(r Regex) Regex {
	if c, ok := r.(comp); ok {
		return c.r
	}
	if _, ok := r.(none); ok {
		return All()
	}
	if isAll(r) {
		return none{}
	}
	return comp{keyed{"¬(" + r.key() + ")"}, r}
}

// Diff returns r minus s.
func Diff(r, s Regex) Regex { return Inter(r, Comp(s)) }

func isAll(r Regex) bool {
	s, ok := r.(star)
	if !ok {
		return false
	}
	_, ok = s.r.(anyChar)
	return ok
}

// Key returns the canonical memoization key of r.
func Key(r Regex) string { return r.key() }
