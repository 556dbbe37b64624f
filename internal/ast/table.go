package ast

import "repro/internal/rat"

// Hash-consing term tables.
//
// Every term is built through a Table, which hash-conses it: within
// one table chain (a table plus its frozen parents) structurally equal
// terms are one shared node, so a term is its own identity and can be
// compared, hashed and used as a map key by pointer. Each node caches
// its structural hash (and App nodes their sort), so the hot paths
// never re-walk a subtree to compare, hash or key it.
//
// A table has one owner and takes no lock. Sharing happens through
// parents: a table may be frozen, after which it takes no inserts and
// any number of goroutines may read it, each through a child table of
// its own. A lookup checks the parents first, so a term the parent
// holds is never duplicated in a child, and pointer equality holds
// across the whole chain. A fuzzing campaign builds its vetted seed
// corpus into one table, freezes it, and gives each task a child
// table over it; the task's terms die with the task's table.
//
// Terms from different chains are Equal but not pointer-equal. Import
// re-interns a foreign term into a table.
type Table struct {
	parent *Table
	frozen bool
	slots  []slot // open addressing, linear probing; len is 0 or a power of 2
	n      int
}

type slot struct {
	h uint64
	t Term // nil: empty
}

// NewTable returns an empty table over parent (nil for none). The
// parent must be frozen.
func NewTable(parent *Table) *Table {
	if parent != nil && !parent.frozen {
		panic("ast: NewTable over a table that is not frozen")
	}
	return &Table{parent: parent}
}

// Freeze makes the table read-only: inserting into it afterwards
// panics, and concurrent readers (child tables) need no lock.
func (tb *Table) Freeze() { tb.frozen = true }

// Reset drops every entry while keeping the storage, so the table can
// serve a new owner (the next task of a worker). Terms already built
// stay valid; new constructions no longer share them.
func (tb *Table) Reset() {
	if tb.frozen {
		panic("ast: Reset of a frozen table")
	}
	clear(tb.slots)
	tb.n = 0
}

// Len returns the number of terms the table itself holds (its parents'
// terms excluded).
func (tb *Table) Len() int { return tb.n }

// find probes tb alone for a node with hash h that match accepts. It
// returns the node, or nil and the empty slot that ends the probe.
func (tb *Table) find(h uint64, match func(Term) bool) (Term, int) {
	if len(tb.slots) == 0 {
		return nil, -1
	}
	mask := len(tb.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		s := &tb.slots[i]
		if s.t == nil {
			return nil, i
		}
		if s.h == h && match(s.t) {
			return s.t, i
		}
	}
}

// lookup returns the chain's node for (h, match): the parents' node if
// they hold one, else tb's own. at is tb's insertion slot on a miss.
func (tb *Table) lookup(h uint64, match func(Term) bool) (t Term, at int) {
	for p := tb.parent; p != nil; p = p.parent {
		if t, _ := p.find(h, match); t != nil {
			return t, -1
		}
	}
	return tb.find(h, match)
}

// insert stores t under h at slot at (from lookup), growing the table
// to keep its load under 3/4.
func (tb *Table) insert(at int, h uint64, t Term) {
	if tb.frozen {
		panic("ast: insert into a frozen table")
	}
	if at < 0 || 4*(tb.n+1) > 3*len(tb.slots) {
		tb.grow()
		mask := len(tb.slots) - 1
		at = int(h) & mask
		for tb.slots[at].t != nil {
			at = (at + 1) & mask
		}
	}
	tb.slots[at] = slot{h: h, t: t}
	tb.n++
}

func (tb *Table) grow() {
	old := tb.slots
	size := 2 * len(old)
	if size < 64 {
		size = 64
	}
	tb.slots = make([]slot, size)
	mask := size - 1
	for _, s := range old {
		if s.t == nil {
			continue
		}
		i := int(s.h) & mask
		for tb.slots[i].t != nil {
			i = (i + 1) & mask
		}
		tb.slots[i] = s
	}
}

// FNV-1a, with a per-kind seed byte so leaves of different kinds with
// equal payloads (e.g. the variable "a" and the string literal "a")
// hash apart.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

const (
	kindVar byte = iota + 1
	kindBool
	kindInt
	kindReal
	kindStr
	kindApp
	kindQuant
)

func hashKind(k byte) uint64 { return (fnvOffset ^ uint64(k)) * fnvPrime }

func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

func hashUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
	return h
}

// nonzero reserves 0 as the "hash not yet computed" sentinel stored in
// node hash fields.
func nonzero(h uint64) uint64 {
	if h == 0 {
		return 1
	}
	return h
}

func hashVar(name string, sort Sort) uint64 {
	return nonzero(hashUint64(hashString(hashKind(kindVar), name), uint64(sort)))
}

// hashNum hashes a numeric literal of kind k. An inline value hashes
// its two words; a fallback value its rendering, which rat's canonical
// form makes as unique as the value.
func hashNum(k byte, v rat.Rat) uint64 {
	h := hashKind(k)
	if n, d, ok := v.Inline(); ok {
		return nonzero(hashUint64(hashUint64(h, uint64(n)), uint64(d)))
	}
	return nonzero(hashString(h, v.String()))
}

func hashStr(v string) uint64 {
	return nonzero(hashString(hashKind(kindStr), v))
}

// hashApp deliberately excludes the result sort: Equal ignores App
// sorts, and the hash must never separate terms Equal considers the
// same. The table compares sorts explicitly instead.
func hashApp(op Op, args []Term) uint64 {
	h := hashUint64(hashKind(kindApp), uint64(op))
	for _, a := range args {
		h = hashUint64(h, Hash(a))
	}
	return nonzero(h)
}

func hashQuant(forall bool, bound []SortedVar, body Term) uint64 {
	h := hashKind(kindQuant)
	if forall {
		h = hashUint64(h, 1)
	} else {
		h = hashUint64(h, 2)
	}
	for _, b := range bound {
		h = hashString(h, b.Name)
		h = hashUint64(h, uint64(b.Sort))
	}
	return nonzero(hashUint64(h, Hash(body)))
}

// Hash returns the term's structural hash. Table-built nodes carry it
// precomputed; terms forged outside a table are hashed on the fly (and
// never cached, so concurrent use stays race-free).
func Hash(t Term) uint64 {
	switch n := t.(type) {
	case *Var:
		if n.hash != 0 {
			return n.hash
		}
		return hashVar(n.Name, n.VSort)
	case *BoolLit:
		if n.V {
			return nonzero(hashUint64(hashKind(kindBool), 1))
		}
		return nonzero(hashUint64(hashKind(kindBool), 2))
	case *IntLit:
		if n.hash != 0 {
			return n.hash
		}
		return hashNum(kindInt, n.V)
	case *RealLit:
		if n.hash != 0 {
			return n.hash
		}
		return hashNum(kindReal, n.V)
	case *StrLit:
		if n.hash != 0 {
			return n.hash
		}
		return hashStr(n.V)
	case *App:
		if n.hash != 0 {
			return n.hash
		}
		return hashApp(n.Op, n.Args)
	case *Quant:
		if n.hash != 0 {
			return n.hash
		}
		return hashQuant(n.Forall, n.Bound, n.Body)
	default:
		return nonzero(hashKind(0))
	}
}

// The interning functions below take an optional candidate node: when
// the chain holds no match, the candidate (a foreign node being
// imported, whose children already belong to the chain) is adopted
// as is instead of a fresh node being built.

func (tb *Table) internVar(name string, sort Sort, cand *Var) *Var {
	h := hashVar(name, sort)
	t, at := tb.lookup(h, func(t Term) bool {
		v, ok := t.(*Var)
		return ok && v.Name == name && v.VSort == sort
	})
	if t != nil {
		return t.(*Var)
	}
	if cand == nil {
		cand = &Var{Name: name, VSort: sort, hash: h}
	}
	tb.insert(at, h, cand)
	return cand
}

func (tb *Table) internInt(val rat.Rat, cand *IntLit) *IntLit {
	h := hashNum(kindInt, val)
	t, at := tb.lookup(h, func(t Term) bool {
		l, ok := t.(*IntLit)
		return ok && l.V.Cmp(val) == 0
	})
	if t != nil {
		return t.(*IntLit)
	}
	if cand == nil {
		cand = &IntLit{V: val, hash: h}
	}
	tb.insert(at, h, cand)
	return cand
}

func (tb *Table) internRat(val rat.Rat, cand *RealLit) *RealLit {
	h := hashNum(kindReal, val)
	t, at := tb.lookup(h, func(t Term) bool {
		l, ok := t.(*RealLit)
		return ok && l.V.Cmp(val) == 0
	})
	if t != nil {
		return t.(*RealLit)
	}
	if cand == nil {
		cand = &RealLit{V: val, hash: h}
	}
	tb.insert(at, h, cand)
	return cand
}

func (tb *Table) internStr(val string, cand *StrLit) *StrLit {
	h := hashStr(val)
	t, at := tb.lookup(h, func(t Term) bool {
		l, ok := t.(*StrLit)
		return ok && l.V == val
	})
	if t != nil {
		return t.(*StrLit)
	}
	if cand == nil {
		cand = &StrLit{V: val, hash: h}
	}
	tb.insert(at, h, cand)
	return cand
}

// internApp hash-conses an application. Its children belong to the
// chain, so the structural comparison is one pointer comparison per
// argument. The sort is part of the match (but not the hash), which
// keeps UncheckedApp forgeries (negative tests) from colliding with
// well-sorted nodes of the same shape; forged follows from op, sort
// and the argument sorts, so it needs no match of its own.
func (tb *Table) internApp(op Op, sort Sort, args []Term, forged bool, cand *App) *App {
	h := hashApp(op, args)
	t, at := tb.lookup(h, func(t Term) bool {
		a, ok := t.(*App)
		if !ok || a.Op != op || a.sort != sort || len(a.Args) != len(args) {
			return false
		}
		for i := range args {
			if a.Args[i] != args[i] {
				return false
			}
		}
		return true
	})
	if t != nil {
		return t.(*App)
	}
	if cand == nil {
		cand = &App{Op: op, Args: args, sort: sort, forged: forged, hash: h}
	}
	tb.insert(at, h, cand)
	return cand
}

func (tb *Table) internQuant(forall bool, bound []SortedVar, body Term, cand *Quant) *Quant {
	h := hashQuant(forall, bound, body)
	t, at := tb.lookup(h, func(t Term) bool {
		q, ok := t.(*Quant)
		if !ok || q.Forall != forall || len(q.Bound) != len(bound) || q.Body != body {
			return false
		}
		for i := range bound {
			if q.Bound[i] != bound[i] {
				return false
			}
		}
		return true
	})
	if t != nil {
		return t.(*Quant)
	}
	if cand == nil {
		cand = &Quant{Forall: forall, Bound: bound, Body: body, hash: h}
	}
	tb.insert(at, h, cand)
	return cand
}

// Import returns t's counterpart in tb's chain, re-interning it bottom
// up. A foreign node whose children are already the chain's is adopted
// rather than copied (terms are immutable), so importing a term built
// in a table that is then dropped moves it without reallocation. A
// shared subterm met again is found by one probe: its children are
// the chain's by then.
func (tb *Table) Import(t Term) Term {
	switch n := t.(type) {
	case *Var:
		return tb.internVar(n.Name, n.VSort, adopt(n, n.hash))
	case *IntLit:
		return tb.internInt(n.V, adopt(n, n.hash))
	case *RealLit:
		return tb.internRat(n.V, adopt(n, n.hash))
	case *StrLit:
		return tb.internStr(n.V, adopt(n, n.hash))
	case *App:
		args, same := n.Args, true
		for i, a := range n.Args {
			if na := tb.Import(a); na != a {
				if same {
					args = append([]Term(nil), n.Args...)
					same = false
				}
				args[i] = na
			}
		}
		if same {
			return tb.internApp(n.Op, n.sort, args, n.forged, adopt(n, n.hash))
		}
		return tb.internApp(n.Op, n.sort, args, n.forged, nil)
	case *Quant:
		body := tb.Import(n.Body)
		if body == n.Body {
			return tb.internQuant(n.Forall, n.Bound, body, adopt(n, n.hash))
		}
		return tb.internQuant(n.Forall, n.Bound, body, nil)
	default:
		return t
	}
}

// adopt returns n as an interning candidate when it carries its cached
// hash (it was built by a table), or nil to have a fresh node built.
func adopt[T any](n *T, hash uint64) *T {
	if hash == 0 {
		return nil
	}
	return n
}
