package ast

import (
	"fmt"
	"sort"
)

// FreeVars returns the free variables of t, deduplicated by name, in
// first-occurrence order. Quantifier-bound occurrences are excluded.
func FreeVars(t Term) []*Var {
	var out []*Var
	collectFree(t, nil, &out)
	return out
}

// collectFree appends free variables to out. Deduplication scans out
// directly (free-variable sets are small), and the bound map is only
// allocated once a quantifier is reached, so the dominant
// quantifier-free case allocates nothing beyond the result slice.
func collectFree(t Term, bound map[string]int, out *[]*Var) {
	switch n := t.(type) {
	case *Var:
		if bound[n.Name] != 0 {
			return
		}
		for _, v := range *out {
			if v.Name == n.Name {
				return
			}
		}
		*out = append(*out, n)
	case *App:
		for _, a := range n.Args {
			collectFree(a, bound, out)
		}
	case *Quant:
		if bound == nil {
			bound = map[string]int{}
		}
		for _, b := range n.Bound {
			bound[b.Name]++
		}
		collectFree(n.Body, bound, out)
		for _, b := range n.Bound {
			bound[b.Name]--
		}
	}
}

// HasFreeVars reports whether t contains at least one free variable,
// without materializing the set (and, for quantifier-free terms,
// without allocating).
func HasFreeVars(t Term) bool {
	return hasFree(t, nil)
}

func hasFree(t Term, bound map[string]int) bool {
	switch n := t.(type) {
	case *Var:
		return bound[n.Name] == 0
	case *App:
		for _, a := range n.Args {
			if hasFree(a, bound) {
				return true
			}
		}
	case *Quant:
		if bound == nil {
			bound = map[string]int{}
		}
		for _, b := range n.Bound {
			bound[b.Name]++
		}
		free := hasFree(n.Body, bound)
		for _, b := range n.Bound {
			bound[b.Name]--
		}
		return free
	}
	return false
}

// FreeVarsByName returns the free variables of t keyed by name.
func FreeVarsByName(t Term) map[string]*Var {
	out := map[string]*Var{}
	for _, v := range FreeVars(t) {
		out[v.Name] = v
	}
	return out
}

// SortedFreeVarNames returns the free-variable names of t sorted
// lexicographically — a convenience for deterministic iteration.
func SortedFreeVarNames(t Term) []string {
	vs := FreeVars(t)
	names := make([]string, len(vs))
	for i, v := range vs {
		names[i] = v.Name
	}
	sort.Strings(names)
	return names
}

// CountFreeOccurrences returns the number of free occurrences of the
// variable named name in t.
func CountFreeOccurrences(t Term, name string) int {
	n := 0
	walkFreeOccurrences(t, name, 0, func() { n++ })
	return n
}

func walkFreeOccurrences(t Term, name string, boundDepth int, hit func()) {
	switch n := t.(type) {
	case *Var:
		if n.Name == name && boundDepth == 0 {
			hit()
		}
	case *App:
		for _, a := range n.Args {
			walkFreeOccurrences(a, name, boundDepth, hit)
		}
	case *Quant:
		d := boundDepth
		for _, b := range n.Bound {
			if b.Name == name {
				d++
			}
		}
		walkFreeOccurrences(n.Body, name, d, hit)
	}
}

// Substitute replaces every free occurrence of each variable in repl by
// its mapped term. Replacement terms must not capture: callers are
// responsible for ensuring replacement terms contain no variables that
// are bound at substitution sites (fusion operates on quantifier-free
// positions of freshly named variables, so this holds by construction;
// a capture is reported as an error).
func (tb *Table) Substitute(t Term, repl map[string]Term) (Term, error) {
	s := &substituter{tb: tb, repl: repl, selectAll: true}
	out := s.subst(t, map[string]int{})
	if s.err != nil {
		return nil, s.err
	}
	return out, nil
}

// MustSubstitute is Substitute, panicking on capture errors.
func (tb *Table) MustSubstitute(t Term, repl map[string]Term) Term {
	out, err := tb.Substitute(t, repl)
	if err != nil {
		panic(err)
	}
	return out
}

// SubstituteOccurrences implements the paper's φ[e/x]R: it replaces the
// free occurrences of the variable named name for which pick returns
// true. pick is called once per free occurrence in preorder with the
// occurrence index (0-based). The number of free occurrences visited is
// returned alongside the rewritten term.
func (tb *Table) SubstituteOccurrences(t Term, name string, e Term, pick func(i int) bool) (Term, int, error) {
	s := &substituter{
		tb:        tb,
		repl:      map[string]Term{name: e},
		selectAll: false,
		pick:      pick,
	}
	out := s.subst(t, map[string]int{})
	if s.err != nil {
		return nil, 0, s.err
	}
	return out, s.occ, nil
}

type substituter struct {
	tb        *Table
	repl      map[string]Term
	selectAll bool
	pick      func(i int) bool
	occ       int
	err       error
}

func (s *substituter) subst(t Term, bound map[string]int) Term {
	if s.err != nil {
		return t
	}
	switch n := t.(type) {
	case *Var:
		e, ok := s.repl[n.Name]
		if !ok || bound[n.Name] > 0 {
			return t
		}
		if !s.selectAll {
			i := s.occ
			s.occ++
			if !s.pick(i) {
				return t
			}
		}
		// Capture check: no free variable of e may be bound here.
		if len(bound) > 0 {
			for _, fv := range FreeVars(e) {
				if bound[fv.Name] > 0 {
					s.err = fmt.Errorf("substitution of %s captures %s", n.Name, fv.Name)
					return t
				}
			}
		}
		if e.Sort() != n.VSort {
			s.err = fmt.Errorf("substitution of %s: replacement has sort %v, want %v", n.Name, e.Sort(), n.VSort)
			return t
		}
		return e
	case *App:
		changed := false
		args := n.Args
		for i, a := range n.Args {
			na := s.subst(a, bound)
			if na != a {
				if !changed {
					args = make([]Term, len(n.Args))
					copy(args, n.Args)
					changed = true
				}
				args[i] = na
			}
		}
		if !changed {
			return t
		}
		return s.tb.MustApp(n.Op, args...)
	case *Quant:
		for _, b := range n.Bound {
			bound[b.Name]++
		}
		body := s.subst(n.Body, bound)
		for _, b := range n.Bound {
			bound[b.Name]--
		}
		if body == n.Body {
			return t
		}
		return s.tb.internQuant(n.Forall, n.Bound, body, nil)
	default:
		return t
	}
}

// RenameFreeVars renames free variables according to the name map,
// preserving sorts. Names absent from the map are unchanged.
func (tb *Table) RenameFreeVars(t Term, names map[string]string) Term {
	repl := map[string]Term{}
	for _, v := range FreeVars(t) {
		if nn, ok := names[v.Name]; ok {
			repl[v.Name] = tb.Var(nn, v.VSort)
		}
	}
	if len(repl) == 0 {
		return t
	}
	return tb.MustSubstitute(t, repl)
}
