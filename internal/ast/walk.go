package ast

// Walk calls fn for t and every subterm of t, in preorder. If fn
// returns false for a term, its subterms are skipped.
func Walk(t Term, fn func(Term) bool) {
	if !fn(t) {
		return
	}
	switch n := t.(type) {
	case *App:
		for _, a := range n.Args {
			Walk(a, fn)
		}
	case *Quant:
		Walk(n.Body, fn)
	}
}

// Transform rebuilds the term bottom-up, applying fn to every node
// after its children have been transformed. fn receives a node whose
// children are already rewritten and returns its replacement. Subtrees
// that are unchanged are shared, not copied.
func (tb *Table) Transform(t Term, fn func(Term) Term) Term {
	switch n := t.(type) {
	case *App:
		changed := false
		args := n.Args
		for i, a := range n.Args {
			na := tb.Transform(a, fn)
			if na != a {
				if !changed {
					args = make([]Term, len(n.Args))
					copy(args, n.Args)
					changed = true
				}
				args[i] = na
			}
		}
		if changed {
			t = tb.MustApp(n.Op, args...)
		}
	case *Quant:
		body := tb.Transform(n.Body, fn)
		if body != n.Body {
			t = tb.internQuant(n.Forall, n.Bound, body, nil)
		}
	}
	return fn(t)
}

// Size returns the number of nodes in the term tree.
func Size(t Term) int {
	n := 0
	Walk(t, func(Term) bool { n++; return true })
	return n
}

// Depth returns the height of the term tree (a leaf has depth 1).
func Depth(t Term) int {
	switch n := t.(type) {
	case *App:
		d := 0
		for _, a := range n.Args {
			if ad := Depth(a); ad > d {
				d = ad
			}
		}
		return d + 1
	case *Quant:
		return Depth(n.Body) + 1
	default:
		return 1
	}
}

// Ops returns the set of operators occurring in t.
func Ops(t Term) map[Op]bool {
	out := map[Op]bool{}
	Walk(t, func(s Term) bool {
		if a, ok := s.(*App); ok {
			out[a.Op] = true
		}
		return true
	})
	return out
}

// HasQuantifier reports whether t contains a quantifier.
func HasQuantifier(t Term) bool {
	found := false
	Walk(t, func(s Term) bool {
		if _, ok := s.(*Quant); ok {
			found = true
		}
		return !found
	})
	return found
}
