package analysis

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/ast"
	"repro/internal/smtlib"
)

// wellSortedPass checks well-sortedness where term construction cannot
// vouch for it. ast.Table.NewApp derives every application's sort from
// its operator's typing rule, so construction is the typing authority:
// the pass re-types through ast.SortOf only nodes UncheckedApp marked
// Forged and nodes built outside a table (which carry SortInvalid). It
// checks what no node knows: declarations are unique, every variable
// occurrence matches its declaration or enclosing binder, asserts are
// boolean, binders are non-empty over a boolean body, and define-fun
// bodies have their declared result sort. All findings are errors: an
// ill-sorted script upstream of a solver run invalidates the oracle.
type wellSortedPass struct{}

func (wellSortedPass) Name() string { return "wellsorted" }

func (wellSortedPass) Analyze(s *smtlib.Script, _ *FusionMeta) []Diagnostic {
	w := sortWalkers.Get().(*sortWalker)
	defer w.release()
	for _, c := range s.Commands {
		if d, ok := c.(*smtlib.DeclareFun); ok {
			if prev, dup := w.decls[d.Name]; !dup {
				w.decls[d.Name] = d.Sort
			} else if prev == d.Sort {
				w.reportAt("", "duplicate declaration of %q", d.Name)
			} else {
				w.reportAt("", "conflicting declarations of %q: %v and %v", d.Name, prev, d.Sort)
			}
		}
	}
	w.scope, w.scopes = 1, 1 // the quantifier-free scope every assert shares
	for _, c := range s.Commands {
		switch c := c.(type) {
		case *smtlib.DefineFun:
			if c.Body.Sort() != c.Result {
				w.reportAt("define-fun "+c.Name, "body has sort %v, declared result is %v", c.Body.Sort(), c.Result)
			}
			w.define, w.binders = c, append(w.binders, c.Params...)
			w.scoped(c.Body)
			w.define, w.binders = nil, w.binders[:0]
		case *smtlib.Assert:
			if c.Term.Sort() != ast.SortBool {
				w.report("asserted term has sort %v, want Bool", c.Term.Sort())
			}
			w.walk(c.Term)
			w.assert++
		}
	}
	return w.out
}

// sortWalker is the pass's state, pooled so that checking a clean
// script allocates nothing.
type sortWalker struct {
	decls   map[string]ast.Sort
	binders []ast.SortedVar // enclosing binders, innermost last
	// clean maps each application found clean to the scope it was
	// walked in, so a subterm shared across the DAG is walked once per
	// scope. Asserts share scope 1; each binder (a quantifier
	// occurrence, a define-fun) opens a scope of its own.
	clean         map[*ast.App]int32
	scope, scopes int32

	// The position: the define-fun whose body is walked, else the
	// assert index, and the steps below it (argument indexes, bodyStep
	// for a quantifier body). Paths are rendered only for diagnostics.
	define *smtlib.DefineFun
	assert int
	steps  []int

	out []Diagnostic
}

const bodyStep = -1

var sortWalkers = sync.Pool{New: func() any {
	return &sortWalker{decls: map[string]ast.Sort{}, clean: map[*ast.App]int32{}}
}}

func (w *sortWalker) release() {
	clear(w.decls)
	clear(w.clean)
	w.binders, w.steps, w.out, w.assert = w.binders[:0], w.steps[:0], nil, 0
	sortWalkers.Put(w)
}

func (w *sortWalker) reportAt(path, format string, args ...any) {
	w.out = append(w.out, Diagnostic{Pass: "wellsorted", Severity: SeverityError, Path: path, Message: fmt.Sprintf(format, args...)})
}

// report files a diagnostic at the position being walked.
func (w *sortWalker) report(format string, args ...any) {
	var b strings.Builder
	if w.define != nil {
		b.WriteString("define-fun " + w.define.Name + ".body")
	} else {
		fmt.Fprintf(&b, "assert[%d]", w.assert)
	}
	for _, s := range w.steps {
		if s == bodyStep {
			b.WriteString(".body")
		} else {
			fmt.Fprintf(&b, ".arg[%d]", s)
		}
	}
	w.reportAt(b.String(), format, args...)
}

// scoped walks t in a new scope, under the binders pushed for it.
func (w *sortWalker) scoped(t ast.Term) bool {
	outer := w.scope
	w.scopes++
	w.scope = w.scopes
	ok := w.walk(t)
	w.scope = outer
	return ok
}

// walk checks t's subtree at the current position and reports whether
// it is clean.
func (w *sortWalker) walk(t ast.Term) bool {
	switch n := t.(type) {
	case *ast.Var:
		for i := len(w.binders) - 1; i >= 0; i-- {
			if b := w.binders[i]; b.Name == n.Name {
				if b.Sort != n.VSort {
					w.report("bound variable %q occurs with sort %v, bound as %v", n.Name, n.VSort, b.Sort)
					return false
				}
				return true
			}
		}
		if ds, ok := w.decls[n.Name]; !ok {
			w.report("undeclared variable %q", n.Name)
			return false
		} else if ds != n.VSort {
			w.report("variable %q occurs with sort %v, declared as %v", n.Name, n.VSort, ds)
			return false
		}
	case *ast.App:
		if scope, ok := w.clean[n]; ok && scope == w.scope {
			return true
		}
		ok := true
		if n.Forged() || n.Sort() == ast.SortInvalid {
			if sort, err := ast.SortOf(n.Op, n.Args); err != nil {
				w.report("ill-sorted application: %v", err)
				ok = false
			} else if sort != n.Sort() {
				w.report("(%s ...) carries sort %v, typing rule derives %v", n.Op, n.Sort(), sort)
				ok = false
			}
		}
		for i, a := range n.Args {
			w.steps = append(w.steps, i)
			ok = w.walk(a) && ok
			w.steps = w.steps[:len(w.steps)-1]
		}
		if ok {
			w.clean[n] = w.scope
		}
		return ok
	case *ast.Quant:
		ok := len(n.Bound) > 0 && n.Body.Sort() == ast.SortBool
		if len(n.Bound) == 0 {
			w.report("quantifier with empty binder list")
		}
		if n.Body.Sort() != ast.SortBool {
			w.report("quantifier body has sort %v, want Bool", n.Body.Sort())
		}
		outer := len(w.binders)
		w.binders = append(w.binders, n.Bound...)
		w.steps = append(w.steps, bodyStep)
		ok = w.scoped(n.Body) && ok
		w.binders, w.steps = w.binders[:outer], w.steps[:len(w.steps)-1]
		return ok
	}
	return true
}
