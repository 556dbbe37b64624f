package analysis

import (
	"fmt"
	"sync"

	"repro/internal/ast"
	"repro/internal/smtlib"
)

// wellSortedPass re-verifies well-sortedness of every term against the
// internal/ast operator table, independent of the elaborator: every
// application is re-typed through ast.SortOf and its stored sort
// compared with the recomputed one, every variable occurrence is
// checked against the script's declarations (or the enclosing binders),
// every assert must be boolean, and declarations must be unique. All
// findings are errors: an ill-sorted script upstream of a solver run
// invalidates the oracle.
type wellSortedPass struct{}

func (wellSortedPass) Name() string { return "wellsorted" }

func (wellSortedPass) Analyze(s *smtlib.Script, _ *FusionMeta) []Diagnostic {
	var out []Diagnostic
	report := func(path, format string, args ...interface{}) {
		out = append(out, Diagnostic{
			Pass:     "wellsorted",
			Severity: SeverityError,
			Path:     path,
			Message:  fmt.Sprintf(format, args...),
		})
	}

	// clean holds the applications already verified under no binder:
	// the quantifier-free scope is shared by every assert, so a subterm
	// shared across the DAG is re-typed once.
	clean := cleanSets.Get().(map[*ast.App]struct{})
	defer func() {
		clear(clean)
		cleanSets.Put(clean)
	}()
	decls := map[string]ast.Sort{}
	for _, d := range s.Declarations() {
		if prev, ok := decls[d.Name]; ok {
			if prev == d.Sort {
				report("", "duplicate declaration of %q", d.Name)
			} else {
				report("", "conflicting declarations of %q: %v and %v", d.Name, prev, d.Sort)
			}
			continue
		}
		decls[d.Name] = d.Sort
	}

	for _, c := range s.Commands {
		df, ok := c.(*smtlib.DefineFun)
		if !ok {
			continue
		}
		bound := map[string]ast.Sort{}
		for _, p := range df.Params {
			bound[p.Name] = p.Sort
		}
		if df.Body.Sort() == df.Result && termSortsClean(df.Body, decls, bound, map[*ast.App]struct{}{}) {
			continue
		}
		path := fmt.Sprintf("define-fun %s", df.Name)
		if df.Body.Sort() != df.Result {
			report(path, "body has sort %v, declared result is %v", df.Body.Sort(), df.Result)
		}
		checkTermSorts(df.Body, path+".body", decls, bound, report)
	}

	for i, a := range s.Asserts() {
		// Fast pre-check: a clean term (the overwhelmingly common case)
		// is verified without building any per-node path strings; only
		// a failing term takes the message-producing walk.
		if a.Sort() == ast.SortBool && termSortsClean(a, decls, nil, clean) {
			continue
		}
		path := fmt.Sprintf("assert[%d]", i)
		if a.Sort() != ast.SortBool {
			report(path, "asserted term has sort %v, want Bool", a.Sort())
		}
		checkTermSorts(a, path, decls, nil, report)
	}
	return out
}

var cleanSets = sync.Pool{New: func() any { return map[*ast.App]struct{}{} }}

// termSortsClean reports whether checkTermSorts would produce no
// diagnostics for t, without allocating diagnostic context. clean is
// the set of applications already verified under the same binders;
// each quantifier opens a scope of its own.
func termSortsClean(t ast.Term, decls, bound map[string]ast.Sort, clean map[*ast.App]struct{}) bool {
	switch n := t.(type) {
	case *ast.Var:
		if bs, ok := bound[n.Name]; ok {
			return bs == n.VSort
		}
		ds, ok := decls[n.Name]
		return ok && ds == n.VSort
	case *ast.App:
		if _, ok := clean[n]; ok {
			return true
		}
		if sort, err := ast.SortOf(n.Op, n.Args); err != nil || sort != n.Sort() {
			return false
		}
		for _, a := range n.Args {
			if !termSortsClean(a, decls, bound, clean) {
				return false
			}
		}
		clean[n] = struct{}{}
	case *ast.Quant:
		if len(n.Bound) == 0 || n.Body.Sort() != ast.SortBool {
			return false
		}
		inner := make(map[string]ast.Sort, len(bound)+len(n.Bound))
		for k, v := range bound {
			inner[k] = v
		}
		for _, sv := range n.Bound {
			inner[sv.Name] = sv.Sort
		}
		return termSortsClean(n.Body, decls, inner, map[*ast.App]struct{}{})
	}
	return true
}

// checkTermSorts walks t, re-deriving every application's sort and
// validating variable occurrences against declarations and binders.
func checkTermSorts(t ast.Term, path string, decls, bound map[string]ast.Sort, report func(string, string, ...interface{})) {
	switch n := t.(type) {
	case *ast.Var:
		if bs, ok := bound[n.Name]; ok {
			if bs != n.VSort {
				report(path, "bound variable %q occurs with sort %v, bound as %v", n.Name, n.VSort, bs)
			}
			return
		}
		ds, ok := decls[n.Name]
		if !ok {
			report(path, "undeclared variable %q", n.Name)
			return
		}
		if ds != n.VSort {
			report(path, "variable %q occurs with sort %v, declared as %v", n.Name, n.VSort, ds)
		}
	case *ast.App:
		sort, err := ast.SortOf(n.Op, n.Args)
		if err != nil {
			report(path, "ill-sorted application: %v", err)
		} else if sort != n.Sort() {
			report(path, "(%s ...) carries sort %v, typing rule derives %v", n.Op, n.Sort(), sort)
		}
		for i, a := range n.Args {
			checkTermSorts(a, fmt.Sprintf("%s.arg[%d]", path, i), decls, bound, report)
		}
	case *ast.Quant:
		if len(n.Bound) == 0 {
			report(path, "quantifier with empty binder list")
		}
		if n.Body.Sort() != ast.SortBool {
			report(path, "quantifier body has sort %v, want Bool", n.Body.Sort())
		}
		inner := make(map[string]ast.Sort, len(bound)+len(n.Bound))
		for k, v := range bound {
			inner[k] = v
		}
		for _, sv := range n.Bound {
			inner[sv.Name] = sv.Sort
		}
		checkTermSorts(n.Body, path+".body", decls, inner, report)
	}
}
