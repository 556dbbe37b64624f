package eval

import (
	"errors"
	"fmt"

	"repro/internal/ast"
)

// Sentinel causes. Every error produced by this package is (or wraps)
// a *Error whose Err field is one of these, so callers can branch with
// errors.Is without string matching.
var (
	// ErrQuantifier is returned when a term contains a quantifier:
	// evaluation over unbounded domains is not decidable by
	// enumeration, so callers must treat quantified formulas
	// separately.
	ErrQuantifier = errors.New("eval: cannot evaluate quantified term")
	// ErrUnbound marks a free variable with no model entry.
	ErrUnbound = errors.New("eval: unbound variable")
	// ErrSortMismatch marks a value of the wrong sort reaching an
	// operator or a model entry disagreeing with its variable's sort —
	// only reachable through ill-sorted terms (ast.UncheckedApp) or
	// ill-sorted models, never through checked constructors.
	ErrSortMismatch = errors.New("eval: sort mismatch")
	// ErrArity marks an application with more or fewer arguments than
	// its operator accepts — like ErrSortMismatch, only reachable
	// through ast.UncheckedApp.
	ErrArity = errors.New("eval: wrong number of arguments")
	// ErrUnsupported marks a term or operator this evaluator does not
	// interpret.
	ErrUnsupported = errors.New("eval: unsupported")
)

// Error is the structured evaluation failure. Path addresses the
// offending subterm from the evaluation root in the same arg[i] step
// syntax the analysis diagnostics use ("" means the root itself), and
// Term is that subterm, so a harness report can point at the exact
// position that failed rather than re-searching the formula.
type Error struct {
	Err  error    // sentinel cause (ErrQuantifier, ErrUnbound, ...)
	Path string   // term path from the evaluation root; "" = root
	Term ast.Term // offending subterm
	Msg  string   // detail
}

func (e *Error) Error() string {
	where := ""
	if e.Path != "" {
		where = " at " + e.Path
	}
	return fmt.Sprintf("%v%s: %s", e.Err, where, e.Msg)
}

func (e *Error) Unwrap() error { return e.Err }

func newErr(cause error, t ast.Term, format string, args ...any) *Error {
	return &Error{Err: cause, Term: t, Msg: fmt.Sprintf(format, args...)}
}

// at prepends the path step arg[i] as an error unwinds one application
// level. The *Error is copied, never mutated: a single error value may
// unwind through shared (interned) subterms.
func at(err error, i int) error {
	e, ok := err.(*Error)
	if !ok {
		return err
	}
	step := fmt.Sprintf("arg[%d]", i)
	cp := *e
	if cp.Path == "" {
		cp.Path = step
	} else {
		cp.Path = step + "." + cp.Path
	}
	return &cp
}

// want checks that the already-evaluated argument i of n has sort s,
// and otherwise reports a structured sort mismatch pointing at that
// argument. The interpreter checks every argument it reads through it,
// so no evaluation path reads a payload of the wrong sort.
func want(n *ast.App, args []Val, i int, s ast.Sort) error {
	if args[i].sort == s {
		return nil
	}
	return at(newErr(ErrSortMismatch, n.Args[i], "%v argument %d has sort %v, want %v", n.Op, i, args[i].sort, s), i)
}
