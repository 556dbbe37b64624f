package arith

import (
	"repro/internal/fuel"
	"repro/internal/solver/simplex"
	"repro/internal/telemetry"
)

// Session is a persistent linear-arithmetic context for the
// incremental solving layer. Unlike Check — which builds a fresh
// tableau per branch-and-bound node — a Session keeps one simplex
// instance alive across Assert/Feasible calls: slack variables and
// their tableau rows persist, so atoms shared between assertion frames
// are asserted once and re-checks start from a warm basis. Mark and
// PopToMark bracket an assertion frame: popping retracts exactly the
// bounds asserted above the mark while rows and basis stay in place.
//
// A Session is a sound relaxation of the full theory: disequalities
// are skipped and nonlinear terms arrive pre-abstracted as fresh
// variables, so an infeasible Session proves the underlying
// conjunction unsatisfiable, while a feasible one proves nothing.
type Session struct {
	sx   *simplex.Solver
	vars map[string]int
	// infeasibleAt records the mark depth at which an Assert returned
	// false; until that frame is popped the session is trivially
	// infeasible and further Asserts are ignored.
	conflict bool
	confMark int
	terms    []simplex.Term // assertAtom scratch
}

// NewSession returns an empty session.
func NewSession() *Session {
	return &Session{sx: simplex.New(), vars: map[string]int{}}
}

// SetBudget wires the fuel meter and telemetry tracker used by
// subsequent Feasible calls (the session outlives any single solve, so
// the owner re-points these each check).
func (se *Session) SetBudget(f *fuel.Meter, t *telemetry.Tracker) {
	se.sx.Fuel = f
	se.sx.Telem = t
}

// Mark opens an assertion frame and returns its restore point.
func (se *Session) Mark() int { return se.sx.Mark() }

// PopToMark retracts every atom asserted since the mark. The tableau
// stays warm: re-asserting a retracted atom later reuses its row.
func (se *Session) PopToMark(mark int) {
	se.sx.PopToMark(mark)
	if se.conflict && se.confMark >= mark {
		se.conflict = false
	}
}

// Assert adds one atom to the session. It returns false when the atom
// makes the asserted bounds immediately infeasible; the conflict
// clears when the current frame is popped. Disequalities are ignored
// (the session is a relaxation).
func (se *Session) Assert(a Atom) bool {
	if se.conflict {
		return false
	}
	if a.Rel == RelNe {
		return true
	}
	var ok bool
	if se.terms, ok = assertAtom(se.sx, a, se.col, se.terms); !ok {
		se.conflict = true
		se.confMark = se.sx.Mark()
		return false
	}
	return true
}

// col returns the simplex column of v, allocating one on first sight.
func (se *Session) col(v string) int {
	iv, ok := se.vars[v]
	if !ok {
		iv = se.sx.NewVar()
		se.vars[v] = iv
	}
	return iv
}

// NumVars reports how many named variables the warm tableau holds.
func (se *Session) NumVars() int { return len(se.vars) }

// Feasible runs the simplex check over the currently asserted bounds.
// False with a nil error is a proof that the asserted atoms — and
// therefore any conjunction containing them — are unsatisfiable. The
// error reports budget exhaustion only.
func (se *Session) Feasible() (bool, error) {
	if se.conflict {
		return false, nil
	}
	return se.sx.Check()
}
