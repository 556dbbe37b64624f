package analysis

import (
	"fmt"
	"strings"

	"repro/internal/ast"
	"repro/internal/smtlib"
)

// LogicFeatures is the feature lattice behind SMT-LIB logic names:
// whether quantifiers, nonlinear arithmetic, and each theory are
// admitted. A logic L conforms to a declaration D when D's features
// cover L's.
type LogicFeatures struct {
	Quantified bool
	Nonlinear  bool
	Ints       bool
	Reals      bool
	Strings    bool
}

// Covers reports whether f admits everything g requires.
func (f LogicFeatures) Covers(g LogicFeatures) bool {
	if g.Quantified && !f.Quantified {
		return false
	}
	if g.Nonlinear && !f.Nonlinear {
		return false
	}
	if g.Ints && !f.Ints {
		return false
	}
	if g.Reals && !f.Reals {
		return false
	}
	if g.Strings && !f.Strings {
		return false
	}
	return true
}

// ParseLogicName maps a standard SMT-LIB logic name to its features.
// The second result is false for names outside the fragment this
// system generates (the nine logics of the paper's Figure 7 plus their
// quantified variants). String logics admit linear Int arithmetic:
// even QF_S scripts contain Int atoms through str.len and str.to_int.
func ParseLogicName(name string) (LogicFeatures, bool) {
	f := LogicFeatures{Quantified: true}
	rest := name
	if strings.HasPrefix(rest, "QF_") {
		f.Quantified = false
		rest = rest[len("QF_"):]
	}
	switch rest {
	case "S":
		f.Strings, f.Ints = true, true
		return f, true
	case "SLIA":
		f.Strings, f.Ints = true, true
		return f, true
	case "SNIA":
		f.Strings, f.Ints, f.Nonlinear = true, true, true
		return f, true
	}
	switch {
	case strings.HasPrefix(rest, "N"):
		f.Nonlinear = true
		rest = rest[1:]
	case strings.HasPrefix(rest, "L"):
		rest = rest[1:]
	default:
		return LogicFeatures{}, false
	}
	switch rest {
	case "IA":
		f.Ints = true
	case "RA":
		f.Reals = true
	case "IRA":
		f.Ints, f.Reals = true, true
	default:
		return LogicFeatures{}, false
	}
	return f, true
}

// meets reports whether f and g share a feature.
func (f LogicFeatures) meets(g LogicFeatures) bool {
	return f.Quantified && g.Quantified || f.Nonlinear && g.Nonlinear ||
		f.Ints && g.Ints || f.Reals && g.Reals || f.Strings && g.Strings
}

func (f LogicFeatures) union(g LogicFeatures) LogicFeatures {
	return LogicFeatures{
		Quantified: f.Quantified || g.Quantified,
		Nonlinear:  f.Nonlinear || g.Nonlinear,
		Ints:       f.Ints || g.Ints,
		Reals:      f.Reals || g.Reals,
		Strings:    f.Strings || g.Strings,
	}
}

// arithLogics names the quantifier-free arithmetic logics by
// linearity (L, N) and theory (IA, RA, IRA).
var arithLogics = [2][3]string{
	{"QF_LIA", "QF_LRA", "QF_LIRA"},
	{"QF_NIA", "QF_NRA", "QF_NIRA"},
}

// Name is the weakest standard SMT-LIB logic name admitting f:
// quantifier prefix (QF_ or none), then SLIA or S for string scripts,
// else linearity (L/N) and the arithmetic theory (IA, RA, IRA). It
// returns a constant string: InferLogic names every fused script.
func (f LogicFeatures) Name() string {
	var name string
	switch {
	case f.Strings && f.Ints:
		name = "QF_SLIA"
	case f.Strings:
		name = "QF_S"
	default:
		nl, theory := 0, 0
		if f.Nonlinear {
			nl = 1
		}
		switch {
		case f.Ints && f.Reals:
			theory = 2
		case f.Reals:
			theory = 1
		}
		name = arithLogics[nl][theory]
	}
	if f.Quantified {
		return name[len("QF_"):]
	}
	return name
}

// InferLogic computes the weakest standard SMT-LIB logic name covering
// the script's declarations and asserts.
func InferLogic(s *smtlib.Script) string { return RequiredFeatures(s).Name() }

// RequiredFeatures computes the features a script actually uses: the
// theories of its declared sorts and every assert subterm's own
// features (termFeatures). It builds no diagnostic paths — InferLogic
// runs it on every fused script; the logic pass locates a feature
// (firstPath) only when it reports one.
func RequiredFeatures(s *smtlib.Script) LogicFeatures {
	var f LogicFeatures
	for _, d := range s.Declarations() {
		f = f.union(sortFeatures(d.Sort))
	}
	for _, a := range s.Asserts() {
		ast.Walk(a, func(n ast.Term) bool {
			f = f.union(termFeatures(n))
			return true
		})
	}
	return f
}

// sortFeatures is the theory a sort belongs to.
func sortFeatures(s ast.Sort) LogicFeatures {
	switch s {
	case ast.SortInt:
		return LogicFeatures{Ints: true}
	case ast.SortReal:
		return LogicFeatures{Reals: true}
	case ast.SortString:
		return LogicFeatures{Strings: true}
	}
	return LogicFeatures{}
}

// termFeatures is what one term needs by itself, its subterms aside: a
// quantifier, the theory of an application's sort or a literal's, and
// nonlinearity — multiplication with two or more non-literal factors,
// division or mod by a non-literal divisor.
func termFeatures(t ast.Term) LogicFeatures {
	switch n := t.(type) {
	case *ast.Quant:
		return LogicFeatures{Quantified: true}
	case *ast.App:
		f := sortFeatures(n.Sort())
		switch n.Op {
		case ast.OpMul:
			nonConst := 0
			for _, a := range n.Args {
				if !isLiteral(a) {
					nonConst++
				}
			}
			f.Nonlinear = nonConst > 1
		case ast.OpRealDiv, ast.OpIntDiv, ast.OpMod:
			f.Nonlinear = len(n.Args) > 1 && !isLiteral(n.Args[1])
		}
		return f
	case *ast.IntLit:
		return LogicFeatures{Ints: true}
	case *ast.RealLit:
		return LogicFeatures{Reals: true}
	case *ast.StrLit:
		return LogicFeatures{Strings: true}
	}
	return LogicFeatures{}
}

// firstPath locates a reported feature want for its diagnostic: ""
// when a declaration's sort establishes it, otherwise the path of the
// first assert subterm (in pre-order) that needs it.
func firstPath(s *smtlib.Script, want LogicFeatures) string {
	for _, d := range s.Declarations() {
		if sortFeatures(d.Sort).meets(want) {
			return ""
		}
	}
	var find func(t ast.Term, path string) (string, bool)
	find = func(t ast.Term, path string) (string, bool) {
		if termFeatures(t).meets(want) {
			return path, true
		}
		switch n := t.(type) {
		case *ast.Quant:
			return find(n.Body, path+".body")
		case *ast.App:
			for i, a := range n.Args {
				if p, ok := find(a, fmt.Sprintf("%s.arg[%d]", path, i)); ok {
					return p, true
				}
			}
		}
		return "", false
	}
	for i, a := range s.Asserts() {
		if p, ok := find(a, fmt.Sprintf("assert[%d]", i)); ok {
			return p
		}
	}
	return ""
}

// isLiteral reports whether t denotes a constant. (- 3) and
// (/ 2.0 3.0) are how negative and non-integer numerals round-trip
// through SMT-LIB text: both parse back as applications, but a scalar
// multiple by either stays linear.
func isLiteral(t ast.Term) bool {
	switch n := t.(type) {
	case *ast.IntLit, *ast.RealLit, *ast.StrLit, *ast.BoolLit:
		return true
	case *ast.App:
		if n.Op == ast.OpNeg && len(n.Args) == 1 {
			return isLiteral(n.Args[0])
		}
		if n.Op == ast.OpRealDiv && len(n.Args) == 2 {
			return isLiteral(n.Args[0]) && isLiteral(n.Args[1])
		}
	}
	return false
}

// logicPass checks the script against its declared logic: quantifiers
// under a QF_ logic, nonlinear terms under a linear logic, and theory
// sorts outside the declared theory each produce a warning. Scripts
// without a set-logic command get a single info note.
type logicPass struct{}

func (logicPass) Name() string { return "logic" }

func (logicPass) Analyze(s *smtlib.Script, _ *FusionMeta) []Diagnostic {
	declared := s.Logic()
	if declared == "" {
		return []Diagnostic{{
			Pass: "logic", Severity: SeverityInfo,
			Message: "script declares no logic (missing set-logic)",
		}}
	}
	df, ok := ParseLogicName(declared)
	if !ok {
		return []Diagnostic{{
			Pass: "logic", Severity: SeverityWarning,
			Message: fmt.Sprintf("unrecognized logic name %q", declared),
		}}
	}
	req := RequiredFeatures(s)
	if df.Covers(req) {
		return nil
	}

	var out []Diagnostic
	warn := func(want LogicFeatures, format string, args ...interface{}) {
		out = append(out, Diagnostic{
			Pass: "logic", Severity: SeverityWarning,
			Path:    firstPath(s, want),
			Message: fmt.Sprintf(format, args...),
		})
	}
	if req.Quantified && !df.Quantified {
		warn(LogicFeatures{Quantified: true}, "quantifier under quantifier-free logic %s", declared)
	}
	if req.Nonlinear && !df.Nonlinear {
		warn(LogicFeatures{Nonlinear: true}, "nonlinear term under linear logic %s (inferred %s)", declared, req.Name())
	}
	if req.Ints && !df.Ints {
		warn(LogicFeatures{Ints: true}, "Int terms outside logic %s", declared)
	}
	if req.Reals && !df.Reals {
		warn(LogicFeatures{Reals: true}, "Real terms outside logic %s", declared)
	}
	if req.Strings && !df.Strings {
		warn(LogicFeatures{Strings: true}, "String terms outside logic %s", declared)
	}
	return out
}
