// Package analysis is a multi-pass static analyzer over SMT-LIB
// scripts. It re-verifies properties the rest of the pipeline assumes
// by construction: well-sortedness wherever term construction could
// not vouch for it (forged and table-less nodes, variable occurrences,
// declarations), conformance of the formula to its declared logic,
// guarding of possibly-zero divisors, the fusion engine's structural
// postconditions, and trivially-constant asserts.
// The passes are a fixed list (Passes). divguard is the only division
// check: the generators guard every division syntactically, and the
// solver's interval refuter (internal/solver/arith) is the one
// interval domain in the repository.
//
// The analyzer is wired in three places: internal/core runs the
// error-level passes as a hard gate after every fusion (a diagnostic
// there is a fusion-engine bug, not a solver bug), internal/harness
// counts gate rejections as invalid inputs in campaign statistics, and
// cmd/yylint lints arbitrary SMT-LIB files.
package analysis

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ast"
	"repro/internal/smtlib"
)

// Severity classifies a diagnostic.
//
//   - SeverityError: the script is structurally invalid (ill-sorted,
//     undeclared variables, broken fusion postconditions). Errors gate
//     the fusion pipeline.
//   - SeverityWarning: the script is suspicious but well-formed
//     (logic non-conformance, unguarded possibly-zero divisors).
//     Warnings are enforced on generator and fusion outputs by tests,
//     not by the runtime gate.
//   - SeverityInfo: stylistic or redundancy notes (trivially constant
//     asserts). Never gated: generators legitimately emit constant
//     atoms such as (= 3 3) from literal leaves.
type Severity int8

const (
	SeverityInfo Severity = iota
	SeverityWarning
	SeverityError
)

func (s Severity) String() string {
	switch s {
	case SeverityError:
		return "error"
	case SeverityWarning:
		return "warning"
	default:
		return "info"
	}
}

// SeverityByName parses a severity name.
func SeverityByName(name string) (Severity, bool) {
	switch strings.ToLower(name) {
	case "error":
		return SeverityError, true
	case "warning", "warn":
		return SeverityWarning, true
	case "info":
		return SeverityInfo, true
	}
	return SeverityInfo, false
}

// Diagnostic is one finding: which pass produced it, how severe it is,
// where in the script it anchors (a term path such as
// "assert[2].arg[0].arg[1]", or "" for script-level findings), and a
// human-readable message.
type Diagnostic struct {
	Pass     string
	Severity Severity
	Path     string
	Message  string
}

func (d Diagnostic) String() string {
	if d.Path == "" {
		return fmt.Sprintf("[%s] %s: %s", d.Severity, d.Pass, d.Message)
	}
	return fmt.Sprintf("[%s] %s: %s: %s", d.Severity, d.Pass, d.Path, d.Message)
}

// Pass is one analysis over a script. Analyze receives the optional
// fusion metadata (nil for non-fused scripts) and returns its findings.
type Pass interface {
	Name() string
	Analyze(s *smtlib.Script, meta *FusionMeta) []Diagnostic
}

// FusionTriplet names one (z, x, y) variable fusion.
type FusionTriplet struct {
	Z, X, Y string
	Sort    ast.Sort
}

// FusionMeta describes the postconditions a fused script must satisfy.
// It is constructed by internal/core (which imports this package, not
// the other way around) and consumed by the fusion-postcondition pass.
type FusionMeta struct {
	// Mode is the fusion mode's string form (informational).
	Mode string
	// Seed1Vars and Seed2Vars are the declared variable names of the
	// two ancestors after renaming apart; they must be disjoint.
	Seed1Vars, Seed2Vars []string
	// Triplets are the fusion triplets introduced.
	Triplets []FusionTriplet
	// WantConstraints reports whether the mode requires fusion
	// constraints z = f(x,y), x = rx(y,z), y = ry(x,z) to be asserted
	// (the UNSAT and mixed-unsat modes).
	WantConstraints bool
}

// allPasses is every pass, in the order AnalyzeScript runs them.
var allPasses = []Pass{
	wellSortedPass{},
	fusionPass{},
	logicPass{},
	divGuardPass{},
	trivialPass{},
}

// Passes returns every pass in run order. The slice is a copy.
func Passes() []Pass {
	return append([]Pass(nil), allPasses...)
}

// Lookup resolves a pass by name.
func Lookup(name string) (Pass, bool) {
	for _, p := range allPasses {
		if p.Name() == name {
			return p, true
		}
	}
	return nil, false
}

// GatePasses returns the error-level passes run as the post-fusion
// hard gate: well-sortedness and the fusion postconditions.
func GatePasses() []Pass {
	return []Pass{wellSortedPass{}, fusionPass{}}
}

// AnalyzeScript runs the given passes (every pass when none are given)
// and returns the combined findings ordered by descending severity,
// then pass name, then path.
func AnalyzeScript(s *smtlib.Script, meta *FusionMeta, passes ...Pass) []Diagnostic {
	if len(passes) == 0 {
		passes = allPasses
	}
	var out []Diagnostic
	for _, p := range passes {
		out = append(out, p.Analyze(s, meta)...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Severity != out[j].Severity {
			return out[i].Severity > out[j].Severity
		}
		if out[i].Pass != out[j].Pass {
			return out[i].Pass < out[j].Pass
		}
		return out[i].Path < out[j].Path
	})
	return out
}

// Filter returns the diagnostics at or above the minimum severity.
func Filter(diags []Diagnostic, min Severity) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if d.Severity >= min {
			out = append(out, d)
		}
	}
	return out
}

// MaxSeverity returns the highest severity present; ok is false when
// there are no diagnostics.
func MaxSeverity(diags []Diagnostic) (Severity, bool) {
	if len(diags) == 0 {
		return SeverityInfo, false
	}
	max := SeverityInfo
	for _, d := range diags {
		if d.Severity > max {
			max = d.Severity
		}
	}
	return max, true
}

// GateError is returned by Gate when a script fails the error-level
// passes. internal/harness matches it with errors.As to count invalid
// inputs separately from solver verdicts.
type GateError struct {
	Diagnostics []Diagnostic
}

func (e *GateError) Error() string {
	if len(e.Diagnostics) == 1 {
		return "analysis: " + e.Diagnostics[0].String()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "analysis: %d findings:", len(e.Diagnostics))
	for _, d := range e.Diagnostics {
		b.WriteString("\n\t")
		b.WriteString(d.String())
	}
	return b.String()
}

// Gate runs the error-level passes and returns a *GateError when any
// error-severity diagnostic is produced.
func Gate(s *smtlib.Script, meta *FusionMeta) error {
	diags := Filter(AnalyzeScript(s, meta, GatePasses()...), SeverityError)
	if len(diags) > 0 {
		return &GateError{Diagnostics: diags}
	}
	return nil
}
