// Package golint is the repository's own determinism and
// fuel-completeness linter. The reproduction's core guarantee — same
// seed, same campaign, same bug list, for any thread count — only holds
// if (a) no code path consults ambient nondeterminism and (b) every
// search loop in the solver spends from the deterministic fuel meter,
// so timeouts are step-counted rather than clock-measured. Four rules
// enforce that, over a typed, call-graph-aware view of the whole module
// (package load):
//
//   - global-rand: calls to the stateful top-level math/rand functions
//     (rand.Intn, rand.Float64, ...) are rejected everywhere; all
//     randomness must flow through an explicitly seeded *rand.Rand.
//   - wall-clock: calls to the time functions that read or schedule
//     against the real clock (time.Now, Since, Until, Sleep, After,
//     AfterFunc, Tick, NewTimer, NewTicker) are rejected everywhere.
//     The two legitimate consumers — the opt-in watchdog backstop and
//     the benchmark harness — carry in-source //golint:allow
//     directives; there is no path allowlist.
//   - map-range-render: inside a range over a map, nothing
//     order-sensitive may accumulate across iterations: no direct
//     output calls, no writes into a writer that outlives the
//     iteration, no append into a slice that is never sorted, and no
//     call to a function that (transitively, through the call graph)
//     renders output. Map iteration order must never reach rendered
//     results, trace records, or metrics.
//   - fuel-charge: in the solver packages (internal/solver/...,
//     internal/rat, internal/regex, internal/eval), every loop whose
//     bound is not syntactically evident must reach a fuel.Meter.Spend
//     call, directly or through the functions it calls. A loop that is
//     legitimately bounded for a non-obvious reason carries an explicit
//     //golint:allow fuel-charge — <reason> directive.
//
// Findings are suppressed only by in-source directives (see
// directive.go); a directive without a reason, with an unknown rule, or
// matching no finding is itself a finding.
package golint

import (
	"fmt"
	"sort"

	"repro/internal/analysis/golint/load"
)

// Finding is one linter violation.
type Finding struct {
	File    string // slash path relative to the module root
	Line    int
	Rule    string
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.File, f.Line, f.Rule, f.Message)
}

// Rule names.
const (
	RuleGlobalRand     = "global-rand"
	RuleWallClock      = "wall-clock"
	RuleMapRangeRender = "map-range-render"
	RuleFuel           = "fuel-charge"
	RuleAllowDirective = "allow-directive"
)

// LintDir loads, type-checks, and lints every non-test package under
// root (which must contain go.mod).
func LintDir(root string) ([]Finding, error) {
	prog, err := load.Load(root)
	if err != nil {
		return nil, err
	}
	return LintProgram(prog, prog.Packages()), nil
}

// LintProgram lints the given packages of an already-loaded program.
// The call graph spans the whole program, so interprocedural facts
// (fuel charges, rendering) are resolved across package boundaries even
// when only a subset of packages is being reported on.
func LintProgram(prog *load.Program, pkgs []*load.Package) []Finding {
	cg := load.BuildCallGraph(prog)
	var findings []Finding
	findings = append(findings, lintCallRules(prog, pkgs)...)
	findings = append(findings, lintMapOrder(prog, cg, pkgs)...)
	findings = append(findings, lintFuel(prog, cg, pkgs)...)

	var directives []*directive
	for _, pkg := range pkgs {
		directives = append(directives, collectDirectives(prog, pkg)...)
	}
	findings = applyDirectives(findings, directives)

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	return findings
}
