// Command solve runs the reference solver — or a simulated
// solver-under-test release — on an SMT-LIB file and prints sat /
// unsat / unknown (and optionally a model), mimicking the command-line
// contract of the solvers the paper tests.
//
// Usage:
//
//	solve [-sut z3sim|cvc4sim] [-release trunk] [-fuel N] [-model] [-validate] [-expect V] [-stats] file.smt2
//
// A solve that exhausts its deterministic step budget prints "timeout",
// the analogue of a real solver hitting its time limit.
//
// -expect compares the verdict against V and exits 3 on mismatch. V is
// normalized by the same parser the cross-check backends use on
// external solver output, so it tolerates case, CRLF, surrounding
// whitespace, and `;` comment lines — a captured solver transcript can
// be passed verbatim.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/ast"
	"repro/internal/backend"
	"repro/internal/bugdb"
	"repro/internal/eval"
	"repro/internal/harness"
	"repro/internal/smtlib"
	"repro/internal/solver"
	"repro/internal/telemetry"
)

func main() {
	sutName := flag.String("sut", "", "simulated solver under test (z3sim or cvc4sim); empty = reference solver")
	release := flag.String("release", "trunk", "SUT release version")
	showModel := flag.Bool("model", false, "print the model on sat")
	validate := flag.Bool("validate", false, "on sat, evaluate the model against the input asserts; exit 3 if it fails")
	expect := flag.String("expect", "", "expected verdict (sat/unsat/unknown/timeout, any case/decoration); exit 3 on mismatch")
	stats := flag.Bool("stats", false, "print the solve's step-counter summary (decisions, pivots, DFS nodes, …) to stderr")
	fuel := flag.Int64("fuel", 0, "deterministic step budget (0 = default, negative = unlimited)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: solve [-sut z3sim|cvc4sim] [-release trunk] [-fuel N] [-model] [-validate] [-expect V] [-stats] file.smt2")
		os.Exit(2)
	}

	var tr *telemetry.Tracker
	if *stats {
		tr = telemetry.NewTracker()
	}
	// The script is parsed into tb and the solver builds there too.
	tb := ast.NewTable(nil)
	var s *solver.Solver
	if *sutName == "" {
		s = solver.New(solver.Config{Fuel: *fuel, Telemetry: tr, Terms: tb})
	} else {
		defects, err := bugdb.DefectsIn(bugdb.SUT(*sutName), *release)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		s = solver.New(solver.Config{Defects: defects, Fuel: *fuel, Telemetry: tr, Terms: tb})
	}

	defer func() {
		if r := recover(); r != nil {
			// Crash defects surface the way real solver crashes do.
			fmt.Fprintln(os.Stderr, r)
			os.Exit(139)
		}
	}()

	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
	script, err := smtlib.ParseScriptIn(tb, string(data))
	if err != nil {
		fmt.Fprintln(os.Stderr, "parse error:", err)
		os.Exit(1)
	}

	out := s.SolveScript(script)
	fmt.Println(out.Result)
	if (out.Result == solver.ResUnknown || out.Result == solver.ResTimeout) && out.Reason != "" {
		fmt.Fprintln(os.Stderr, "; reason:", out.Reason)
	}
	if *stats {
		if err := telemetry.WriteSummary(os.Stderr, tr.Snapshot()); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
	}
	if *showModel && out.Result == solver.ResSat {
		printModel(out.Model)
	}
	if *validate && out.Result == solver.ResSat {
		if ok, reason := harness.ValidateModel(script, out.Model); !ok {
			fmt.Fprintln(os.Stderr, "; invalid model:", reason)
			os.Exit(3)
		}
	}
	if *expect != "" {
		want, ok := backend.ParseVerdict(*expect)
		if !ok {
			fmt.Fprintf(os.Stderr, "error: -expect %q contains no verdict token\n", *expect)
			os.Exit(2)
		}
		if got := backend.FromResult(out.Result); got != want {
			fmt.Fprintf(os.Stderr, "; expected %s, got %s\n", want, got)
			os.Exit(3)
		}
	}
}

// printModel prints a sat model in define-fun form, names sorted.
func printModel(model eval.Model) {
	var names []string
	for name := range model {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Println("(")
	for _, name := range names {
		fmt.Printf("  (define-fun %s () %s %s)\n", name, model[name].Sort(), model[name])
	}
	fmt.Println(")")
}
