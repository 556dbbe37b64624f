// Command yylint is the repository's lint front end. It has two modes:
//
// SMT-LIB mode (default) runs the internal/analysis static verification
// passes — the same passes that gate fusion in internal/core — over
// script files:
//
//	yylint [-json] [-fail-on error|warning|info] [-passes p1,p2,...] file.smt2...
//
// Go mode (-go) runs the typed, call-graph-aware determinism and
// fuel-completeness linter (internal/analysis/golint) over a module
// root:
//
//	yylint -go [-json] [module root]
//
// With -json, diagnostics are emitted as a JSON array with the stable
// schema {"pass", "severity", "path", "message"}; path carries the
// position anchor ("file.smt2:assert[0].arg[1]", "internal/x/y.go:42").
// In both modes and both formats diagnostics are sorted by (path,
// position, pass, message) and exact duplicates are dropped.
//
// Exit status:
//
//	0  no diagnostic at or above the -fail-on severity
//	1  at least one diagnostic at or above the -fail-on severity
//	2  usage, read, parse, or type-check errors
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/golint"
	"repro/internal/smtlib"
)

// record is one diagnostic in the CLI's unified, mode-independent form.
// Pass/Severity/Path/Message is the documented JSON schema; the
// unexported fields order records by (file, position, pass, message).
type record struct {
	Pass     string `json:"pass"`
	Severity string `json:"severity"`
	Path     string `json:"path"`
	Message  string `json:"message"`

	file string
	line int    // Go findings: 1-based line
	term string // SMT findings: term path within the script
	sev  analysis.Severity
}

func main() {
	goMode := flag.Bool("go", false, "lint Go sources under a module root instead of SMT-LIB files")
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array")
	failOn := flag.String("fail-on", "warning", "minimum severity that causes exit status 1 (error, warning, or info)")
	passNames := flag.String("passes", "", "comma-separated SMT-LIB pass names to run (default: all passes)")
	list := flag.Bool("list", false, "list the SMT-LIB passes and exit")
	flag.Parse()

	if *list {
		var names []string
		for _, p := range analysis.Passes() {
			names = append(names, p.Name())
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Println(n)
		}
		return
	}

	threshold, ok := analysis.SeverityByName(*failOn)
	if !ok {
		fmt.Fprintf(os.Stderr, "yylint: unknown severity %q (want error, warning, or info)\n", *failOn)
		os.Exit(2)
	}

	var records []record
	if *goMode {
		records = lintGo()
	} else {
		records = lintScripts(*passNames)
	}
	records = sortDedup(records)

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if records == nil {
			records = []record{}
		}
		if err := enc.Encode(records); err != nil {
			fmt.Fprintln(os.Stderr, "yylint:", err)
			os.Exit(2)
		}
	} else {
		for _, r := range records {
			fmt.Printf("%s: [%s] %s: %s\n", r.Path, r.Severity, r.Pass, r.Message)
		}
	}

	for _, r := range records {
		if r.sev >= threshold {
			os.Exit(1)
		}
	}
}

// lintGo runs the Go linter over the module root given as the sole
// positional argument (default ".").
func lintGo() []record {
	root := "."
	switch flag.NArg() {
	case 0:
	case 1:
		root = flag.Arg(0)
	default:
		fmt.Fprintln(os.Stderr, "usage: yylint -go [-json] [module root]")
		os.Exit(2)
	}
	findings, err := golint.LintDir(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "yylint:", err)
		os.Exit(2)
	}
	out := make([]record, 0, len(findings))
	for _, f := range findings {
		out = append(out, record{
			Pass:     f.Rule,
			Severity: analysis.SeverityWarning.String(),
			Path:     fmt.Sprintf("%s:%d", f.File, f.Line),
			Message:  f.Message,
			file:     f.File,
			line:     f.Line,
			sev:      analysis.SeverityWarning,
		})
	}
	return out
}

// lintScripts runs the SMT-LIB analysis passes over the positional file
// arguments.
func lintScripts(passNames string) []record {
	var passes []analysis.Pass // none selected: AnalyzeScript runs them all
	if passNames != "" {
		for _, name := range strings.Split(passNames, ",") {
			name = strings.TrimSpace(name)
			p, ok := analysis.Lookup(name)
			if !ok {
				fmt.Fprintf(os.Stderr, "yylint: unknown pass %q (try -list)\n", name)
				os.Exit(2)
			}
			passes = append(passes, p)
		}
	}
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: yylint [-json] [-fail-on S] [-passes p1,p2] file.smt2...")
		os.Exit(2)
	}
	var out []record
	for _, path := range flag.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "yylint:", err)
			os.Exit(2)
		}
		script, err := smtlib.ParseScript(string(data))
		if err != nil {
			fmt.Fprintf(os.Stderr, "yylint: %s: parse error: %v\n", path, err)
			os.Exit(2)
		}
		for _, d := range analysis.AnalyzeScript(script, nil, passes...) {
			anchor := path
			if d.Path != "" {
				anchor = path + ":" + d.Path
			}
			out = append(out, record{
				Pass:     d.Pass,
				Severity: d.Severity.String(),
				Path:     anchor,
				Message:  d.Message,
				file:     path,
				term:     d.Path,
				sev:      d.Severity,
			})
		}
	}
	return out
}

// sortDedup orders records by (path, position, pass, message) and drops
// exact duplicates, so output is byte-stable across runs and pass
// registration order.
func sortDedup(records []record) []record {
	sort.Slice(records, func(i, j int) bool {
		a, b := records[i], records[j]
		if a.file != b.file {
			return a.file < b.file
		}
		if a.line != b.line {
			return a.line < b.line
		}
		if a.term != b.term {
			return a.term < b.term
		}
		if a.Pass != b.Pass {
			return a.Pass < b.Pass
		}
		return a.Message < b.Message
	})
	out := records[:0]
	for i, r := range records {
		if i > 0 {
			p := records[i-1]
			if p.Pass == r.Pass && p.Severity == r.Severity && p.Path == r.Path && p.Message == r.Message {
				continue
			}
		}
		out = append(out, r)
	}
	return out
}
