package arith_test

import (
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/fuel"
	"repro/internal/gen"
	"repro/internal/smtlib"
	"repro/internal/solver/arith"
	"repro/internal/telemetry"
)

// goldenProblem is one named arith.Check input of the golden corpus.
type goldenProblem struct {
	name string
	p    *arith.Problem
}

// goldenCorpus builds the fixed problem set pinned by TestCheckGolden:
// conjunctions extracted from generated seeds and fused scripts of the
// linear and nonlinear arithmetic logics, plus a wide-constant set
// whose coefficients and bounds are at least 2^40, so that pivots and
// branch-and-bound leave the 64-bit range partway through.
func goldenCorpus(t testing.TB) []goldenProblem {
	var out []goldenProblem
	for _, logic := range []gen.Logic{gen.LRA, gen.LIA, gen.QFLRA, gen.QFLIA, gen.QFNIA} {
		g, err := gen.New(logic, 41)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(43))
		var seeds []*core.Seed
		for i := 0; i < 12; i++ {
			st := core.StatusSat
			if i%3 == 2 {
				st = core.StatusUnsat
			}
			seeds = append(seeds, g.Generate(st))
		}
		scripts := map[string]*smtlib.Script{}
		var names []string
		for i, s := range seeds {
			name := fmt.Sprintf("%s/seed%02d", logic, i)
			scripts[name] = s.Script
			names = append(names, name)
		}
		for i := 0; i+3 < len(seeds); i++ {
			f, err := core.Fuse(tb, seeds[i], seeds[i+3], rng, core.Options{})
			if err != nil {
				continue
			}
			name := fmt.Sprintf("%s/fused%02d", logic, i)
			scripts[name] = f.Script
			names = append(names, name)
		}
		for _, name := range names {
			for _, last := range []bool{false, true} {
				p := problemOf(scripts[name], last)
				if p == nil {
					continue
				}
				tag := "first"
				if last {
					tag = "last"
				}
				out = append(out, goldenProblem{name + "/" + tag, p})
			}
		}
	}
	for i := 0; i < 24; i++ {
		script, err := smtlib.ParseScript(wideScript(rand.New(rand.NewSource(int64(100+i))), i%2 == 0))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, goldenProblem{fmt.Sprintf("wide/%02d", i), problemOf(script, false)})
	}
	return out
}

// wideScript renders a random linear problem whose coefficients and
// constants are at least 2^40 in magnitude.
func wideScript(rng *rand.Rand, ints bool) string {
	sort := "Real"
	if ints {
		sort = "Int"
	}
	nv := 3 + rng.Intn(3)
	var b strings.Builder
	for v := 0; v < nv; v++ {
		fmt.Fprintf(&b, "(declare-fun x%d () %s)\n", v, sort)
	}
	wide := func(bits uint) string {
		n := new(big.Int).Lsh(big.NewInt(1), bits)
		n.Add(n, big.NewInt(rng.Int63n(1<<40)))
		if ints {
			return n.String()
		}
		return n.String() + ".0"
	}
	rels := []string{"<=", ">=", "<", ">", "="}
	for a := 0; a < 3+rng.Intn(4); a++ {
		var sum []string
		for v := 0; v < nv; v++ {
			if rng.Intn(3) == 0 {
				continue
			}
			c := wide(40 + uint(rng.Intn(3)))
			if rng.Intn(2) == 0 {
				c = "(- " + c + ")"
			}
			sum = append(sum, fmt.Sprintf("(* %s x%d)", c, v))
		}
		if len(sum) == 0 {
			sum = append(sum, "x0")
		}
		lhs := sum[0]
		if len(sum) > 1 {
			lhs = "(+ " + strings.Join(sum, " ") + ")"
		}
		k := wide(40 + uint(rng.Intn(10)))
		if rng.Intn(2) == 0 {
			k = "(- " + k + ")"
		}
		rel := rels[rng.Intn(len(rels))]
		if rel == "=" && rng.Intn(2) == 0 {
			rel = "<="
		}
		fmt.Fprintf(&b, "(assert (%s %s %s))\n", rel, lhs, k)
	}
	return b.String()
}

// problemOf extracts one conjunction of arithmetic literals from a
// script: top-level conjunctions are flattened, a disjunction
// contributes its first (or last) disjunct, quantifier bodies are
// entered, and nonlinear subterms are abstracted as the reference
// solver does. It returns nil when no literal converts.
func problemOf(s *smtlib.Script, last bool) *arith.Problem {
	abs := arith.NewAbstractor("\x00nl!")
	p := &arith.Problem{IntVars: map[string]bool{}}
	var walk func(t ast.Term)
	walk = func(t ast.Term) {
		switch n := t.(type) {
		case *ast.Quant:
			walk(n.Body)
		case *ast.App:
			switch n.Op {
			case ast.OpAnd:
				for _, a := range n.Args {
					walk(a)
				}
			case ast.OpOr, ast.OpImplies:
				if last || n.Op == ast.OpImplies {
					walk(n.Args[len(n.Args)-1])
				} else {
					walk(n.Args[0])
				}
			default:
				if a, ok := atomOf(n, abs); ok {
					p.Atoms = append(p.Atoms, a)
					for _, v := range ast.FreeVars(n) {
						if v.VSort == ast.SortInt {
							p.IntVars[v.Name] = true
						}
					}
				}
			}
		}
	}
	for _, a := range s.Asserts() {
		walk(a)
	}
	for v := range abs.Terms() {
		if srt, ok := abs.Sort(v); ok && srt == ast.SortInt {
			p.IntVars[v] = true
		}
	}
	if len(p.Atoms) == 0 {
		return nil
	}
	return p
}

func atomOf(t ast.Term, abs *arith.Abstractor) (arith.Atom, bool) {
	polarity := true
	app, _ := t.(*ast.App)
	for app != nil && app.Op == ast.OpNot {
		app, _ = app.Args[0].(*ast.App)
		polarity = !polarity
	}
	if app == nil || len(app.Args) != 2 || !app.Args[0].Sort().IsArith() {
		return arith.Atom{}, false
	}
	rel, ok := map[ast.Op]arith.Rel{
		ast.OpLe: arith.RelLe, ast.OpLt: arith.RelLt, ast.OpGe: arith.RelGe,
		ast.OpGt: arith.RelGt, ast.OpEq: arith.RelEq, ast.OpDistinct: arith.RelNe,
	}[app.Op]
	if !ok {
		return arith.Atom{}, false
	}
	if !polarity {
		rel = rel.Negate()
	}
	e, err := arith.LinearizeDiff(app.Args[0], app.Args[1], abs)
	if err != nil {
		return arith.Atom{}, false
	}
	return arith.Atom{Expr: e, Rel: rel}, true
}

// goldenLine runs one problem and renders its status, fuel, step
// counters and model.
func goldenLine(gp goldenProblem) string {
	m := fuel.NewMeter(1 << 40)
	tr := telemetry.NewTracker()
	gp.p.Fuel, gp.p.Telem = m, tr
	st, model := arith.Check(gp.p)
	c := tr.Snapshot().Counters
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s fuel=%d pivots=%d hits=%d misses=%d bnb=%d", gp.name, st, m.Spent(),
		c["yy_simplex_pivots_total"], c["yy_tableau_warm_hits_total"],
		c["yy_tableau_warm_misses_total"], c["yy_arith_bnb_nodes_total"])
	for i, v := range model.Names {
		fmt.Fprintf(&b, " %q=%s", v, model.Vals[i].Big().RatString())
	}
	return b.String()
}

// TestCheckGolden pins arith.Check on the golden corpus: status, model,
// pivot, tableau warm-start and branch-and-bound counters, and fuel
// spent must equal testdata/golden/check.txt line for line.
func TestCheckGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden", "check.txt"))
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	corpus := goldenCorpus(t)
	if len(corpus) != len(wantLines) {
		t.Fatalf("corpus has %d problems, golden file %d lines", len(corpus), len(wantLines))
	}
	wideOverflow := false
	for i, gp := range corpus {
		got := goldenLine(gp)
		if got != wantLines[i] {
			t.Errorf("problem %d:\n got %s\nwant %s", i, got, wantLines[i])
		}
		if strings.HasPrefix(gp.name, "wide/") && beyondInt64(got) {
			wideOverflow = true
		}
	}
	if !wideOverflow {
		t.Error("no wide-constant model leaves the 64-bit range; the set no longer exercises the overflow paths")
	}
}

// beyondInt64 reports whether a rendered golden line holds a model
// value whose numerator or denominator does not fit in an int64.
func beyondInt64(line string) bool {
	for _, f := range strings.Fields(line) {
		i := strings.LastIndexByte(f, '=')
		if i < 0 || !strings.HasPrefix(f, `"`) {
			continue
		}
		r, ok := new(big.Rat).SetString(f[i+1:])
		if ok && (!r.Num().IsInt64() || !r.Denom().IsInt64()) {
			return true
		}
	}
	return false
}

// BenchmarkArithCheck runs arith.Check over the generated and fused
// problems of the golden corpus (the wide-constant set excluded), one
// pass per op.
func BenchmarkArithCheck(b *testing.B) {
	var ps []*arith.Problem
	for _, gp := range goldenCorpus(b) {
		if !strings.HasPrefix(gp.name, "wide/") {
			ps = append(ps, gp.p)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range ps {
			arith.Check(p)
		}
	}
}

// tb is the term table the package's tests build in.
var tb = ast.NewTable(nil)
