package strings_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/fuel"
	"repro/internal/gen"
	"repro/internal/smtlib"
	sstrings "repro/internal/solver/strings"
	"repro/internal/telemetry"
)

// goldenProblem is one named strings.Check input of the golden corpus.
type goldenProblem struct {
	name string
	lits []ast.Term
}

// goldenCorpus builds the fixed problem set pinned by TestCheckGolden:
// conjunctions extracted from generated QF_S, QF_SLIA and StringFuzz
// seeds and from fusions of those seeds, at fixed generator and fusion
// seeds.
func goldenCorpus(t testing.TB) []goldenProblem {
	var out []goldenProblem
	for _, logic := range []gen.Logic{gen.QFS, gen.QFSLIA, gen.StringFuzz} {
		g, err := gen.New(logic, 41)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(43))
		var seeds []*core.Seed
		for i := 0; i < 10; i++ {
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
				tag := "first"
				if last {
					tag = "last"
				}
				out = append(out, goldenProblem{name + "/" + tag, conjunctionOf(scripts[name], last)})
			}
		}
	}
	return out
}

// conjunctionOf extracts one conjunction of literals from a script:
// top-level conjunctions are flattened, a disjunction contributes its
// first (or last) disjunct, and every other assert is one literal.
func conjunctionOf(s *smtlib.Script, last bool) []ast.Term {
	var lits []ast.Term
	var walk func(t ast.Term)
	walk = func(t ast.Term) {
		if app, ok := t.(*ast.App); ok {
			switch app.Op {
			case ast.OpAnd:
				for _, a := range app.Args {
					walk(a)
				}
				return
			case ast.OpOr:
				if last {
					walk(app.Args[len(app.Args)-1])
				} else {
					walk(app.Args[0])
				}
				return
			}
		}
		lits = append(lits, t)
	}
	for _, a := range s.Asserts() {
		walk(a)
	}
	return lits
}

// goldenLine runs one problem and renders its status, fuel, DFS and
// warm-cache counters, and model.
func goldenLine(gp goldenProblem, mode string, w *sstrings.Warm) string {
	m := fuel.NewMeter(1 << 40)
	tr := telemetry.NewTracker()
	st, model := sstrings.Check(&sstrings.Problem{Lits: gp.lits, Fuel: m, Telem: tr, Warm: w})
	c := tr.Snapshot().Counters
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s %s fuel=%d dfs=%d hits=%d misses=%d", gp.name, mode, st, m.Spent(),
		c["yy_strings_dfs_steps_total"], c["yy_warm_eval_hits_total"], c["yy_warm_eval_misses_total"])
	b.WriteString(renderModel(model))
	return b.String()
}

func renderModel(model eval.Model) string {
	names := make([]string, 0, len(model))
	for v := range model {
		names = append(names, v)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, v := range names {
		fmt.Fprintf(&b, " %q=%s", v, model[v])
	}
	return b.String()
}

// TestCheckGolden pins strings.Check on the golden corpus, cold and
// through one Warm shared by the whole corpus in order: status, model,
// fuel spent, DFS steps and warm-cache hits and misses must equal
// testdata/golden/check.txt line for line.
func TestCheckGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden", "check.txt"))
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	corpus := goldenCorpus(t)
	var got []string
	for _, gp := range corpus {
		got = append(got, goldenLine(gp, "cold", nil))
	}
	w := sstrings.NewWarm()
	for _, gp := range corpus {
		got = append(got, goldenLine(gp, "warm", w))
	}
	if len(got) != len(wantLines) {
		t.Fatalf("corpus renders %d lines, golden file has %d", len(got), len(wantLines))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i, got[i], wantLines[i])
		}
	}
}

// tb is the term table the package's tests build in.
var tb = ast.NewTable(nil)
