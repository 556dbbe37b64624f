// Package gen generates seed formulas of known satisfiability for
// every logic in the paper's evaluation (Figure 7): LIA, LRA, NRA,
// QF_LIA, QF_LRA, QF_NRA, QF_NIA, QF_S, QF_SLIA, and a StringFuzz-style
// QF_S generator. It substitutes for the SMT-LIB and StringFuzz
// benchmark suites: satisfiable seeds are generated model-first (sample
// a witness, emit only atoms that hold under it), unsatisfiable seeds
// embed a contradiction core under satisfiable noise — so every seed's
// label is ground truth by construction, and each SAT seed carries its
// witness for fusion-function selection.
package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/rat"
	"repro/internal/smtlib"
)

// Logic identifies a seed family.
type Logic string

// The supported logics (the paper's Figure 7 benchmark rows).
const (
	LIA        Logic = "LIA"
	LRA        Logic = "LRA"
	NRA        Logic = "NRA"
	QFLIA      Logic = "QF_LIA"
	QFLRA      Logic = "QF_LRA"
	QFNRA      Logic = "QF_NRA"
	QFNIA      Logic = "QF_NIA"
	QFS        Logic = "QF_S"
	QFSLIA     Logic = "QF_SLIA"
	StringFuzz Logic = "StringFuzz"
)

// AllLogics lists every supported logic in Figure 7 order.
var AllLogics = []Logic{LIA, LRA, NRA, QFLIA, QFLRA, QFNRA, QFNIA, QFS, QFSLIA, StringFuzz}

type traits struct {
	quantified bool
	nonlinear  bool
	sort       ast.Sort // main numeric sort (Int or Real); strings imply SortString
	strings    bool
	ints       bool // string logics: integer operations allowed
}

func traitsOf(l Logic) (traits, error) {
	switch l {
	case LIA:
		return traits{quantified: true, sort: ast.SortInt}, nil
	case LRA:
		return traits{quantified: true, sort: ast.SortReal}, nil
	case NRA:
		return traits{quantified: true, nonlinear: true, sort: ast.SortReal}, nil
	case QFLIA:
		return traits{sort: ast.SortInt}, nil
	case QFLRA:
		return traits{sort: ast.SortReal}, nil
	case QFNRA:
		return traits{nonlinear: true, sort: ast.SortReal}, nil
	case QFNIA:
		return traits{nonlinear: true, sort: ast.SortInt}, nil
	case QFS, StringFuzz:
		return traits{strings: true, sort: ast.SortString}, nil
	case QFSLIA:
		return traits{strings: true, ints: true, sort: ast.SortString}, nil
	default:
		return traits{}, fmt.Errorf("gen: unknown logic %q", l)
	}
}

// Generator produces seeds for one logic.
type Generator struct {
	tb    *ast.Table
	logic Logic
	tr    traits
	rng   *rand.Rand
	n     int // serial for variable naming
}

// New returns a generator for the logic with a deterministic stream,
// building its seeds in a table of its own (Terms).
func New(logic Logic, seed int64) (*Generator, error) {
	return NewIn(ast.NewTable(nil), logic, seed)
}

// NewIn is New building its seeds in tb.
func NewIn(tb *ast.Table, logic Logic, seed int64) (*Generator, error) {
	tr, err := traitsOf(logic)
	if err != nil {
		return nil, err
	}
	return &Generator{tb: tb, logic: logic, tr: tr, rng: rand.New(rand.NewSource(seed))}, nil
}

// Terms returns the table the generator builds its seeds in: a solver
// that vets them, or a fuser that combines them, works in it too.
func (g *Generator) Terms() *ast.Table { return g.tb }

// Logic returns the generator's logic.
func (g *Generator) Logic() Logic { return g.logic }

// Generate produces a seed with the given status.
func (g *Generator) Generate(status core.Status) *core.Seed {
	if status == core.StatusSat {
		return g.Sat()
	}
	return g.Unsat()
}

// Sat generates a satisfiable seed with its witness model. The witness
// is validated by evaluation; generation retries on the (never
// expected) validation failure and panics if it persists, since a
// mislabeled seed would corrupt the fuzzing oracle.
func (g *Generator) Sat() *core.Seed {
	for attempt := 0; attempt < 10; attempt++ {
		seed := g.satOnce()
		if validate(seed) {
			return seed
		}
	}
	panic(fmt.Sprintf("gen: %s SAT seed failed witness validation repeatedly", g.logic))
}

func validate(seed *core.Seed) bool {
	for _, a := range seed.Script.Asserts() {
		if ast.HasQuantifier(a) {
			continue // quantified conjuncts are valid-by-template
		}
		ok, err := eval.Bool(a, seed.Witness)
		if err != nil || !ok {
			return false
		}
	}
	return true
}

func (g *Generator) satOnce() *core.Seed {
	if g.tr.strings {
		return g.satStrings()
	}
	return g.satArith()
}

// Unsat generates an unsatisfiable seed: a contradiction core plus
// satisfiable noise.
func (g *Generator) Unsat() *core.Seed {
	if g.tr.strings {
		return g.unsatStrings()
	}
	return g.unsatArith()
}

// --- shared helpers ---

func (g *Generator) fresh(prefix string) string {
	g.n++
	return fmt.Sprintf("%s%d", prefix, g.n)
}

func (g *Generator) script(decls []*smtlib.DeclareFun, asserts []ast.Term) *smtlib.Script {
	logic := string(g.logic)
	if g.logic == StringFuzz {
		// StringFuzz is a generator family, not an SMT-LIB logic name;
		// its scripts declare the standard string logic.
		logic = string(QFS)
	}
	return smtlib.NewScript(logic, decls, asserts)
}

// randInt samples a small integer value.
func (g *Generator) randInt() rat.Rat {
	return rat.Int(int64(g.rng.Intn(41) - 20))
}

// randRat samples a small rational value.
func (g *Generator) randRat() rat.Rat {
	den := int64(1 + g.rng.Intn(4))
	num := int64(g.rng.Intn(41) - 20)
	return rat.New(num, den)
}

// numLit returns a literal of the generator's sort for v, truncated
// toward zero in Int.
func (g *Generator) numLit(v rat.Rat) ast.Term {
	if g.tr.sort == ast.SortInt {
		return g.tb.IntRat(v.Trunc())
	}
	return g.tb.RealRat(v)
}

const strAlphabet = "abc01"

func (g *Generator) randStr(maxLen int) string {
	n := g.rng.Intn(maxLen + 1)
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = strAlphabet[g.rng.Intn(len(strAlphabet))]
	}
	return string(buf)
}
