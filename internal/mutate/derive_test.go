package mutate_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/mutate"
	"repro/internal/smtlib"
)

// goldenPath is the committed rendering of deriveGolden.
var goldenPath = filepath.Join("testdata", "golden", "derive.txt")

// deriveGolden renders a fixed sample of every derivation engine over
// the generator corpus: for each logic, generator seed 61 and one
// derivation RNG (seed 67) drawn by every engine in turn. Each logic
// fuses and concatenates two pairs of each status combination (sat
// and sat, unsat and unsat, sat and unsat, unsat and sat: the mixed
// pairs reach both mixed modes), mutates and wild-mutates each of its
// six seeds, and derives a metamorphic variant of each wild mutant.
// Since one RNG serves them all, a derivation that draws once more or
// less moves every line after it.
func deriveGolden(t *testing.T) string {
	var b strings.Builder
	for _, logic := range gen.AllLogics {
		g, err := gen.New(logic, 61)
		if err != nil {
			t.Fatal(err)
		}
		tb := g.Terms()
		rng := rand.New(rand.NewSource(67))
		var sats, unsats []*core.Seed
		for i := 0; i < 3; i++ {
			sats = append(sats, g.Sat())
			unsats = append(unsats, g.Unsat())
		}
		pairs := [][2]*core.Seed{
			{sats[0], sats[1]}, {sats[1], sats[2]},
			{unsats[0], unsats[1]}, {unsats[1], unsats[2]},
			{sats[0], unsats[0]}, {sats[2], unsats[1]},
			{unsats[2], sats[1]}, {unsats[0], sats[2]},
		}
		for i, p := range pairs {
			f, err := core.Fuse(tb, p[0], p[1], rng, core.Options{})
			writeFused(&b, fmt.Sprintf("%s fuse %d", logic, i), f, err)
		}
		for i, p := range pairs {
			f, err := core.Concat(tb, p[0], p[1], rng)
			writeFused(&b, fmt.Sprintf("%s concat %d", logic, i), f, err)
		}
		seeds := append(append([]*core.Seed{}, sats...), unsats...)
		for i, s := range seeds {
			m, err := mutate.Mutate(tb, s, rng)
			writeMutant(&b, fmt.Sprintf("%s mutate %d", logic, i), m, err)
		}
		for i, s := range seeds {
			m, err := mutate.Wild(tb, s, rng)
			writeMutant(&b, fmt.Sprintf("%s wild %d", logic, i), m, err)
			if err != nil {
				continue
			}
			v, err := mutate.DeriveVariant(tb, m.Script, rng)
			header(&b, fmt.Sprintf("%s variant %d", logic, i), err)
			if err == nil {
				fmt.Fprintf(&b, "relation %s rules %v\n%s", v.Rel, v.Rules, smtlib.Print(v.Script))
			}
		}
	}
	return b.String()
}

func header(b *strings.Builder, name string, err error) {
	fmt.Fprintf(b, "## %s\n", name)
	if err != nil {
		fmt.Fprintf(b, "error: %v\n", err)
	}
}

func writeFused(b *strings.Builder, name string, f *core.Fused, err error) {
	header(b, name, err)
	if err != nil {
		return
	}
	fmt.Fprintf(b, "mode %s oracle %s\n", f.Mode, f.Oracle)
	for _, tr := range f.Triplets {
		fmt.Fprintf(b, "triplet %s %s %s %s: %s\n", tr.Z, tr.X, tr.Y, tr.Sort, tr.Function)
	}
	writeModel(b, f.Witness)
	b.WriteString(smtlib.Print(f.Script))
}

func writeMutant(b *strings.Builder, name string, m *mutate.Mutant, err error) {
	header(b, name, err)
	if err != nil {
		return
	}
	fmt.Fprintf(b, "oracle %s rules %v\n%s", m.Oracle, m.Rules, smtlib.Print(m.Script))
}

func writeModel(b *strings.Builder, m eval.Model) {
	if m == nil {
		return
	}
	names := make([]string, 0, len(m))
	for v := range m {
		names = append(names, v)
	}
	sort.Strings(names)
	b.WriteString("witness")
	for _, v := range names {
		fmt.Fprintf(b, " %s=%s", v, m[v])
	}
	b.WriteString("\n")
}

// TestDeriveGolden pins every derivation engine byte for byte: the
// derived scripts, fusion modes, triplets and witness models, mutation
// rule lists and variant relations must equal testdata/golden/derive.txt.
// A refactor of fusion, concatenation or mutation that moves an RNG
// draw or changes one derived byte fails here.
func TestDeriveGolden(t *testing.T) {
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	got := deriveGolden(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("got %d lines, golden file %d", len(gl), len(wl))
}

// FuzzDerive drives every derivation engine from a (logic, generator
// seed, derivation seed) triple: two generated seeds of drawn statuses
// are fused and concatenated, the first is mutated, and the second
// wild-mutated and the wild mutant's metamorphic variant derived. No
// derivation may fail the static gate, a mutant may not lose its
// seed's witness, and every derived script must survive a print →
// parse → print round trip byte for byte. Only an engine finding no
// site or pair may decline.
func FuzzDerive(f *testing.F) {
	for i := range gen.AllLogics {
		f.Add(uint8(i), int64(i), int64(7*i+1))
	}
	f.Fuzz(func(t *testing.T, logic uint8, genSeed, rngSeed int64) {
		g, err := gen.New(gen.AllLogics[int(logic)%len(gen.AllLogics)], genSeed)
		if err != nil {
			t.Fatal(err)
		}
		tb := g.Terms()
		rng := rand.New(rand.NewSource(rngSeed))
		s1 := g.Generate(core.Status(rng.Intn(2)))
		s2 := g.Generate(core.Status(rng.Intn(2)))
		// derived reports whether an engine derived a script; it fails
		// on any error but a declined derivation.
		derived := func(what string, err error) bool {
			t.Helper()
			var ge *analysis.GateError
			switch {
			case err == nil:
				return true
			case errors.Is(err, core.ErrNoFusablePair), errors.Is(err, mutate.ErrNoMutationSite):
				return false
			case errors.As(err, &ge):
				t.Fatalf("%s failed the static gate: %v", what, err)
			default:
				t.Fatalf("%s: %v", what, err)
			}
			return false
		}
		roundTrip := func(what string, sc *smtlib.Script) {
			t.Helper()
			text := smtlib.Print(sc)
			back, err := smtlib.ParseScript(text)
			if err != nil {
				t.Fatalf("%s does not reparse: %v\n%s", what, err, text)
			}
			if again := smtlib.Print(back); again != text {
				t.Fatalf("%s round trip changed the script:\n%s\nvs\n%s", what, text, again)
			}
		}
		if fused, err := core.Fuse(tb, s1, s2, rng, core.Options{}); derived("fusion", err) {
			roundTrip("fusion", fused.Script)
		}
		if cat, err := core.Concat(tb, s1, s2, rng); derived("concatenation", err) {
			roundTrip("concatenation", cat.Script)
		}
		if mut, err := mutate.Mutate(tb, s1, rng); derived("mutant", err) {
			roundTrip("mutant", mut.Script)
		}
		wild, err := mutate.Wild(tb, s2, rng)
		if !derived("wild mutant", err) {
			return
		}
		roundTrip("wild mutant", wild.Script)
		if v, err := mutate.DeriveVariant(tb, wild.Script, rng); derived("variant", err) {
			roundTrip("variant", v.Script)
		}
	})
}
