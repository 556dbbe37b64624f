// Package mutate implements type-aware operator mutation of seed
// formulas — the second test-generation pipeline next to semantic
// fusion, after "On the Unusual Effectiveness of Type-Aware Operator
// Mutations for Testing SMT Solvers" (Winterer, Zhang, Su).
//
// Every mutation preserves the seed's recorded satisfiability, so a
// mutant inherits its ancestor's oracle. Soundness rests on polarity:
//
//   - An equivalence rewrite ((< a b) ↔ (<= a b) ∧ (distinct a b),
//     (>= a b) ↔ (<= b a), (distinct a b) ↔ ¬(= a b), …) is valid at
//     any position under any oracle.
//   - A weakening (original ⇒ mutant: < to ≤, and to or, prefixof to
//     contains, …) applied at a positive position weakens the whole
//     formula, so a sat seed stays sat; applied at a negative position
//     it strengthens the formula, so an unsat seed stays unsat.
//   - A strengthening (mutant ⇒ original: ≤ to <, or to and, …) is the
//     mirror image: negative positions on sat seeds, positive positions
//     on unsat seeds.
//   - Positions of unknown monotonicity (below xor, bool equality,
//     distinct, or an ite condition) take only equivalence rewrites.
//
// Belt and braces, the engine re-evaluates a sat seed's witness against
// the mutant and runs the static analysis gate, so a rule bug surfaces
// as a structured error rather than a bogus campaign finding.
package mutate

import (
	"errors"
	"math/rand"

	"repro/internal/analysis"
	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/smtlib"
)

// ErrNoMutationSite is returned when no rule applies anywhere in the
// seed (the mutation analogue of core.ErrNoFusablePair).
var ErrNoMutationSite = errors.New("mutate: no applicable mutation site")

// ErrWitnessLost marks a mutation-engine bug: a supposedly
// sat-preserving mutation invalidated the seed's witness.
var ErrWitnessLost = errors.New("mutate: sat witness no longer satisfies the mutant")

// Options tunes the engine.
type Options struct {
	// MaxMutations bounds the mutations stacked onto one seed; each
	// mutant applies 1..MaxMutations rules. 0 means the default of 2.
	MaxMutations int
}

// Mutant is one mutation result: the mutated script, its inherited
// oracle, and the applied rule names in application order.
type Mutant struct {
	Script *smtlib.Script
	Seed   *core.Seed
	Oracle core.Status
	Rules  []string
}

// Kind classifies a rule's logical direction.
type Kind int8

const (
	// Equivalence rewrites are logically neutral: valid anywhere.
	Equivalence Kind = iota
	// Weaken rules satisfy original ⇒ mutant at the rewritten node.
	Weaken
	// Strengthen rules satisfy mutant ⇒ original at the rewritten node.
	Strengthen
)

// Rule is one operator mutation, keyed by the operator and argument
// sorts its Match accepts.
type Rule struct {
	Name  string
	Kind  Kind
	Match func(*ast.App) bool
	Apply func(*ast.Table, *ast.App) ast.Term
}

func isOp(op ast.Op, arity int) func(*ast.App) bool {
	return func(a *ast.App) bool { return a.Op == op && len(a.Args) == arity }
}

func isOpMin(op ast.Op, min int) func(*ast.App) bool {
	return func(a *ast.App) bool { return a.Op == op && len(a.Args) >= min }
}

// numericEq matches a binary equality over Int or Real arguments (the
// only sorts where = weakens to ≤).
func numericEq(a *ast.App) bool {
	if a.Op != ast.OpEq || len(a.Args) != 2 {
		return false
	}
	s := a.Args[0].Sort()
	return s == ast.SortInt || s == ast.SortReal
}

// Rules is the type-aware rule table, in the deterministic order site
// collection enumerates it. The comparison rules need no extra sort
// checks: <, ≤, >, ≥ only type over numeric arguments, and the string
// rules only over strings — the operator is the type key.
var Rules = []Rule{
	// Weakenings (original ⇒ mutant).
	{"lt-to-le", Weaken, isOp(ast.OpLt, 2), func(tb *ast.Table, a *ast.App) ast.Term { return tb.Le(a.Args[0], a.Args[1]) }},
	{"gt-to-ge", Weaken, isOp(ast.OpGt, 2), func(tb *ast.Table, a *ast.App) ast.Term { return tb.Ge(a.Args[0], a.Args[1]) }},
	{"and-to-or", Weaken, isOpMin(ast.OpAnd, 2), func(tb *ast.Table, a *ast.App) ast.Term { return tb.Or(a.Args...) }},
	{"eq-to-le", Weaken, numericEq, func(tb *ast.Table, a *ast.App) ast.Term { return tb.Le(a.Args[0], a.Args[1]) }},
	{"prefixof-to-contains", Weaken, isOp(ast.OpStrPrefixOf, 2),
		func(tb *ast.Table, a *ast.App) ast.Term { return tb.MustApp(ast.OpStrContains, a.Args[1], a.Args[0]) }},
	{"suffixof-to-contains", Weaken, isOp(ast.OpStrSuffixOf, 2),
		func(tb *ast.Table, a *ast.App) ast.Term { return tb.MustApp(ast.OpStrContains, a.Args[1], a.Args[0]) }},
	{"strlt-to-strle", Weaken, isOp(ast.OpStrLtOp, 2),
		func(tb *ast.Table, a *ast.App) ast.Term { return tb.MustApp(ast.OpStrLeOp, a.Args[0], a.Args[1]) }},

	// Strengthenings (mutant ⇒ original).
	{"le-to-lt", Strengthen, isOp(ast.OpLe, 2), func(tb *ast.Table, a *ast.App) ast.Term { return tb.Lt(a.Args[0], a.Args[1]) }},
	{"ge-to-gt", Strengthen, isOp(ast.OpGe, 2), func(tb *ast.Table, a *ast.App) ast.Term { return tb.Gt(a.Args[0], a.Args[1]) }},
	{"or-to-and", Strengthen, isOpMin(ast.OpOr, 2), func(tb *ast.Table, a *ast.App) ast.Term { return tb.And(a.Args...) }},
	{"le-to-eq", Strengthen, isOp(ast.OpLe, 2), func(tb *ast.Table, a *ast.App) ast.Term { return tb.Eq(a.Args[0], a.Args[1]) }},
	{"contains-to-prefixof", Strengthen, isOp(ast.OpStrContains, 2),
		func(tb *ast.Table, a *ast.App) ast.Term { return tb.MustApp(ast.OpStrPrefixOf, a.Args[1], a.Args[0]) }},
	{"strle-to-strlt", Strengthen, isOp(ast.OpStrLeOp, 2),
		func(tb *ast.Table, a *ast.App) ast.Term { return tb.MustApp(ast.OpStrLtOp, a.Args[0], a.Args[1]) }},

	// Equivalences.
	{"lt-guard", Equivalence, isOp(ast.OpLt, 2), func(tb *ast.Table, a *ast.App) ast.Term {
		return tb.And(tb.Le(a.Args[0], a.Args[1]), tb.MustApp(ast.OpDistinct, a.Args[0], a.Args[1]))
	}},
	{"gt-guard", Equivalence, isOp(ast.OpGt, 2), func(tb *ast.Table, a *ast.App) ast.Term {
		return tb.And(tb.Ge(a.Args[0], a.Args[1]), tb.MustApp(ast.OpDistinct, a.Args[0], a.Args[1]))
	}},
	{"le-split", Equivalence, isOp(ast.OpLe, 2), func(tb *ast.Table, a *ast.App) ast.Term {
		return tb.Or(tb.Lt(a.Args[0], a.Args[1]), tb.Eq(a.Args[0], a.Args[1]))
	}},
	{"ge-flip", Equivalence, isOp(ast.OpGe, 2), func(tb *ast.Table, a *ast.App) ast.Term { return tb.Le(a.Args[1], a.Args[0]) }},
	{"gt-flip", Equivalence, isOp(ast.OpGt, 2), func(tb *ast.Table, a *ast.App) ast.Term { return tb.Lt(a.Args[1], a.Args[0]) }},
	{"distinct-to-noteq", Equivalence, isOp(ast.OpDistinct, 2),
		func(tb *ast.Table, a *ast.App) ast.Term { return tb.Not(tb.Eq(a.Args[0], a.Args[1])) }},
	{"noteq-to-distinct", Equivalence, func(a *ast.App) bool {
		if a.Op != ast.OpNot {
			return false
		}
		eq, ok := a.Args[0].(*ast.App)
		return ok && eq.Op == ast.OpEq && len(eq.Args) == 2
	}, func(tb *ast.Table, a *ast.App) ast.Term {
		eq := a.Args[0].(*ast.App)
		return tb.MustApp(ast.OpDistinct, eq.Args[0], eq.Args[1])
	}},
}

// applicable reports whether a rule of the given kind may fire at a
// position of the given polarity under the seed's status.
func applicable(kind Kind, pol int8, status core.Status) bool {
	switch kind {
	case Equivalence:
		return true
	case Weaken:
		return (pol == +1 && status == core.StatusSat) ||
			(pol == -1 && status == core.StatusUnsat)
	default: // Strengthen
		return (pol == +1 && status == core.StatusUnsat) ||
			(pol == -1 && status == core.StatusSat)
	}
}

// site addresses one applicable (node, rule) pair: the assert index,
// the node's pre-order position within that assert, the rule, and the
// position's polarity at collection time.
type site struct {
	assert int
	node   int
	rule   int
	pol    int8
}

// collectWith enumerates every (node, rule) pair admitted by keep over
// the asserts, walking each assert pre-order with polarity tracking.
// Node numbering counts every term node (in the same order rebuild
// revisits them), so a site survives as a stable coordinate. Every
// caller shares this one enumeration order: the admission predicate
// only filters, so tightening or loosening it never perturbs the
// coordinates (or the RNG stream shape) of the sites that remain.
func collectWith(asserts []ast.Term, keep func(Kind, int8) bool) []site {
	var sites []site
	for ai, a := range asserts {
		n := 0
		walkPolarity(a, +1, func(app *ast.App, pol int8) {
			// n has not been advanced past this node yet, so it is the
			// node's own pre-order index.
			for ri, r := range Rules {
				if r.Match(app) && keep(r.Kind, pol) {
					sites = append(sites, site{assert: ai, node: n, rule: ri, pol: pol})
				}
			}
		}, &n)
	}
	return sites
}

// collect enumerates every status-preserving site over the asserts.
func collect(asserts []ast.Term, status core.Status) []site {
	return collectWith(asserts, func(kind Kind, pol int8) bool {
		return applicable(kind, pol, status)
	})
}

// walkPolarity visits every node of t pre-order. visit runs on App
// nodes with the position's polarity: +1 positive, -1 negative, 0
// unknown monotonicity. The counter increments for every node (Apps,
// literals, variables, quantifiers alike) so collect and rebuild agree
// on coordinates.
func walkPolarity(t ast.Term, pol int8, visit func(*ast.App, int8), n *int) {
	switch node := t.(type) {
	case *ast.App:
		visit(node, pol)
		*n++
		for i, arg := range node.Args {
			walkPolarity(arg, childPolarity(node, i, pol), visit, n)
		}
	case *ast.Quant:
		*n++
		walkPolarity(node.Body, pol, visit, n)
	default:
		*n++
	}
}

// childPolarity gives the polarity of argument i of app when app sits
// at polarity pol.
func childPolarity(app *ast.App, i int, pol int8) int8 {
	switch app.Op {
	case ast.OpAnd, ast.OpOr:
		return pol
	case ast.OpNot:
		return -pol
	case ast.OpImplies:
		if i == len(app.Args)-1 {
			return pol
		}
		return -pol
	case ast.OpIte:
		if i == 0 {
			return 0 // the condition selects; not monotone
		}
		if app.Sort() == ast.SortBool {
			return pol // boolean ite is monotone in both branches
		}
		return 0
	default:
		// Below any other operator (equalities, xor, arithmetic,
		// strings) monotonicity is unknown.
		return 0
	}
}

// rebuild returns the assert with the node at pre-order position
// target replaced by rule.Apply. The replaced node's subtree is not
// revisited; untouched subtrees are returned as-is (interning keeps
// them shared).
func rebuild(tb *ast.Table, t ast.Term, target int, rule Rule, n *int) ast.Term {
	idx := *n
	*n++
	switch node := t.(type) {
	case *ast.App:
		if idx == target {
			return rule.Apply(tb, node)
		}
		changed := false
		args := make([]ast.Term, len(node.Args))
		for i, arg := range node.Args {
			args[i] = rebuild(tb, arg, target, rule, n)
			if args[i] != arg {
				changed = true
			}
		}
		if !changed {
			return node
		}
		return tb.MustApp(node.Op, args...)
	case *ast.Quant:
		body := rebuild(tb, node.Body, target, rule, n)
		if body == node.Body {
			return node
		}
		return tb.MustQuant(node.Forall, node.Bound, body)
	default:
		return t
	}
}

// Mutate derives one mutant from a seed, applying 1..MaxMutations
// rules chosen by the task's RNG and building the rewritten terms in tb
// (the seed's table or a child of it). The mutant inherits the seed's
// status as its oracle. Returns ErrNoMutationSite when nothing
// applies, ErrWitnessLost or a *analysis.GateError when a supposedly
// verdict-preserving mutation fails its safety checks.
func Mutate(tb *ast.Table, seed *core.Seed, rng *rand.Rand, opts Options) (*Mutant, error) {
	maxMut := opts.MaxMutations
	if maxMut <= 0 {
		maxMut = 2
	}
	asserts := append([]ast.Term(nil), seed.Script.Asserts()...)
	k := 1 + rng.Intn(maxMut)
	var applied []string
	for round := 0; round < k; round++ {
		sites := collect(asserts, seed.Status)
		if len(sites) == 0 {
			break
		}
		c := sites[rng.Intn(len(sites))]
		n := 0
		asserts[c.assert] = rebuild(tb, asserts[c.assert], c.node, Rules[c.rule], &n)
		applied = append(applied, Rules[c.rule].Name)
	}
	if len(applied) == 0 {
		return nil, ErrNoMutationSite
	}
	script := smtlib.NewScript(seed.Script.Logic(), seed.Script.Declarations(), asserts)
	if seed.Status == core.StatusSat && seed.Witness != nil {
		for _, a := range asserts {
			if ast.HasQuantifier(a) {
				continue
			}
			ok, err := eval.Bool(a, seed.Witness)
			if err != nil || !ok {
				return nil, ErrWitnessLost
			}
		}
	}
	if err := analysis.Gate(script, nil); err != nil {
		return nil, err
	}
	return &Mutant{Script: script, Seed: seed, Oracle: seed.Status, Rules: applied}, nil
}

// Wild derives a mutant with no oracle, built in tb like Mutate's:
// every (node, rule) match is a candidate site regardless of polarity or the seed's status, so the
// result's satisfiability is unknown by construction. This is the
// unknown-status input source for the consensus oracles — the mutant
// deliberately leaves the polarity-soundness envelope, and with it the
// known-status oracle. No witness check applies (there is no status to
// preserve); the static analysis gate still runs so wild mutants stay
// well-formed campaign inputs.
func Wild(tb *ast.Table, seed *core.Seed, rng *rand.Rand, opts Options) (*Mutant, error) {
	maxMut := opts.MaxMutations
	if maxMut <= 0 {
		maxMut = 2
	}
	asserts := append([]ast.Term(nil), seed.Script.Asserts()...)
	k := 1 + rng.Intn(maxMut)
	var applied []string
	for round := 0; round < k; round++ {
		sites := collectWith(asserts, func(Kind, int8) bool { return true })
		if len(sites) == 0 {
			break
		}
		c := sites[rng.Intn(len(sites))]
		n := 0
		asserts[c.assert] = rebuild(tb, asserts[c.assert], c.node, Rules[c.rule], &n)
		applied = append(applied, Rules[c.rule].Name)
	}
	if len(applied) == 0 {
		return nil, ErrNoMutationSite
	}
	script := smtlib.NewScript(seed.Script.Logic(), seed.Script.Declarations(), asserts)
	if err := analysis.Gate(script, nil); err != nil {
		return nil, err
	}
	return &Mutant{Script: script, Seed: seed, Oracle: core.StatusUnknown, Rules: applied}, nil
}

// Relation classifies how a metamorphic variant relates to its
// original. The relation is known by construction even when the
// original's satisfiability is not — which is exactly what makes the
// pair an oracle for unknown-status inputs.
type Relation int8

const (
	// RelEquivalent: original ⇔ variant; any verdict disagreement
	// between the two is a violation.
	RelEquivalent Relation = iota
	// RelWeakened: original ⇒ variant, so a sat original forces a sat
	// variant (sat-preserving).
	RelWeakened
	// RelStrengthened: variant ⇒ original, so a sat variant forces a
	// sat original — equivalently an unsat original forces an unsat
	// variant (unsat-preserving).
	RelStrengthened
)

func (r Relation) String() string {
	switch r {
	case RelEquivalent:
		return "equivalent"
	case RelWeakened:
		return "weakened"
	default:
		return "strengthened"
	}
}

// Variant is one metamorphic derivation: the rewritten script, its
// relation to the original, and the applied rule names in order.
type Variant struct {
	Script *smtlib.Script
	Rel    Relation
	Rules  []string
}

// stepRelation gives the original→variant relation of applying a rule
// of the given kind at a position of the given polarity. ok is false
// at positions of unknown monotonicity, where only equivalences have a
// defined relation.
func stepRelation(kind Kind, pol int8) (rel Relation, ok bool) {
	switch kind {
	case Equivalence:
		return RelEquivalent, true
	case Weaken:
		switch pol {
		case +1:
			return RelWeakened, true
		case -1:
			return RelStrengthened, true
		}
	default: // Strengthen
		switch pol {
		case +1:
			return RelStrengthened, true
		case -1:
			return RelWeakened, true
		}
	}
	return RelEquivalent, false
}

// DeriveVariant builds a metamorphic counterpart of script in tb: a
// variant whose satisfiability relation to the original is known by
// construction. Directional steps compose only with equivalences or
// steps of the same direction (weakened∘strengthened has no defined
// relation), so the first directional rewrite fixes the pair's
// direction. Returns ErrNoMutationSite when no relation-preserving
// rewrite applies anywhere.
func DeriveVariant(tb *ast.Table, script *smtlib.Script, rng *rand.Rand, opts Options) (*Variant, error) {
	maxMut := opts.MaxMutations
	if maxMut <= 0 {
		maxMut = 2
	}
	asserts := append([]ast.Term(nil), script.Asserts()...)
	k := 1 + rng.Intn(maxMut)
	rel := RelEquivalent
	var applied []string
	for round := 0; round < k; round++ {
		sites := collectWith(asserts, func(kind Kind, pol int8) bool {
			r, ok := stepRelation(kind, pol)
			return ok && (r == RelEquivalent || rel == RelEquivalent || r == rel)
		})
		if len(sites) == 0 {
			break
		}
		c := sites[rng.Intn(len(sites))]
		n := 0
		asserts[c.assert] = rebuild(tb, asserts[c.assert], c.node, Rules[c.rule], &n)
		applied = append(applied, Rules[c.rule].Name)
		if r, _ := stepRelation(Rules[c.rule].Kind, c.pol); r != RelEquivalent {
			rel = r
		}
	}
	if len(applied) == 0 {
		return nil, ErrNoMutationSite
	}
	v := smtlib.NewScript(script.Logic(), script.Declarations(), asserts)
	if err := analysis.Gate(v, nil); err != nil {
		return nil, err
	}
	return &Variant{Script: v, Rel: rel, Rules: applied}, nil
}
