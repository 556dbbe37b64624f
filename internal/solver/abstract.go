package solver

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/solver/sat"
)

// abstraction is the boolean skeleton of a formula: atoms (theory
// predicates and boolean variables) mapped to SAT variables, with
// Tseitin auxiliaries for the connectives.
type abstraction struct {
	sat *sat.Solver
	// atomOf keys atoms by interned term identity: structurally equal
	// atoms share one node, so no print-key is needed.
	atomOf   map[ast.Term]int
	atomTerm []ast.Term // SAT var (1-based) → atom term; nil for aux vars
	negTerm  []ast.Term // SAT var → the negated atom, built on first use
	trueVar  int
}

// negation returns the negated atom of SAT variable v, interning it
// once per solve rather than once per boolean model.
func (ab *abstraction) negation(v int, s *Solver) ast.Term {
	if ab.negTerm == nil {
		ab.negTerm = make([]ast.Term, len(ab.atomTerm))
	}
	if ab.negTerm[v] == nil {
		ab.negTerm[v] = s.terms.Not(ab.atomTerm[v])
	}
	return ab.negTerm[v]
}

// blockLit returns the literal of SAT variable v that the current
// model falsifies: a clause of such literals blocks the model.
func (ab *abstraction) blockLit(v int) sat.Lit {
	if ab.sat.Value(v) {
		return -sat.Lit(v)
	}
	return sat.Lit(v)
}

// boolModel returns the boolean variables' values in the current SAT
// model.
func (ab *abstraction) boolModel() eval.Model {
	m := eval.Model{}
	for v, atom := range ab.atomTerm {
		if bv, ok := atom.(*ast.Var); ok {
			m[bv.Name] = eval.BoolV(ab.sat.Value(v))
		}
	}
	return m
}

func (s *Solver) abstract(asserts []ast.Term) (*abstraction, error) {
	s.hit(pAbstractEntry)
	ab := &abstraction{
		sat:    sat.New(),
		atomOf: map[ast.Term]int{},
	}
	ab.atomTerm = append(ab.atomTerm, nil) // index 0 unused
	ab.trueVar = ab.newAux()
	ab.sat.AddClause(sat.Lit(ab.trueVar))
	for _, a := range asserts {
		l, err := ab.encode(a, s)
		if err != nil {
			return nil, err
		}
		ab.sat.AddClause(l)
	}
	return ab, nil
}

func (ab *abstraction) newAux() int {
	v := ab.sat.NewVar()
	ab.atomTerm = append(ab.atomTerm, nil)
	return v
}

func (ab *abstraction) atomLit(t ast.Term, s *Solver) sat.Lit {
	if v, ok := ab.atomOf[t]; ok {
		return sat.Lit(v)
	}
	s.hit(pAbstractAtom)
	v := ab.sat.NewVar()
	ab.atomTerm = append(ab.atomTerm, t)
	ab.atomOf[t] = v
	return sat.Lit(v)
}

// isAtom reports whether t is a theory atom or boolean variable (a
// boolean leaf for the abstraction).
func isAtom(t ast.Term) bool {
	switch n := t.(type) {
	case *ast.Var:
		return n.VSort == ast.SortBool
	case *ast.App:
		switch n.Op {
		case ast.OpLe, ast.OpLt, ast.OpGe, ast.OpGt, ast.OpIsInt,
			ast.OpStrInRe, ast.OpStrPrefixOf, ast.OpStrSuffixOf,
			ast.OpStrContains, ast.OpStrLtOp, ast.OpStrLeOp:
			return true
		case ast.OpEq, ast.OpDistinct:
			return n.Args[0].Sort() != ast.SortBool
		}
	}
	return false
}

// encode returns a literal equivalent to t, adding Tseitin clauses.
func (ab *abstraction) encode(t ast.Term, s *Solver) (sat.Lit, error) {
	switch n := t.(type) {
	case *ast.BoolLit:
		if n.V {
			return sat.Lit(ab.trueVar), nil
		}
		return -sat.Lit(ab.trueVar), nil
	case *ast.Var:
		if n.VSort != ast.SortBool {
			return 0, fmt.Errorf("abstract: non-boolean variable %s in boolean position", n.Name)
		}
		return ab.atomLit(n, s), nil
	case *ast.Quant:
		return 0, fmt.Errorf("abstract: residual quantifier")
	case *ast.App:
		if isAtom(n) {
			return ab.atomLit(n, s), nil
		}
		return ab.encodeApp(n, s)
	default:
		return 0, fmt.Errorf("abstract: unexpected term %T", t)
	}
}

func (ab *abstraction) encodeApp(n *ast.App, s *Solver) (sat.Lit, error) {
	switch n.Op {
	case ast.OpNot:
		l, err := ab.encode(n.Args[0], s)
		if err != nil {
			return 0, err
		}
		return -l, nil
	case ast.OpAnd, ast.OpOr:
		lits := make([]sat.Lit, len(n.Args))
		for i, a := range n.Args {
			l, err := ab.encode(a, s)
			if err != nil {
				return 0, err
			}
			lits[i] = l
		}
		s.hit(pAbstractTseitin)
		aux := sat.Lit(ab.newAux())
		if n.Op == ast.OpAnd {
			// aux ↔ ∧ lits
			all := make([]sat.Lit, 0, len(lits)+1)
			for _, l := range lits {
				ab.sat.AddClause(-aux, l)
				all = append(all, -l)
			}
			ab.sat.AddClause(append(all, aux)...)
		} else {
			clause := make([]sat.Lit, 0, len(lits)+1)
			for _, l := range lits {
				ab.sat.AddClause(aux, -l)
				clause = append(clause, l)
			}
			ab.sat.AddClause(append(clause, -aux)...)
		}
		return aux, nil
	case ast.OpImplies:
		// Right-associative fold: (=> a b c) = a → (b → c).
		cur, err := ab.encode(n.Args[len(n.Args)-1], s)
		if err != nil {
			return 0, err
		}
		for i := len(n.Args) - 2; i >= 0; i-- {
			ant, err := ab.encode(n.Args[i], s)
			if err != nil {
				return 0, err
			}
			cur = ab.orPair(-ant, cur, s)
		}
		return cur, nil
	case ast.OpXor:
		cur, err := ab.encode(n.Args[0], s)
		if err != nil {
			return 0, err
		}
		for _, a := range n.Args[1:] {
			l, err := ab.encode(a, s)
			if err != nil {
				return 0, err
			}
			cur = ab.xorPair(cur, l, s)
		}
		return cur, nil
	case ast.OpEq:
		// Boolean iff (non-boolean equality is an atom).
		if len(n.Args) != 2 {
			return 0, fmt.Errorf("abstract: n-ary boolean equality should have been chained")
		}
		a, err := ab.encode(n.Args[0], s)
		if err != nil {
			return 0, err
		}
		b, err := ab.encode(n.Args[1], s)
		if err != nil {
			return 0, err
		}
		return -ab.xorPair(a, b, s), nil
	case ast.OpDistinct:
		if len(n.Args) != 2 {
			return 0, fmt.Errorf("abstract: n-ary boolean distinct should have been expanded")
		}
		a, err := ab.encode(n.Args[0], s)
		if err != nil {
			return 0, err
		}
		b, err := ab.encode(n.Args[1], s)
		if err != nil {
			return 0, err
		}
		return ab.xorPair(a, b, s), nil
	case ast.OpIte:
		c, err := ab.encode(n.Args[0], s)
		if err != nil {
			return 0, err
		}
		th, err := ab.encode(n.Args[1], s)
		if err != nil {
			return 0, err
		}
		el, err := ab.encode(n.Args[2], s)
		if err != nil {
			return 0, err
		}
		s.hit(pAbstractTseitin)
		aux := sat.Lit(ab.newAux())
		ab.sat.AddClause(-aux, -c, th)
		ab.sat.AddClause(-aux, c, el)
		ab.sat.AddClause(aux, -c, -th)
		ab.sat.AddClause(aux, c, -el)
		return aux, nil
	default:
		return 0, fmt.Errorf("abstract: operator %v in boolean position", n.Op)
	}
}

func (ab *abstraction) orPair(a, b sat.Lit, s *Solver) sat.Lit {
	s.hit(pAbstractTseitin)
	aux := sat.Lit(ab.newAux())
	ab.sat.AddClause(aux, -a)
	ab.sat.AddClause(aux, -b)
	ab.sat.AddClause(-aux, a, b)
	return aux
}

func (ab *abstraction) xorPair(a, b sat.Lit, s *Solver) sat.Lit {
	s.hit(pAbstractTseitin)
	aux := sat.Lit(ab.newAux())
	ab.sat.AddClause(-aux, a, b)
	ab.sat.AddClause(-aux, -a, -b)
	ab.sat.AddClause(aux, -a, b)
	ab.sat.AddClause(aux, a, -b)
	return aux
}
