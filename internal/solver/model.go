package solver

import (
	"sort"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/rat"
)

// corruptModel applies the model-corruption defect family (the md-
// sites) to a certified sat model, in place. It runs after certify has
// accepted the model, so the corruption models bugs in the final
// model-output stage of a solver: the verdict is right, the certificate
// was right, and only an external consumer evaluating the reported
// model against the input formula can observe the damage.
//
// Each site picks its victim variable by sorted name, so the corrupted
// model is a pure function of the clean model — campaigns stay
// bit-identical across thread counts.
func (s *Solver) corruptModel(m eval.Model) {
	if len(m) == 0 {
		return
	}
	stale := s.cfg.Has(DefModelStaleSimplex)
	trunc := s.cfg.Has(DefModelStrLenTruncate)
	floor := s.cfg.Has(DefModelRealFloor)
	if !stale && !trunc && !floor {
		return
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	if stale {
		for _, k := range names {
			v := m[k]
			if v.Sort() != ast.SortInt {
				continue
			}
			if s.defect(DefModelStaleSimplex) {
				// A row value from an earlier pivot state leaks through:
				// far outside any generated bound, so the damage is
				// observable whenever the variable is constrained at all.
				m[k] = eval.IntVal(v.Rat().Add(rat.Int(424242)))
			}
			break
		}
	}
	if trunc {
		for _, k := range names {
			v := m[k].Str()
			if m[k].Sort() != ast.SortString || len(v) < 2 {
				continue
			}
			if s.defect(DefModelStrLenTruncate) {
				// The witness is cut at the length-abstraction boundary:
				// only its first character survives into the model.
				m[k] = eval.StrVal(v[:1])
			}
			break
		}
	}
	if floor {
		for _, k := range names {
			v := m[k].Rat()
			if m[k].Sort() != ast.SortReal || v.IsInt() {
				continue
			}
			if s.defect(DefModelRealFloor) {
				m[k] = eval.RealVal(v.Floor())
			}
			break
		}
	}
}
