package solver

import (
	"repro/internal/ast"
	"repro/internal/solver/strings"
	"repro/internal/telemetry"
)

// Rewrite-memo counters, step-based like every other counter: one
// increment per top-level preprocess rewrite, hit or miss. They are a
// deterministic function of the solver's solve sequence, so the harness
// keeps them thread-invariant by building a fresh solver for every
// task.
var (
	cRewriteMemoHits   = telemetry.NewCounter("yy_rewrite_memo_hits_total", "preprocess rewrites served from the warm memo")
	cRewriteMemoMisses = telemetry.NewCounter("yy_rewrite_memo_misses_total", "preprocess rewrites computed and cached")
)

// rewriteMemoMax caps the rewrite memo; on overflow the memo is cleared
// wholesale (size-based, never time-based, so eviction is deterministic).
const rewriteMemoMax = 1 << 16

// warmState is the per-solver cache layer reused across Solve calls.
// Everything in it is semantically transparent: a warm solver returns
// bit-identical verdicts, models, defect firings, and fuel accounting
// to a cold one. What warm state buys is wall-clock time when solves
// share structure: the DPLL(T) rounds of one solve, and the primary
// test and metamorphic variant of one campaign task (terms are
// hash-consed, so shared structure is shared term pointers).
type warmState struct {
	// str is the string theory's literal-evaluation cache (see
	// strings.Warm). On string-logic campaigns the strings solver and
	// eval do most of the work: the traced yybench `strings` workload
	// (2-core x86-64 host) attributes 0.42 of CPU to the strings solver
	// and 0.40 to eval. On the `arith` workload the strings solver's
	// share is about 0.001.
	str strings.Warm
	// rw memoizes top-level preprocess rewrites: input term → output
	// term plus the defect sites that fired while rewriting it, so a
	// hit replays the firings. It stays on under coverage tracking: a
	// hit replays a term this solver already rewrote under the same
	// tracker, so every probe the rewrite would hit is already recorded
	// (coverage reads only whether a probe was hit, never how often).
	// Allocated on the first store, so a solver that never rewrites
	// (a task rejected before its solve) costs no map.
	rw map[ast.Term]rwEntry
}

type rwEntry struct {
	out   ast.Term
	fired []Defect
}

// rewriteCached is the memoizing wrapper preprocess uses for its
// top-level rewrite passes. Correctness relies on rewrite being a pure
// function of (term, enabled defect set): it spends no fuel, mints no
// fresh names, and records no telemetry — verified by rewrite_test's
// defect table and the differential warm-vs-cold corpus test. Defect
// firings are captured on a miss and replayed on a hit, so
// Outcome.DefectsFired is identical either way.
func (s *Solver) rewriteCached(t ast.Term) ast.Term {
	w := &s.warm
	if e, ok := w.rw[t]; ok {
		s.cfg.Telemetry.Inc(cRewriteMemoHits)
		for _, d := range e.fired {
			s.fired[d] = true
		}
		return e.out
	}
	// Run the rewrite against a scratch fired-set so the entry records
	// exactly the sites this term fires, independent of what earlier
	// rewrites in this solve already fired. The deferred merge keeps
	// s.fired correct even when a crash-defect site panics mid-rewrite
	// (the entry is then never stored, so replay never skips a crash).
	saved := s.fired
	s.fired = map[Defect]bool{}
	defer func() {
		for d := range s.fired {
			saved[d] = true
		}
		s.fired = saved
	}()
	out := s.rewrite(t)
	fired := make([]Defect, 0, len(s.fired))
	for d := range s.fired {
		//golint:allow map-range-render — fired is sorted by sortDefects immediately below (an in-module insertion sort the linter does not classify as a sorter)
		fired = append(fired, d)
	}
	sortDefects(fired)
	if w.rw == nil || len(w.rw) >= rewriteMemoMax {
		w.rw = map[ast.Term]rwEntry{}
	}
	w.rw[t] = rwEntry{out: out, fired: fired}
	s.cfg.Telemetry.Inc(cRewriteMemoMisses)
	return out
}
