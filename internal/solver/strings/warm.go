package strings

import (
	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/telemetry"
)

// Warm-cache counters: every literal check on the DFS hot path records
// a hit when a verdict row answers it and a miss when it is evaluated,
// so `-stats`/`-metrics` expose how much of the search the rows answer.
// Both are step-based (one increment per check), so campaign totals stay
// thread-invariant as long as a cache's owner lives for a deterministic
// span (the harness builds a fresh solver per task).
var (
	cWarmEvalHits   = telemetry.NewCounter("yy_warm_eval_hits_total", "string-search literal checks answered by a verdict row")
	cWarmEvalMisses = telemetry.NewCounter("yy_warm_eval_misses_total", "string-search literal and propagation evaluations")
)

// warmMaxIDs caps the value-id table. It is checked only when a search
// starts, because the DFS holds the ids of its assigned values; hitting
// it empties the table.
const warmMaxIDs = 1 << 20

// Warm is the string theory's reusable search state. The bounded
// witness search checks the same literal under the same partial
// assignment many times over: once per candidate of the slot it
// branches on, again in every sibling subtree. Two things are kept:
//
//   - Verdict rows. Where the DFS branches on a slot, each literal that
//     slot completes gets a two-bit verdict per candidate of the slot,
//     keyed by (literal, slot, ids of the literal's other slots), so the
//     branch loop reads a verdict instead of evaluating again. Rows live
//     for one Check, because candidate lists do; their storage is
//     reused across Checks. Values are interned to dense ids (two
//     values share an id exactly when they are equal) for the row keys.
//   - Compiled programs (see eval.Compile), one per literal or
//     propagation term, solver-scoped because a program is a function
//     of its term alone. Terms are hash-consed, so the DPLL(T) loop's
//     successive boolean models and a task's primary test and
//     metamorphic variant share them. The map grows with the distinct
//     terms the owner's term table holds, no further.
//
// A row fill, a propagation, a ground literal and a literal whose row
// key does not pack are evaluated directly. Results are not memoized
// across Checks: a literal memo behind the rows served about one fill
// in eight on the strings campaigns and cost more in map upkeep than
// the evaluations it saved. Evaluation spends no fuel, fires no
// defects and hits no coverage probes, so a row answer is
// observationally invisible: verdicts, models, defect firings and fuel
// accounting are bit-identical to a Check without a Warm.
//
// A Warm is single-owner like fuel.Meter, telemetry.Tracker and the
// eval.Programs it holds: one per solver instance, never shared across
// goroutines. Its maps are allocated on first use, so the zero Warm is
// empty and a solver that never reaches the strings theory pays for
// none of them.
type Warm struct {
	// progs holds the compiled program of every term evaluated so far.
	progs map[ast.Term]*eval.Program
	// ids interns non-boolean values; false and true are ids 0 and 1.
	ids map[idKey]uint32
	// rows maps a verdict row's key to its offset in slab, where each
	// row holds a two-bit rowUnknown/rowPass/rowFail entry per
	// candidate of its slot, four to a byte. Both are emptied when a
	// search starts.
	rows map[rowKey]int32
	slab []byte
}

// rowKey identifies a verdict row: literal lit completed by branching
// on slot, with ids the packed ids of the literal's slots in which
// slot's own place reads 0.
type rowKey struct {
	lit, slot int32
	ids       uint64
}

// Verdict row entries, two bits each.
const (
	rowUnknown byte = iota
	rowPass
	rowFail
)

// rowSlabMax caps the verdict-row bytes one Check may hold; a literal
// whose row would not fit is evaluated for every candidate.
const rowSlabMax = 1 << 18

// idKey identifies a non-boolean value: strings by their contents,
// anything else by its SMT-LIB rendering.
type idKey struct {
	sort ast.Sort
	repr string
}

// NewWarm returns an empty warm cache.
func NewWarm() *Warm { return &Warm{} }

// id interns v.
func (w *Warm) id(v eval.Val) uint32 {
	var k idKey
	switch v.Sort() {
	case ast.SortBool:
		if v.Bool() {
			return 1
		}
		return 0
	case ast.SortString:
		k = idKey{sort: ast.SortString, repr: v.Str()}
	default:
		k = idKey{sort: v.Sort(), repr: v.Rat().String()}
	}
	id, ok := w.ids[k]
	if !ok {
		if w.ids == nil {
			w.ids = map[idKey]uint32{}
		}
		id = uint32(len(w.ids)) + 2
		w.ids[k] = id
	}
	return id
}

// packIDs packs the given slots' current value ids into a uint64 at
// 64/len(slots) bits each; false when one does not fit.
func (c *checker) packIDs(slots []int) (uint64, bool) {
	if len(slots) == 0 {
		return 0, true
	}
	bits := 64 / len(slots)
	var k uint64
	for j, s := range slots {
		id := uint64(c.ids[s])
		if bits < 32 && id >= 1<<bits {
			return 0, false
		}
		k |= id << (bits * j)
	}
	return k, true
}

// program returns t's compiled program: the Warm's when one is
// attached, compiled on first use, otherwise a fresh one.
func (c *checker) program(t ast.Term) *eval.Program {
	w := c.warm
	if w == nil {
		return eval.Compile(t)
	}
	p := w.progs[t]
	if p == nil {
		if w.progs == nil {
			w.progs = map[ast.Term]*eval.Program{}
		}
		p = eval.Compile(t)
		w.progs[t] = p
	}
	return p
}

// resetRows empties the verdict rows, keeping their storage.
func (w *Warm) resetRows() {
	if w.rows == nil {
		w.rows = map[rowKey]int32{}
	}
	clear(w.rows)
	w.slab = w.slab[:0]
}

// row returns the slab offset of literal i's verdict row for the
// candidates of the unassigned slot s under the current values of the
// literal's other slots, creating an all-unknown row on first use. It
// returns -1, no row, when no Warm is attached, when the other slots'
// ids do not pack, or when the slab is full.
func (c *checker) row(i, s int) int32 {
	w := c.warm
	if w == nil {
		return -1
	}
	c.ids[s] = 0 // s is unassigned; a fixed id in its place keys the others
	ids, ok := c.packIDs(c.litSlots[i])
	if !ok {
		return -1
	}
	k := rowKey{lit: int32(i), slot: int32(s), ids: ids}
	if off, ok := w.rows[k]; ok {
		return off
	}
	n := (len(c.cands[s]) + 3) / 4
	if len(w.slab)+n > rowSlabMax {
		return -1
	}
	off := int32(len(w.slab))
	w.slab = append(w.slab, make([]byte, n)...)
	w.rows[k] = off
	return off
}

// rowPasses is litPasses for candidate k of the branching slot, read
// through the literal's verdict row at offset row (-1: none). A known
// entry counts as a warm hit; an unknown one is filled by litPasses.
func (c *checker) rowPasses(i int, row int32, k int) bool {
	if row < 0 {
		return c.litPasses(i)
	}
	b := &c.warm.slab[int(row)+k/4]
	shift := uint(k%4) * 2
	v := *b >> shift & 3
	if v == rowUnknown {
		v = rowFail
		if c.litPasses(i) {
			v = rowPass
		}
		*b |= v << shift
	} else {
		c.telem.Inc(cWarmEvalHits)
	}
	return v == rowPass
}

// litPasses evaluates literal i under the current assignment, counting
// a miss, and reports whether it holds. The caller guarantees every
// free variable of the literal is assigned. A Check without a Warm has
// no rows, so its misses equal a warm Check's hits plus misses.
func (c *checker) litPasses(i int) bool {
	c.telem.Inc(cWarmEvalMisses)
	return c.holds(i)
}

// holds evaluates literal i on the frame through its compiled program;
// evaluation errors count as failures, matching the search's pruning
// rule.
func (c *checker) holds(i int) bool {
	p := c.litProgs[i]
	if p == nil {
		p = c.program(c.lits[i])
		c.litProgs[i] = p
	}
	ok, err := p.Bool(c.vals, c.litSlots[i])
	return err == nil && ok
}

// propValue evaluates defining equation d's rhs under the current
// assignment, counting a miss, and returns the value and, when a Warm
// is attached, its id. The boolean reports evaluation success (not
// satisfiability).
func (c *checker) propValue(d int) (eval.Val, uint32, bool) {
	c.telem.Inc(cWarmEvalMisses)
	p := c.propProgs[d]
	if p == nil {
		p = c.program(c.defs[d].rhs)
		c.propProgs[d] = p
	}
	val, err := p.Eval(c.vals, c.defs[d].slots)
	if err != nil {
		return val, 0, false
	}
	var id uint32
	if c.warm != nil {
		id = c.warm.id(val)
	}
	return val, id, true
}
