package strings

import (
	"encoding/binary"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/telemetry"
)

// Warm-cache counters: every memo probe and verdict-row read on the DFS
// hot path records a hit or a miss, so `-stats`/`-metrics` expose the
// reuse rate the warm cache achieves across Solve calls. Both are
// step-based (one increment per cached evaluation), so campaign totals
// stay thread-invariant as long as a cache's owner lives for a
// deterministic span (the harness builds a fresh solver per task).
var (
	cWarmEvalHits   = telemetry.NewCounter("yy_warm_eval_hits_total", "string-search literal evaluations served from the warm cache")
	cWarmEvalMisses = telemetry.NewCounter("yy_warm_eval_misses_total", "string-search literal evaluations computed and cached")
)

// warmMaxEntries caps the total number of cached evaluations. When the
// cap is exceeded the cache is cleared wholesale — a size-based (never
// time-based) policy, so eviction is a deterministic function of the
// solve sequence alone.
const warmMaxEntries = 1 << 18

// warmMaxIDs caps the value-id table. It is checked only when a search
// starts, because the DFS holds the ids of its assigned values; hitting
// it resets the whole cache.
const warmMaxIDs = 1 << 20

// Warm is the string theory's reusable evaluation cache. The bounded
// witness search re-evaluates the same literal under the same partial
// assignment exponentially often: across sibling DFS branches, across
// the DPLL(T) loop's successive boolean models (the literal sets
// overlap heavily), and — because terms are hash-consed — across the
// solves of one campaign task (its primary test and its metamorphic
// variant). Every cached result is a pure function of (literal term,
// values of its free variables): evaluation spends no fuel, fires no
// defects, and hits no coverage probes, so serving it from the cache is
// observationally invisible — verdicts, models, defect firings, and
// fuel accounting are bit-identical to a cold solve by construction.
// Each term's memo also holds the term's compiled program (see
// eval.Compile), which a miss evaluates; the program is a function of
// the term alone, so it is shared by every Check that meets the term.
//
// It has two layers. In front sit check-local verdict rows: where the
// DFS branches on a slot, each literal that slot completes gets a
// two-bit verdict per candidate of the slot, keyed by (literal, slot, ids of the
// literal's other slots), so the branch loop reads a verdict instead of
// hashing a memo key per candidate. Rows live for one Check, because
// candidate lists do; their storage is reused across Checks. A row's
// unknown entry is filled through the solver-scoped literal memo
// behind it, so the memo sees the same first-in-check probes in the
// same order as without rows, and its misses are unchanged; a row read
// counts as a hit.
//
// Values are interned to dense ids (two values share an id exactly
// when they are equal), and a memo key is the ids of the term's free
// variables in ast.FreeVars order, packed into a uint64 when they fit
// (see checker.key).
//
// A Warm is single-owner like fuel.Meter and telemetry.Tracker: one
// per solver instance, never shared across goroutines. Its maps are
// allocated on first use, so the zero Warm is an empty cache and a
// solver that never reaches the strings theory pays for none of them.
type Warm struct {
	// lits memoizes literal pass/fail: term → (key → literal holds).
	lits map[ast.Term]*memo[bool]
	// props memoizes defining-equation propagation: rhs term → (key →
	// evaluated value).
	props map[ast.Term]*memo[propEntry]
	// entries counts cached values across both maps for the cap.
	entries int
	// ids interns non-boolean values; false and true are ids 0 and 1.
	// The table survives the entry-cap clear and is dropped by reset.
	ids map[idKey]uint32
	// scratch is the reusable buffer for wide keys (a probe allocates
	// nothing on a hit).
	scratch []byte
	// rows maps a verdict row's key to its offset in slab, where each
	// row holds a two-bit rowUnknown/rowPass/rowFail entry per
	// candidate of its slot, four to a byte. Both are emptied when a
	// search starts.
	rows map[rowKey]int32
	slab []byte
}

// rowKey identifies a verdict row: literal lit completed by branching
// on slot, with ids the packed memo key of the literal's slots in which
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
// whose row would not fit is checked through the memo alone.
const rowSlabMax = 1 << 18

type propEntry struct {
	val eval.Val
	id  uint32
	ok  bool // false: evaluation errored
}

// idKey identifies a non-boolean value: strings by their contents,
// anything else by its SMT-LIB rendering.
type idKey struct {
	sort ast.Sort
	repr string
}

// memo maps a key of value ids to a cached result, and holds the
// term's compiled program, built on the first miss.
type memo[V any] struct {
	packed map[uint64]V
	wide   map[string]V
	prog   *eval.Program
}

// memoKey is a probe key: wide is nil for a packed key.
type memoKey struct {
	packed uint64
	wide   []byte
}

func (m *memo[V]) get(k memoKey) (V, bool) {
	if k.wide == nil {
		v, ok := m.packed[k.packed]
		return v, ok
	}
	v, ok := m.wide[string(k.wide)]
	return v, ok
}

func (m *memo[V]) put(k memoKey, v V) {
	if k.wide == nil {
		if m.packed == nil {
			m.packed = map[uint64]V{}
		}
		m.packed[k.packed] = v
		return
	}
	if m.wide == nil {
		m.wide = map[string]V{}
	}
	m.wide[string(k.wide)] = v
}

// memoFor returns t's memo in *tab, creating the table and the memo on
// first use.
func memoFor[V any](tab *map[ast.Term]*memo[V], t ast.Term) *memo[V] {
	m := (*tab)[t]
	if m == nil {
		if *tab == nil {
			*tab = map[ast.Term]*memo[V]{}
		}
		m = &memo[V]{}
		(*tab)[t] = m
	}
	return m
}

// NewWarm returns an empty warm cache.
func NewWarm() *Warm { return &Warm{} }

// reset drops every cached evaluation and the value-id table: the
// search's response to the id-table cap.
func (w *Warm) reset() {
	w.clearMemos()
	w.ids = nil
}

// clearMemos is the wholesale entry-cap clear; value ids survive it.
func (w *Warm) clearMemos() {
	w.lits, w.props = nil, nil
	w.entries = 0
}

// full reports whether the cap is hit; the caller clears wholesale.
func (w *Warm) full() bool { return w.entries >= warmMaxEntries }

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

// key builds the memo key of the given slots' current value ids. The
// ids pack into a uint64 at 64/len(slots) bits each when every one
// fits; otherwise the key is their bytes. Which form a key takes is a
// function of its ids, so equal keys always meet in the same map.
func (c *checker) key(slots []int) memoKey {
	if len(slots) == 0 {
		return memoKey{}
	}
	bits := 64 / len(slots)
	var k uint64
	for j, s := range slots {
		id := uint64(c.ids[s])
		if bits < 32 && id >= 1<<bits {
			return c.wideKey(slots)
		}
		k |= id << (bits * j)
	}
	return memoKey{packed: k}
}

func (c *checker) wideKey(slots []int) memoKey {
	buf := c.warm.scratch[:0]
	for _, s := range slots {
		buf = binary.LittleEndian.AppendUint32(buf, c.ids[s])
	}
	c.warm.scratch = buf
	return memoKey{wide: buf}
}

// clearWarm runs the entry-cap clear and empties this check's resolved
// memo slices, so later probes re-resolve against the fresh tables.
func (c *checker) clearWarm() {
	c.warm.clearMemos()
	clear(c.litMemos)
	clear(c.propMemos)
}

// litMemo resolves literal i's memo: its warm-cache entry, or a
// check-local memo when no Warm is attached.
func (c *checker) litMemo(i int) *memo[bool] {
	lm := c.litMemos[i]
	if lm == nil {
		if c.warm != nil {
			lm = memoFor(&c.warm.lits, c.lits[i])
		} else {
			lm = &memo[bool]{}
		}
		c.litMemos[i] = lm
	}
	return lm
}

// propMemo resolves defining equation d's memo like litMemo.
func (c *checker) propMemo(d int) *memo[propEntry] {
	pm := c.propMemos[d]
	if pm == nil {
		if c.warm != nil {
			pm = memoFor(&c.warm.props, c.defs[d].rhs)
		} else {
			pm = &memo[propEntry]{}
		}
		c.propMemos[d] = pm
	}
	return pm
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
	mk := c.key(c.litSlots[i])
	if mk.wide != nil {
		return -1
	}
	k := rowKey{lit: int32(i), slot: int32(s), ids: mk.packed}
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

// litPasses evaluates literal i under the current assignment — through
// the warm cache when one is attached — returning whether it holds
// (evaluation errors count as failures, matching the search's pruning
// rule). The caller guarantees every free variable of the literal is
// assigned. Without a Warm every evaluation counts as a miss, so a
// cold Check's misses equal a warm one's hits plus misses.
func (c *checker) litPasses(i int) bool {
	lm := c.litMemo(i)
	w := c.warm
	if w == nil {
		c.telem.Inc(cWarmEvalMisses)
		return c.evalLit(lm, i)
	}
	k := c.key(c.litSlots[i])
	if v, ok := lm.get(k); ok {
		c.telem.Inc(cWarmEvalHits)
		return v
	}
	v := c.evalLit(lm, i)
	if w.full() {
		c.clearWarm()
		lm = c.litMemo(i)
	}
	lm.put(k, v)
	w.entries++
	c.telem.Inc(cWarmEvalMisses)
	return v
}

// evalLit evaluates literal i on the frame through its compiled
// program, which it keeps in the literal's memo lm.
func (c *checker) evalLit(lm *memo[bool], i int) bool {
	if lm.prog == nil {
		lm.prog = eval.Compile(c.lits[i])
	}
	ok, err := lm.prog.Bool(c.vals, c.litSlots[i])
	return err == nil && ok
}

// propValue evaluates defining equation d's rhs under the current
// assignment through the warm cache, returning the value and its id.
// The boolean reports evaluation success (not satisfiability).
func (c *checker) propValue(d int) (eval.Val, uint32, bool) {
	def := &c.defs[d]
	pm := c.propMemo(d)
	w := c.warm
	if w == nil {
		c.telem.Inc(cWarmEvalMisses)
		val, err := c.evalProp(pm, d)
		return val, 0, err == nil
	}
	k := c.key(def.slots)
	if e, ok := pm.get(k); ok {
		c.telem.Inc(cWarmEvalHits)
		return e.val, e.id, e.ok
	}
	val, err := c.evalProp(pm, d)
	e := propEntry{val: val, ok: err == nil}
	if e.ok {
		e.id = w.id(val)
	}
	if w.full() {
		c.clearWarm()
		pm = c.propMemo(d)
	}
	pm.put(k, e)
	w.entries++
	c.telem.Inc(cWarmEvalMisses)
	return e.val, e.id, e.ok
}

// evalProp evaluates defining equation d's rhs on the frame through its
// compiled program, which it keeps in the equation's memo pm.
func (c *checker) evalProp(pm *memo[propEntry], d int) (eval.Val, error) {
	if pm.prog == nil {
		pm.prog = eval.Compile(c.defs[d].rhs)
	}
	return pm.prog.Eval(c.vals, c.defs[d].slots)
}
