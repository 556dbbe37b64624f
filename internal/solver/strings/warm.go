package strings

import (
	"encoding/binary"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/telemetry"
)

// Warm-cache counters: every memo probe on the DFS hot path records a
// hit or a miss, so `-stats`/`-metrics` expose the reuse rate the warm
// cache achieves across Solve calls. Both are step-based (one
// increment per memoized evaluation), so campaign totals stay
// thread-invariant as long as the harness resets warm state at
// deterministic points.
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
// fused/mutated variants of one seed family. Every cached result is a
// pure function of (literal term, values of its free variables):
// eval.Bool/eval.Term spend no fuel, fire no defects, and hit no
// coverage probes, so serving them from the cache is observationally
// invisible — verdicts, models, defect firings, and fuel accounting
// are bit-identical to a cold solve by construction.
//
// Values are interned to dense ids (two values share an id exactly
// when they are equal), and a memo key is the ids of the term's free
// variables in ast.FreeVars order, packed into a uint64 when they fit
// (see checker.key).
//
// A Warm is single-owner like fuel.Meter and telemetry.Tracker: one
// per solver instance, never shared across goroutines.
type Warm struct {
	// lits memoizes literal pass/fail: term → (key → literal holds).
	lits map[ast.Term]*memo[bool]
	// props memoizes defining-equation propagation: rhs term → (key →
	// evaluated value).
	props map[ast.Term]*memo[propEntry]
	// entries counts cached values across both maps for the cap.
	entries int
	// ids interns non-boolean values; false and true are ids 0 and 1.
	// The table survives the entry-cap clear and is dropped by Reset.
	ids map[idKey]uint32
	// scratch is the reusable buffer for wide keys (a probe allocates
	// nothing on a hit).
	scratch []byte
}

type propEntry struct {
	val eval.Value
	id  uint32
	ok  bool // false: evaluation errored
}

// idKey identifies a non-boolean value: strings by their contents,
// anything else by its SMT-LIB rendering.
type idKey struct {
	sort ast.Sort
	repr string
}

// memo maps a key of value ids to a cached result.
type memo[V any] struct {
	packed map[uint64]V
	wide   map[string]V
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

// memoFor returns t's memo in tab, creating it on first use.
func memoFor[V any](tab map[ast.Term]*memo[V], t ast.Term) *memo[V] {
	m := tab[t]
	if m == nil {
		m = &memo[V]{}
		tab[t] = m
	}
	return m
}

// NewWarm returns an empty warm cache.
func NewWarm() *Warm {
	w := &Warm{}
	w.Reset()
	return w
}

// Reset drops every cached evaluation and the value-id table. The
// harness calls this at the start of each seed family so per-task
// cache-hit telemetry is a function of the family alone, never of
// worker scheduling.
func (w *Warm) Reset() {
	if w == nil {
		return
	}
	w.clearMemos()
	w.ids = map[idKey]uint32{}
}

// clearMemos is the wholesale entry-cap clear; value ids survive it.
func (w *Warm) clearMemos() {
	w.lits = map[ast.Term]*memo[bool]{}
	w.props = map[ast.Term]*memo[propEntry]{}
	w.entries = 0
}

// full reports whether the cap is hit; the caller clears wholesale.
func (w *Warm) full() bool { return w.entries >= warmMaxEntries }

// id interns v.
func (w *Warm) id(v eval.Value) uint32 {
	var k idKey
	switch x := v.(type) {
	case eval.BoolV:
		if x {
			return 1
		}
		return 0
	case eval.StrV:
		k = idKey{sort: ast.SortString, repr: string(x)}
	default:
		k = idKey{sort: v.Sort(), repr: v.String()}
	}
	id, ok := w.ids[k]
	if !ok {
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

// litPasses evaluates literal i under the current assignment — through
// the warm cache when one is attached — returning whether it holds
// (evaluation errors count as failures, matching the search's pruning
// rule). The caller guarantees every free variable of the literal is
// assigned.
func (c *checker) litPasses(i int) bool {
	w := c.warm
	if w == nil {
		return c.evalLit(i)
	}
	lm := c.litMemos[i]
	if lm == nil {
		lm = memoFor(w.lits, c.lits[i])
		c.litMemos[i] = lm
	}
	k := c.key(c.litSlots[i])
	if v, ok := lm.get(k); ok {
		c.telem.Inc(cWarmEvalHits)
		return v
	}
	v := c.evalLit(i)
	if w.full() {
		c.clearWarm()
		lm = memoFor(w.lits, c.lits[i])
		c.litMemos[i] = lm
	}
	lm.put(k, v)
	w.entries++
	c.telem.Inc(cWarmEvalMisses)
	return v
}

// evalLit evaluates literal i against a scratch model holding exactly
// its variables' values.
func (c *checker) evalLit(i int) bool {
	if c.scratch == nil {
		c.scratch = eval.Model{}
	}
	clear(c.scratch)
	for _, s := range c.litSlots[i] {
		c.scratch[c.names[s]] = c.vals[s]
	}
	ok, err := eval.Bool(c.lits[i], c.scratch)
	return err == nil && ok
}

// propValue evaluates defining equation d's rhs under the current
// assignment through the warm cache, returning the value and its id.
// The boolean reports evaluation success (not satisfiability).
func (c *checker) propValue(d int) (eval.Value, uint32, bool) {
	def := &c.defs[d]
	w := c.warm
	if w == nil {
		val, err := eval.Term(def.rhs, c.model)
		return val, 0, err == nil
	}
	pm := c.propMemos[d]
	if pm == nil {
		pm = memoFor(w.props, def.rhs)
		c.propMemos[d] = pm
	}
	k := c.key(def.slots)
	if e, ok := pm.get(k); ok {
		c.telem.Inc(cWarmEvalHits)
		return e.val, e.id, e.ok
	}
	val, err := eval.Term(def.rhs, c.model)
	e := propEntry{val: val, ok: err == nil}
	if e.ok {
		e.id = w.id(val)
	}
	if w.full() {
		c.clearWarm()
		pm = memoFor(w.props, def.rhs)
		c.propMemos[d] = pm
	}
	pm.put(k, e)
	w.entries++
	c.telem.Inc(cWarmEvalMisses)
	return e.val, e.id, e.ok
}
