// Package telemetry is the campaign observability layer: named
// counters and step histograms registered at package initialization
// (the same registration style as internal/coverage probes), recorded
// into per-owner Trackers and aggregated into deterministic Snapshots.
//
// Everything here is step-based, never wall-clock: instrumentation
// sites piggyback on the existing fuel.Meter charge points (one
// counter increment where one fuel unit is spent), so metric totals
// are a pure function of the work performed — bit-identical for any
// thread count, any scheduler, any machine. The only time-based
// sampling in the repository stays behind the golint wall-clock
// allowlist (internal/watchdog, cmd/bench); this package never touches
// the clock.
//
// Concurrency model: a Tracker is NOT safe for concurrent use — like
// fuel.Meter, it has one owner at a time (the harness builds one per
// task, with the task's solver), and the campaign's classification
// stage merges the tasks' Deltas in deterministic task order. This keeps the hot-path increment a single slice store,
// which is what holds instrumentation overhead under the bench gate's
// 3% bound.
package telemetry

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
)

// Counter is a registered monotonic counter. Counters are created once
// at package initialization (NewCounter), so the registry knows the
// full metric universe before any Tracker exists.
type Counter struct {
	Name string
	Help string
	idx  int
}

// Histogram is a registered step-valued histogram with fixed bucket
// upper bounds (cumulative, Prometheus-style; an implicit +Inf bucket
// catches the rest).
type Histogram struct {
	Name    string
	Help    string
	Buckets []int64 // strictly increasing upper bounds
	idx     int
}

var (
	regMu      sync.Mutex
	counters   []*Counter
	histograms []*Histogram
	byName     = map[string]bool{}
	counterOf  = map[string]*Counter{}
)

// NewCounter registers a counter. Duplicate names panic: metrics model
// static instrumentation sites.
func NewCounter(name, help string) *Counter {
	regMu.Lock()
	defer regMu.Unlock()
	if byName[name] {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", name))
	}
	byName[name] = true
	c := &Counter{Name: name, Help: help, idx: len(counters)}
	counters = append(counters, c)
	counterOf[name] = c
	return c
}

// NewHistogram registers a histogram with the given bucket upper
// bounds (must be strictly increasing and non-empty). Duplicate names
// panic.
func NewHistogram(name, help string, buckets []int64) *Histogram {
	if len(buckets) == 0 {
		panic(fmt.Sprintf("telemetry: histogram %q needs at least one bucket", name))
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("telemetry: histogram %q buckets not increasing", name))
		}
	}
	regMu.Lock()
	defer regMu.Unlock()
	if byName[name] {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", name))
	}
	byName[name] = true
	h := &Histogram{Name: name, Help: help, Buckets: buckets, idx: len(histograms)}
	histograms = append(histograms, h)
	return h
}

// ExpBuckets returns n bucket bounds starting at start and multiplying
// by factor — the usual shape for step counts spanning orders of
// magnitude.
func ExpBuckets(start, factor int64, n int) []int64 {
	out := make([]int64, n)
	v := start
	for i := 0; i < n; i++ {
		out[i] = v
		v *= factor
	}
	return out
}

// histState is one histogram's recorded data: per-bucket counts (not
// cumulative; bucket i counts values ≤ Buckets[i] that exceeded
// Buckets[i-1]), an overflow count, the total count, and the sum.
type histState struct {
	counts   []int64
	overflow int64
	count    int64
	sum      int64
}

// Tracker records counter increments and histogram observations for
// one owner. A nil Tracker is valid and records nothing, so
// instrumented code needs no guards. Trackers are NOT safe for
// concurrent use; each has one owner and aggregation goes through
// Snapshots and Deltas.
type Tracker struct {
	counts []int64
	hists  []*histState
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker { return &Tracker{} }

// Add increments counter c by n. The nil receiver and a nil counter
// no-op.
func (t *Tracker) Add(c *Counter, n int64) {
	if t == nil || c == nil {
		return
	}
	if c.idx >= len(t.counts) {
		t.grow()
	}
	t.counts[c.idx] += n
}

// Inc is Add(c, 1): the per-step hot path.
func (t *Tracker) Inc(c *Counter) {
	if t == nil || c == nil {
		return
	}
	if c.idx >= len(t.counts) {
		t.grow()
	}
	t.counts[c.idx]++
}

// Observe records value v into histogram h.
func (t *Tracker) Observe(h *Histogram, v int64) {
	if t == nil || h == nil {
		return
	}
	if h.idx >= len(t.hists) {
		t.grow()
	}
	hs := t.hists[h.idx]
	if hs == nil {
		hs = &histState{counts: make([]int64, len(h.Buckets))}
		t.hists[h.idx] = hs
	}
	placed := false
	for i, ub := range h.Buckets {
		if v <= ub {
			hs.counts[i]++
			placed = true
			break
		}
	}
	if !placed {
		hs.overflow++
	}
	hs.count++
	hs.sum += v
}

// grow resizes the tracker's backing slices to the current registry
// size (counters registered after the tracker was created).
func (t *Tracker) grow() {
	regMu.Lock()
	nc, nh := len(counters), len(histograms)
	regMu.Unlock()
	if n := nc - len(t.counts); n > 0 {
		t.counts = append(t.counts, make([]int64, n)...)
	}
	if n := nh - len(t.hists); n > 0 {
		t.hists = append(t.hists, make([]*histState, n)...)
	}
}

// HistValues is one histogram's snapshot.
type HistValues struct {
	// Buckets holds per-bucket counts aligned with the registered
	// bucket bounds (not cumulative).
	Buckets  []int64
	Overflow int64
	Count    int64
	Sum      int64
}

// Snapshot is a deterministic value copy of a tracker's state:
// non-zero counters by name plus histogram data by name. Snapshots of
// equal recorded work are deeply equal regardless of recording order.
type Snapshot struct {
	Counters   map[string]int64
	Histograms map[string]HistValues
}

// Snapshot copies the tracker's current state. A nil tracker yields an
// empty snapshot.
func (t *Tracker) Snapshot() Snapshot {
	s := Snapshot{Counters: map[string]int64{}, Histograms: map[string]HistValues{}}
	if t == nil {
		return s
	}
	regMu.Lock()
	cs := make([]*Counter, len(counters))
	copy(cs, counters)
	hs := make([]*Histogram, len(histograms))
	copy(hs, histograms)
	regMu.Unlock()
	for _, c := range cs {
		if c.idx < len(t.counts) && t.counts[c.idx] != 0 {
			s.Counters[c.Name] = t.counts[c.idx]
		}
	}
	for _, h := range hs {
		if h.idx >= len(t.hists) || t.hists[h.idx] == nil {
			continue
		}
		st := t.hists[h.idx]
		hv := HistValues{
			Buckets:  append([]int64(nil), st.counts...),
			Overflow: st.overflow,
			Count:    st.count,
			Sum:      st.sum,
		}
		s.Histograms[h.Name] = hv
	}
	return s
}

// Merge adds snapshot other into the tracker. Used by the campaign's
// in-order classification stage to fold per-task deltas into the
// campaign-level tracker; merging in task order keeps byte-identical
// renderings for any thread count.
func (t *Tracker) Merge(other Snapshot) {
	if t == nil {
		return
	}
	t.grow()
	regMu.Lock()
	cs := make([]*Counter, len(counters))
	copy(cs, counters)
	hs := make([]*Histogram, len(histograms))
	copy(hs, histograms)
	regMu.Unlock()
	for _, c := range cs {
		if v, ok := other.Counters[c.Name]; ok {
			t.counts[c.idx] += v
		}
	}
	for _, h := range hs {
		hv, ok := other.Histograms[h.Name]
		if !ok {
			continue
		}
		st := t.hists[h.idx]
		if st == nil {
			st = &histState{counts: make([]int64, len(h.Buckets))}
			t.hists[h.idx] = st
		}
		for i := range st.counts {
			if i < len(hv.Buckets) {
				st.counts[i] += hv.Buckets[i]
			}
		}
		st.overflow += hv.Overflow
		st.count += hv.Count
		st.sum += hv.Sum
	}
}

// Accumulate adds other into s, mutating s (maps are initialized on
// first use). Unlike Tracker.Merge it needs no registry — a snapshot
// may carry metric names this process never registered — so it is the
// primitive the campaign service's fleet scrape and the yybench
// benchmark use to fold per-job (or per-window) snapshots together;
// harness.Merge re-derives metrics from task records instead.
// Histogram bucket slices are extended to the longer of the two.
func (s *Snapshot) Accumulate(other Snapshot) {
	if len(other.Counters) > 0 && s.Counters == nil {
		s.Counters = map[string]int64{}
	}
	for name, v := range other.Counters {
		s.Counters[name] += v
	}
	if len(other.Histograms) > 0 && s.Histograms == nil {
		s.Histograms = map[string]HistValues{}
	}
	for name, hv := range other.Histograms {
		cur := s.Histograms[name]
		n := len(cur.Buckets)
		if len(hv.Buckets) > n {
			n = len(hv.Buckets)
		}
		merged := make([]int64, n)
		copy(merged, cur.Buckets)
		for i, c := range hv.Buckets {
			merged[i] += c
		}
		cur.Buckets = merged
		cur.Overflow += hv.Overflow
		cur.Count += hv.Count
		cur.Sum += hv.Sum
		s.Histograms[name] = cur
	}
}

// Delta is a compact set of counter increments: (counter index,
// increment) pairs as uvarints, in registry order, zero increments
// dropped. It is the per-task unit of engine telemetry, small enough to
// keep one per task for a whole campaign. Indices are process-local, so
// a Delta crosses process boundaries only through its JSON form, an
// object keyed by counter name.
type Delta string

// Delta returns every counter increment the tracker holds: a task's
// delta is its own tracker's. A nil tracker yields an empty delta.
func (t *Tracker) Delta() Delta {
	if t == nil {
		return ""
	}
	var arr [256]byte // a typical task's delta encodes on the stack
	buf := arr[:0]
	for i, v := range t.counts {
		if v != 0 {
			buf = binary.AppendUvarint(buf, uint64(i))
			buf = binary.AppendUvarint(buf, uint64(v))
		}
	}
	return Delta(buf)
}

// each calls fn for every (counter, increment) pair of the delta. A
// malformed delta stops the walk; deltas are only built by Tracker.Delta and
// UnmarshalJSON, which never produce one.
func (d Delta) each(fn func(c *Counter, n int64)) {
	regMu.Lock()
	cs := counters
	regMu.Unlock()
	for len(d) > 0 {
		idx, k := uvarint(d)
		if k == 0 || idx >= uint64(len(cs)) {
			return
		}
		n, m := uvarint(d[k:])
		if m == 0 {
			return
		}
		fn(cs[idx], int64(n))
		d = d[k+m:]
	}
}

// uvarint decodes the uvarint at the front of d and its length (0 when
// d holds none).
func uvarint(d Delta) (uint64, int) {
	var x uint64
	for i := 0; i < len(d) && i < binary.MaxVarintLen64; i++ {
		x |= uint64(d[i]&0x7f) << (7 * i)
		if d[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// AddDelta adds a delta's increments to the tracker.
func (t *Tracker) AddDelta(d Delta) {
	if t == nil {
		return
	}
	d.each(func(c *Counter, n int64) { t.Add(c, n) })
}

// Counter returns the delta's increment of c (0 when absent).
func (d Delta) Counter(c *Counter) int64 {
	var out int64
	d.each(func(dc *Counter, n int64) {
		if dc == c {
			out = n
		}
	})
	return out
}

// Map returns the delta keyed by counter name (nil when empty).
func (d Delta) Map() map[string]int64 {
	if len(d) == 0 {
		return nil
	}
	m := map[string]int64{}
	d.each(func(c *Counter, n int64) { m[c.Name] = n })
	return m
}

// MarshalJSON renders the delta as an object keyed by counter name.
func (d Delta) MarshalJSON() ([]byte, error) {
	m := d.Map()
	if m == nil {
		m = map[string]int64{}
	}
	return json.Marshal(m)
}

// UnmarshalJSON parses the object form. Every name must be a registered
// counter and every increment positive: a delta names work this build
// can account for, or it fails to decode.
func (d *Delta) UnmarshalJSON(data []byte) error {
	var m map[string]int64
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	type entry struct {
		idx int
		n   int64
	}
	es := make([]entry, 0, len(m))
	regMu.Lock()
	for name, n := range m {
		c, ok := counterOf[name]
		if !ok || n <= 0 {
			regMu.Unlock()
			if !ok {
				return fmt.Errorf("telemetry: unknown counter %q", name)
			}
			return fmt.Errorf("telemetry: counter %q increment %d is not positive", name, n)
		}
		es = append(es, entry{c.idx, n})
	}
	regMu.Unlock()
	sort.Slice(es, func(i, j int) bool { return es[i].idx < es[j].idx })
	var buf []byte
	for _, e := range es {
		buf = binary.AppendUvarint(buf, uint64(e.idx))
		buf = binary.AppendUvarint(buf, uint64(e.n))
	}
	*d = Delta(buf)
	return nil
}

// Counter returns a counter's value in the snapshot (0 when absent).
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Names returns the sorted counter names present in the snapshot.
func (s Snapshot) Names() []string {
	out := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
