package regex

import (
	"slices"

	"repro/internal/fuel"
	"repro/internal/telemetry"
)

// cDerivatives counts Brzozowski derivative constructions under a fuel
// meter — one increment per fuel unit spent matching or enumerating.
var cDerivatives = telemetry.NewCounter("yy_regex_derivatives_total", "regex derivative constructions")

// Nullable reports whether r accepts the empty string.
func Nullable(r Regex) bool {
	switch n := r.(type) {
	case none, lit, rng, anyChar:
		if l, ok := n.(lit); ok {
			return l.s == ""
		}
		return false
	case eps, star:
		return true
	case concat:
		for _, s := range n.rs {
			if !Nullable(s) {
				return false
			}
		}
		return true
	case union:
		for _, s := range n.rs {
			if Nullable(s) {
				return true
			}
		}
		return false
	case inter:
		for _, s := range n.rs {
			if !Nullable(s) {
				return false
			}
		}
		return true
	case comp:
		return !Nullable(n.r)
	default:
		panic("regex: unknown node")
	}
}

// Derive returns the Brzozowski derivative of r with respect to byte c:
// the language { w | cw ∈ L(r) }.
func Derive(r Regex, c byte) Regex {
	switch n := r.(type) {
	case none, eps:
		return none{}
	case lit:
		if len(n.s) > 0 && n.s[0] == c {
			return Lit(n.s[1:])
		}
		return none{}
	case rng:
		if c >= n.lo && c <= n.hi {
			return eps{}
		}
		return none{}
	case anyChar:
		return eps{}
	case star:
		return Concat(Derive(n.r, c), n)
	case concat:
		// d(r1 r2...) = d(r1) r2... | [nullable r1] d(r2...)
		head := Concat(append([]Regex{Derive(n.rs[0], c)}, n.rs[1:]...)...)
		if !Nullable(n.rs[0]) {
			return head
		}
		rest := Concat(n.rs[1:]...)
		return Union(head, Derive(rest, c))
	case union:
		outs := make([]Regex, len(n.rs))
		for i, s := range n.rs {
			outs[i] = Derive(s, c)
		}
		return Union(outs...)
	case inter:
		outs := make([]Regex, len(n.rs))
		for i, s := range n.rs {
			outs[i] = Derive(s, c)
		}
		return Inter(outs...)
	case comp:
		return Comp(Derive(n.r, c))
	default:
		panic("regex: unknown node")
	}
}

// Matcher matches strings against a regex with memoized derivatives:
// its memo lasts as long as the Matcher, so a holder that matches many
// strings against one regex builds each derivative once. It is
// single-owner: not safe for concurrent use.
type Matcher struct {
	root Regex
	memo map[derivKey]Regex
	// Fuel, when set, charges one unit per derivative construction.
	// An exhausted meter makes Match answer false conservatively; the
	// solver detects the exhaustion on the meter and reports a timeout
	// instead of trusting the answer.
	Fuel *fuel.Meter
	// Telem records derivative constructions into the owner's tracker.
	// Nil records nothing.
	Telem *telemetry.Tracker
}

// derivKey names the derivative of the regex with key from by byte c.
type derivKey struct {
	from string
	c    byte
}

// NewMatcher returns a matcher for r.
func NewMatcher(r Regex) *Matcher {
	return &Matcher{root: r, memo: map[derivKey]Regex{}}
}

// Match reports whether s ∈ L(r). Fuel and telemetry count one
// derivative per byte read, whether or not the memo holds it.
func (m *Matcher) Match(s string) bool {
	cur := m.root
	for i := 0; i < len(s); i++ {
		if !m.Fuel.Spend(1) {
			return false
		}
		m.Telem.Inc(cDerivatives)
		cur = m.derive(cur, s[i])
		if _, dead := cur.(none); dead {
			return false
		}
	}
	return Nullable(cur)
}

func (m *Matcher) derive(r Regex, c byte) Regex {
	k := derivKey{r.key(), c}
	if d, ok := m.memo[k]; ok {
		return d
	}
	d := Derive(r, c)
	m.memo[k] = d
	return d
}

// Match is a convenience one-shot matcher.
func Match(r Regex, s string) bool { return NewMatcher(r).Match(s) }

// RelevantChars returns a small alphabet sufficient to distinguish the
// languages reachable from r: every byte mentioned in literals and range
// endpoints, plus one representative byte not mentioned (if any byte is
// left). Exploring derivatives over this alphabet decides emptiness.
func RelevantChars(r Regex) []byte {
	set := map[byte]bool{}
	collectChars(r, set)
	out := make([]byte, 0, len(set)+1)
	for c := range set {
		out = append(out, c)
	}
	// One representative outside the mentioned set: prefer a printable
	// byte for readable counterexamples.
	for _, cand := range []byte{'~', '#', 1} {
		if !set[cand] {
			out = append(out, cand)
			break
		}
	}
	slices.Sort(out)
	return out
}

func collectChars(r Regex, set map[byte]bool) {
	switch n := r.(type) {
	case lit:
		for i := 0; i < len(n.s); i++ {
			set[n.s[i]] = true
		}
	case rng:
		// Endpoints and one interior byte characterize the range's
		// interaction with other ranges/literals sufficiently for the
		// fragments generated here.
		set[n.lo] = true
		set[n.hi] = true
		if n.lo+1 < n.hi {
			set[n.lo+1] = true
		}
	case star:
		collectChars(n.r, set)
	case concat:
		for _, s := range n.rs {
			collectChars(s, set)
		}
	case union:
		for _, s := range n.rs {
			collectChars(s, set)
		}
	case inter:
		for _, s := range n.rs {
			collectChars(s, set)
		}
	case comp:
		collectChars(n.r, set)
	}
}

// IsEmpty reports whether L(r) is empty, by exploring the derivative
// closure of r over its relevant alphabet.
func IsEmpty(r Regex) bool {
	alphabet := RelevantChars(r)
	seen := map[string]bool{}
	var explore func(Regex) bool // returns true if a member is reachable
	explore = func(cur Regex) bool {
		if Nullable(cur) {
			return true
		}
		k := cur.key()
		if seen[k] {
			return false
		}
		seen[k] = true
		if _, dead := cur.(none); dead {
			return false
		}
		for _, c := range alphabet {
			if explore(Derive(cur, c)) {
				return true
			}
		}
		return false
	}
	return !explore(r)
}

// Enumerate returns up to limit members of L(r) with length ≤ maxLen, in
// shortlex order over the relevant alphabet. It is used by the string
// solver to propose candidate assignments. Each explored derivative
// state costs one unit of m's fuel, and exhaustion truncates the
// enumeration; each is recorded into tr. A nil m is unlimited and a
// nil tr records nothing.
func Enumerate(r Regex, maxLen, limit int, m *fuel.Meter, tr *telemetry.Tracker) []string {
	alphabet := RelevantChars(r)
	var out []string
	type state struct {
		r Regex
		s string
	}
	queue := []state{{r: r, s: ""}}
	// Bound total work: sparse languages (e.g. (aaa)+ with few short
	// members) would otherwise force exploring the full |Σ|^maxLen tree.
	processed := 0
	for len(queue) > 0 && len(out) < limit && processed < 20000 {
		processed++
		if !m.Spend(1) {
			break
		}
		tr.Inc(cDerivatives)
		cur := queue[0]
		queue = queue[1:]
		if Nullable(cur.r) {
			out = append(out, cur.s)
			if len(out) >= limit {
				break
			}
		}
		if len(cur.s) >= maxLen {
			continue
		}
		for _, c := range alphabet {
			d := Derive(cur.r, c)
			if _, dead := d.(none); dead {
				continue
			}
			queue = append(queue, state{r: d, s: cur.s + string(c)})
		}
		// Bound the frontier: derivative normalization keeps distinct
		// states few, but pathological complements could blow up.
		if len(queue) > 100000 {
			break
		}
	}
	return out
}

// MinLen returns the length of the shortest member of L(r), and false
// if the language is empty. Each explored derivative state costs one
// unit of m's fuel and is recorded into tr (a nil m is unlimited, a nil
// tr records nothing). Exhaustion gives up conservatively, reporting
// the trivial lower bound 0 — the solver then simply learns nothing
// from this regex. The string solver calls this on the solve path, so
// the BFS must charge: complement-heavy regexes can have derivative
// graphs far larger than the state cap.
func MinLen(r Regex, m *fuel.Meter, tr *telemetry.Tracker) (int, bool) {
	alphabet := RelevantChars(r)
	type state struct {
		r Regex
		n int
	}
	queue := []state{{r: r}}
	seen := map[string]bool{r.key(): true}
	for len(queue) > 0 {
		if !m.Spend(1) {
			return 0, true // fuel exhausted: conservative bound
		}
		tr.Inc(cDerivatives)
		cur := queue[0]
		queue = queue[1:]
		if Nullable(cur.r) {
			return cur.n, true
		}
		for _, c := range alphabet {
			d := Derive(cur.r, c)
			if _, dead := d.(none); dead {
				continue
			}
			k := d.key()
			if seen[k] {
				continue
			}
			seen[k] = true
			queue = append(queue, state{r: d, n: cur.n + 1})
		}
		if len(seen) > 100000 {
			return 0, true // give up conservatively: report minimal bound 0
		}
	}
	return 0, false
}

// MaxLen returns the length of the longest member of L(r). The second
// result is false when the language is infinite (or empty).
func MaxLen(r Regex) (int, bool) {
	if IsEmpty(r) {
		return 0, false
	}
	alphabet := RelevantChars(r)
	// Longest path in the derivative graph. A cycle through a state
	// whose language is non-empty pumps arbitrarily long members, so the
	// maximum is unbounded; empty-language states are pruned first.
	memo := map[string]int{}
	const onStack = -2
	var longest func(Regex) (int, bool)
	longest = func(cur Regex) (int, bool) {
		k := cur.key()
		if v, ok := memo[k]; ok {
			if v == onStack {
				return 0, false // live cycle: infinite
			}
			return v, true
		}
		if IsEmpty(cur) {
			memo[k] = -1
			return -1, true // no member from here
		}
		memo[k] = onStack
		best := -1
		if Nullable(cur) {
			best = 0
		}
		for _, c := range alphabet {
			sub, fin := longest(Derive(cur, c))
			if !fin {
				memo[k] = 0
				return 0, false
			}
			if sub >= 0 && sub+1 > best {
				best = sub + 1
			}
		}
		memo[k] = best
		return best, true
	}
	n, fin := longest(r)
	if !fin || n < 0 {
		return 0, false
	}
	return n, true
}
