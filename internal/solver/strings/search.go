package strings

import (
	"sort"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/regex"
)

// search performs the bounded witness search: DFS over candidate
// assignments for string and boolean variables with defining-equation
// propagation and per-literal pruning, followed by arithmetic completion
// for the remaining integer/real variables. It never returns Unsat.
func (c *checker) search() (Status, eval.Model) {
	c.buildAlphabet()

	w := c.warm
	if w != nil && len(w.ids) >= warmMaxIDs {
		w.Reset()
	}
	n := len(c.names)
	c.cands = make([][]eval.Val, n)
	c.candIDs = make([][]uint32, n)
	for s, srt := range c.sorts {
		switch srt {
		case ast.SortBool:
			c.cands[s] = []eval.Val{eval.BoolVal(false), eval.BoolVal(true)}
		case ast.SortString:
			c.cands[s] = c.stringCandidates(c.names[s])
		default:
			continue
		}
		c.order = append(c.order, s)
		c.candIDs[s] = make([]uint32, len(c.cands[s]))
		if w != nil {
			for k, v := range c.cands[s] {
				c.candIDs[s][k] = w.id(v)
			}
		}
	}
	// Most-constrained-first ordering.
	sort.SliceStable(c.order, func(i, j int) bool {
		return len(c.cands[c.order[i]]) < len(c.cands[c.order[j]])
	})

	c.vals = make([]eval.Val, n)
	c.ids = make([]uint32, n)
	c.litMemos = make([]*memo[bool], len(c.lits))
	c.propMemos = make([]*memo[propEntry], len(c.defs))

	// Literals with no free variables never become "newly completed" by
	// an assignment below; verify them once up front.
	for _, i := range c.groundLits {
		if !c.litPasses(i) {
			return Unknown, nil
		}
	}

	// Injected hang defect: on wide search frontiers (the shape fused
	// formulas produce, with both ancestors' variables plus the fusion
	// variable in scope) the DFS "loops forever". Simulated by draining
	// the fuel meter: the observable signature — a deterministic
	// timeout — is the same, with no wall-clock cost.
	if len(c.order) >= 4 && c.defect("pf-strings-dfs-hang") {
		c.fuel.Drain()
		return Unknown, nil
	}

	c.nodes = c.lim.MaxNodes
	if ok, model := c.dfs(); ok {
		return Sat, model
	}
	return Unknown, nil
}

// buildAlphabet gathers a small alphabet sufficient for candidate
// construction: every byte in the problem's string literals and ground
// regexes, digits when integer conversions occur, and a fresh byte.
func (c *checker) buildAlphabet() {
	set := map[byte]bool{}
	needDigits := false
	for _, l := range c.lits {
		ast.Walk(l, func(t ast.Term) bool {
			switch n := t.(type) {
			case *ast.StrLit:
				for i := 0; i < len(n.V); i++ {
					set[n.V[i]] = true
				}
			case *ast.App:
				if n.Op == ast.OpStrToInt || n.Op == ast.OpStrFromInt {
					needDigits = true
				}
			}
			return true
		})
	}
	for _, rs := range c.pos {
		for _, r := range rs {
			for _, ch := range regex.RelevantChars(r) {
				set[ch] = true
			}
		}
	}
	if needDigits {
		set['0'] = true
		set['1'] = true
	}
	if len(set) == 0 {
		set['a'] = true
	}
	// One representative byte outside the set.
	for _, cand := range []byte{'~', '#', '@'} {
		if !set[cand] {
			set[cand] = true
			break
		}
	}
	out := make([]byte, 0, len(set))
	for b := range set {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	if len(out) > 10 {
		out = out[:10]
	}
	c.alphabet = out
}

// stringCandidates builds the ordered candidate list for a string
// variable: regex-guided members when a positive membership constrains
// the variable, otherwise shortlex strings over the alphabet, literal
// constants from the problem, and hint-length paddings. Candidates are
// filtered by negative memberships.
func (c *checker) stringCandidates(v string) []eval.Val {
	maxLen := c.lim.MaxLen
	var raw []string
	if rs := c.pos[v]; len(rs) > 0 {
		r := regex.Inter(rs...)
		raw = regex.EnumerateFuel(r, maxLen+2, c.lim.MaxCandidates, c.fuel, c.telem)
	} else {
		// Problem literals are strong candidates for equalities, and
		// decimal renderings of integer constants matter for str.to_int
		// constraints whose digits may be outside the alphabet. They go
		// first so the candidate cap never drops them.
		for _, l := range c.lits {
			ast.Walk(l, func(t ast.Term) bool {
				switch n := t.(type) {
				case *ast.StrLit:
					if len(n.V) <= maxLen+2 {
						raw = append(raw, n.V)
					}
				case *ast.IntLit:
					if n.V.Sign() >= 0 && len(n.V.String()) <= maxLen+2 {
						raw = append(raw, n.V.String())
					}
				}
				return true
			})
		}
		raw = append(raw, c.shortlex(maxLen, c.lim.MaxCandidates)...)
		// Hint-length paddings keep long-but-feasible lengths in reach.
		if h, ok := c.lenHint[v]; ok && h > 0 && h <= maxLen+2 {
			for _, ch := range c.alphabet {
				pad := make([]byte, h)
				for i := range pad {
					pad[i] = ch
				}
				raw = append(raw, string(pad))
			}
		}
	}

	seen := map[string]bool{}
	var out []eval.Val
	hint, hasHint := c.lenHint[v]
	// Prefer hint-length candidates by stable partition.
	if hasHint {
		sort.SliceStable(raw, func(i, j int) bool {
			di := abs(len(raw[i]) - hint)
			dj := abs(len(raw[j]) - hint)
			return di < dj
		})
	}
	for _, s := range raw {
		if seen[s] {
			continue
		}
		seen[s] = true
		if c.violatesNeg(v, s) {
			continue
		}
		out = append(out, eval.StrVal(s))
		if len(out) >= c.lim.MaxCandidates {
			break
		}
	}
	return out
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func (c *checker) violatesNeg(v, s string) bool {
	for _, r := range c.neg[v] {
		if regex.MatchFuel(r, s, c.fuel, c.telem) {
			return true
		}
	}
	return false
}

// shortlex enumerates strings over the alphabet in shortlex order.
func (c *checker) shortlex(maxLen, limit int) []string {
	out := []string{""}
	frontier := []string{""}
	for l := 1; l <= maxLen && len(out) < limit; l++ {
		var next []string
		for _, p := range frontier {
			for _, ch := range c.alphabet {
				s := p + string(ch)
				out = append(out, s)
				next = append(next, s)
				if len(out) >= limit {
					return out
				}
			}
		}
		frontier = next
	}
	return out
}

// dfs extends the current assignment: values forced by defining
// equations first, then a branch over the candidates of the next
// unassigned variable; a full assignment goes to arithmetic completion.
func (c *checker) dfs() (bool, eval.Model) {
	if c.nodes <= 0 || !c.fuel.Spend(1) {
		return false, nil
	}
	c.telem.Inc(cDFSSteps)
	c.nodes--

	// Propagation: a variable whose defining equation is ground under
	// the assignment is forced; assign it and recurse without branching.
	for _, s := range c.order {
		if c.assigned(s) {
			continue
		}
		for _, d := range c.defsOf[s] {
			if !c.allSet(c.defs[d].slots) {
				continue
			}
			val, id, ok := c.propValue(d)
			if !ok {
				continue
			}
			if val.Sort() == ast.SortString && c.violatesNeg(c.names[s], val.Str()) {
				return false, nil
			}
			if !c.assign(s, val, id) {
				return false, nil
			}
			ok, model := c.dfs()
			if !ok {
				c.unassign(s)
			}
			return ok, model
		}
	}

	// Branch on the next unassigned variable.
	for _, s := range c.order {
		if c.assigned(s) {
			continue
		}
		for k, val := range c.cands[s] {
			if c.assign(s, val, c.candIDs[s][k]) {
				if ok, model := c.dfs(); ok {
					return true, model
				}
				c.unassign(s)
			}
			if c.nodes <= 0 {
				return false, nil
			}
		}
		return false, nil
	}
	return c.completeArith()
}

// assign gives slot s the value val (interned as id) and checks the
// literals it completes; a value that fails leaves s unassigned. The
// search mutates the frame in place and undoes on backtrack.
func (c *checker) assign(s int, val eval.Val, id uint32) bool {
	c.vals[s], c.ids[s] = val, id
	if !c.litsConsistentAfter(s) {
		c.unassign(s)
		return false
	}
	return true
}

func (c *checker) unassign(s int) { c.vals[s] = eval.Val{} }

// assigned reports whether slot s has a value.
func (c *checker) assigned(s int) bool { return c.vals[s].Sort() != ast.SortInvalid }

// litsConsistentAfter evaluates only the literals completed by the
// assignment of slot s: a literal needs checking exactly when its last
// free variable gets a value, so the DFS evaluates each literal once
// per path instead of re-evaluating every ready literal at every node.
func (c *checker) litsConsistentAfter(s int) bool {
	for _, i := range c.litsBySlot[s] {
		if c.allSet(c.litSlots[i]) && !c.litPasses(i) {
			return false
		}
	}
	return true
}

// allSet reports whether every given slot is assigned.
func (c *checker) allSet(slots []int) bool {
	for _, s := range slots {
		if !c.assigned(s) {
			return false
		}
	}
	return true
}
