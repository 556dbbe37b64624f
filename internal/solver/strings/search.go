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
	w := c.warm
	if w != nil && len(w.ids) >= warmMaxIDs {
		w.reset()
	}
	n := len(c.names)
	c.vals = make([]eval.Val, n)
	c.ids = make([]uint32, n)
	c.litMemos = make([]*memo[bool], len(c.lits))
	c.propMemos = make([]*memo[propEntry], len(c.defs))
	// Each literal is completed once along a path, so the stack of
	// completed literals never outgrows the literal count.
	c.completed = make([]completedLit, 0, len(c.lits))
	if w != nil {
		w.resetRows()
	}

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
	// timeout — is the same, with no wall-clock cost. The frontier is
	// counted before any candidate list is built, so a drained search
	// builds none.
	branching := 0
	for _, srt := range c.sorts {
		if srt == ast.SortBool || srt == ast.SortString {
			branching++
		}
	}
	if branching >= 4 && c.defect("pf-strings-dfs-hang") {
		c.fuel.Drain()
		return Unknown, nil
	}

	c.buildAlphabet()
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

	// Branch on the next unassigned variable. The literals it completes
	// are fixed for the whole loop, because deeper frames undo their
	// assignments on return, so they and their verdict rows are looked
	// up once, not per candidate.
	for _, s := range c.order {
		if c.assigned(s) {
			continue
		}
		base := len(c.completed)
		for _, i := range c.litsBySlot[s] {
			if c.allSetBut(c.litSlots[i], s) {
				c.completed = append(c.completed, completedLit{lit: i, row: c.row(i, s)})
			}
		}
		ok, model := c.branch(s, c.completed[base:])
		c.completed = c.completed[:base]
		return ok, model
	}
	return c.completeArith()
}

// branch tries the candidates of slot s in order, each checked against
// done, the literals s completes; a candidate that passes is assigned
// and searched below.
func (c *checker) branch(s int, done []completedLit) (bool, eval.Model) {
	for k, val := range c.cands[s] {
		c.vals[s], c.ids[s] = val, c.candIDs[s][k]
		if c.candPasses(done, k) {
			if ok, model := c.dfs(); ok {
				return true, model
			}
		}
		c.unassign(s)
		if c.nodes <= 0 {
			break
		}
	}
	return false, nil
}

// completedLit is a literal the branching slot completes, with the slab
// offset of its verdict row (-1: none).
type completedLit struct {
	lit int
	row int32
}

// candPasses checks candidate k of the branching slot against the
// literals it completes, in litsBySlot order, stopping at the first
// failure like litsConsistentAfter.
func (c *checker) candPasses(done []completedLit, k int) bool {
	for _, d := range done {
		if !c.rowPasses(d.lit, d.row, k) {
			return false
		}
	}
	return true
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
	return c.allSetBut(slots, -1)
}

// allSetBut reports whether every given slot other than but is
// assigned.
func (c *checker) allSetBut(slots []int, but int) bool {
	for _, s := range slots {
		if s != but && !c.assigned(s) {
			return false
		}
	}
	return true
}
