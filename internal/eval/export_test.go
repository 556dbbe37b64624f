package eval

// Fast runs only the compiled fast path, so tests can tell its answers
// from Eval's reference fallback.
func (p *Program) Fast(frame []Val, slots []int) (Val, bool) { return p.root(frame, slots) }
