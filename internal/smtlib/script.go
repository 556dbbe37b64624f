package smtlib

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/ast"
)

// Command is one SMT-LIB script command.
type Command interface{ aCommand() }

// SetLogic is (set-logic L).
type SetLogic struct{ Logic string }

// SetInfo is (set-info :kw value); the value is kept as raw text.
type SetInfo struct{ Keyword, Value string }

// SetOption is (set-option :kw value); the value is kept as raw text.
type SetOption struct{ Keyword, Value string }

// DeclareFun is a zero-ary function declaration, i.e. a free variable:
// (declare-fun x () S) or (declare-const x S).
type DeclareFun struct {
	Name string
	Sort ast.Sort
}

// DefineFun is (define-fun f ((p S)...) R body). Applications of f are
// macro-expanded during elaboration; the command is retained so scripts
// print back faithfully.
type DefineFun struct {
	Name   string
	Params []ast.SortedVar
	Result ast.Sort
	Body   ast.Term
}

// Assert is (assert t).
type Assert struct{ Term ast.Term }

// CheckSat is (check-sat).
type CheckSat struct{}

// GetModel is (get-model).
type GetModel struct{}

// Exit is (exit).
type Exit struct{}

func (*SetLogic) aCommand()   {}
func (*SetInfo) aCommand()    {}
func (*SetOption) aCommand()  {}
func (*DeclareFun) aCommand() {}
func (*DefineFun) aCommand()  {}
func (*Assert) aCommand()     {}
func (*CheckSat) aCommand()   {}
func (*GetModel) aCommand()   {}
func (*Exit) aCommand()       {}

// Script is a parsed SMT-LIB script.
type Script struct {
	Commands []Command

	renderOnce sync.Once
	rendered   string
}

// Logic returns the declared logic, or "" if none was set.
func (s *Script) Logic() string {
	for _, c := range s.Commands {
		if sl, ok := c.(*SetLogic); ok {
			return sl.Logic
		}
	}
	return ""
}

// Declarations returns the free-variable declarations in order.
func (s *Script) Declarations() []*DeclareFun {
	var out []*DeclareFun
	for _, c := range s.Commands {
		if d, ok := c.(*DeclareFun); ok {
			out = append(out, d)
		}
	}
	return out
}

// DeclarationSorts returns the declared variables keyed by name.
func (s *Script) DeclarationSorts() map[string]ast.Sort {
	out := map[string]ast.Sort{}
	for _, d := range s.Declarations() {
		out[d.Name] = d.Sort
	}
	return out
}

// Asserts returns the asserted terms in order.
func (s *Script) Asserts() []ast.Term {
	var out []ast.Term
	for _, c := range s.Commands {
		if a, ok := c.(*Assert); ok {
			out = append(out, a.Term)
		}
	}
	return out
}

// Conjunction returns the conjunction of all asserts (true if none),
// built in tb.
func (s *Script) Conjunction(tb *ast.Table) ast.Term {
	as := s.Asserts()
	if len(as) == 0 {
		return ast.True
	}
	return tb.And(as...)
}

// Clone returns a shallow command-level copy: the command list is fresh
// but terms are shared (terms are immutable).
func (s *Script) Clone() *Script {
	out := &Script{Commands: make([]Command, len(s.Commands))}
	copy(out.Commands, s.Commands)
	return out
}

// Import returns the script with every term re-interned into tb
// (ast.Table.Import). When that changes no term, the script itself is
// returned; otherwise a copy that shares the term-free commands.
func (s *Script) Import(tb *ast.Table) *Script {
	var out *Script
	for i, c := range s.Commands {
		var nc Command
		switch n := c.(type) {
		case *Assert:
			if t := tb.Import(n.Term); t != n.Term {
				nc = &Assert{Term: t}
			}
		case *DefineFun:
			if body := tb.Import(n.Body); body != n.Body {
				d := *n
				d.Body = body
				nc = &d
			}
		}
		if nc == nil {
			continue
		}
		if out == nil {
			out = s.Clone()
		}
		out.Commands[i] = nc
	}
	if out == nil {
		return s
	}
	return out
}

// NewScript assembles a script from a logic name, ordered declarations,
// and assert terms, ending with (check-sat).
func NewScript(logic string, decls []*DeclareFun, asserts []ast.Term) *Script {
	s := &Script{}
	if logic != "" {
		s.Commands = append(s.Commands, &SetLogic{Logic: logic})
	}
	for _, d := range decls {
		s.Commands = append(s.Commands, d)
	}
	for _, a := range asserts {
		s.Commands = append(s.Commands, &Assert{Term: a})
	}
	s.Commands = append(s.Commands, &CheckSat{})
	return s
}

var builderPool = sync.Pool{New: func() any { return new(strings.Builder) }}

// Print renders the script in SMT-LIB concrete syntax.
func Print(s *Script) string {
	b := builderPool.Get().(*strings.Builder)
	b.Reset()
	for _, c := range s.Commands {
		printCommand(b, c)
	}
	out := b.String()
	builderPool.Put(b)
	return out
}

// Text returns the script's rendering, computed once and cached. Use it
// for finalized scripts that are rendered repeatedly (seed corpora,
// campaign reports); a script whose Commands may still change must go
// through Print. Safe for concurrent use.
func (s *Script) Text() string {
	s.renderOnce.Do(func() { s.rendered = Print(s) })
	return s.rendered
}

func printCommand(b *strings.Builder, c Command) {
	switch n := c.(type) {
	case *SetLogic:
		fmt.Fprintf(b, "(set-logic %s)\n", n.Logic)
	case *SetInfo:
		fmt.Fprintf(b, "(set-info %s %s)\n", n.Keyword, n.Value)
	case *SetOption:
		fmt.Fprintf(b, "(set-option %s %s)\n", n.Keyword, n.Value)
	case *DeclareFun:
		fmt.Fprintf(b, "(declare-fun %s () %s)\n", n.Name, n.Sort)
	case *DefineFun:
		fmt.Fprintf(b, "(define-fun %s (", n.Name)
		for i, p := range n.Params {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(b, "(%s %s)", p.Name, p.Sort)
		}
		fmt.Fprintf(b, ") %s %s)\n", n.Result, ast.Print(n.Body))
	case *Assert:
		fmt.Fprintf(b, "(assert %s)\n", ast.Print(n.Term))
	case *CheckSat:
		b.WriteString("(check-sat)\n")
	case *GetModel:
		b.WriteString("(get-model)\n")
	case *Exit:
		b.WriteString("(exit)\n")
	default:
		panic(fmt.Sprintf("smtlib: unknown command %T", c))
	}
}
