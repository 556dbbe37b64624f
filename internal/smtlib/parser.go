package smtlib

import (
	"math/big"

	"repro/internal/ast"
)

// ParseScript parses a complete SMT-LIB script, elaborating all terms
// into a table of its own.
func ParseScript(src string) (*Script, error) {
	return ParseScriptIn(ast.NewTable(nil), src)
}

// ParseScriptIn parses a complete SMT-LIB script, elaborating all terms
// into tb: for callers that go on to build or solve in the same table.
func ParseScriptIn(tb *ast.Table, src string) (*Script, error) {
	p := newSexprParser(src)
	el := &elaborator{
		tb:   tb,
		vars: map[string]ast.Sort{},
		defs: map[string]*DefineFun{},
	}
	script := &Script{}
	for {
		se, err := p.parse()
		if err != nil {
			return nil, err
		}
		if se == nil {
			return script, nil
		}
		cmd, err := el.command(se)
		if err != nil {
			return nil, err
		}
		if cmd != nil {
			script.Commands = append(script.Commands, cmd)
		}
	}
}

// ParseTerm parses a single term into tb under the given free-variable
// declarations — a convenience for tests and programmatic use.
func ParseTerm(tb *ast.Table, src string, decls map[string]ast.Sort) (ast.Term, error) {
	p := newSexprParser(src)
	se, err := p.parse()
	if err != nil {
		return nil, err
	}
	if se == nil {
		return nil, errAt(1, 1, "empty input")
	}
	el := &elaborator{tb: tb, vars: decls, defs: map[string]*DefineFun{}}
	return el.term(se, nil)
}

// elaborator turns s-expressions into typed commands and terms.
type elaborator struct {
	tb   *ast.Table
	vars map[string]ast.Sort   // declared zero-ary functions
	defs map[string]*DefineFun // defined functions (macro-expanded)
}

// scope is a linked list of local bindings (let bodies, quantifiers).
type scope struct {
	name   string
	value  ast.Term // bound value (let) or variable itself (quantifier)
	parent *scope
}

func (sc *scope) lookup(name string) (ast.Term, bool) {
	for s := sc; s != nil; s = s.parent {
		if s.name == name {
			return s.value, true
		}
	}
	return nil, false
}

func (el *elaborator) command(se sexpr) (Command, error) {
	l, ok := se.(*list)
	if !ok || len(l.items) == 0 {
		line, col := se.pos()
		return nil, errAt(line, col, "expected a command list")
	}
	head, ok := l.items[0].(*atom)
	if !ok || head.tok.kind != tokSymbol {
		line, col := l.items[0].pos()
		return nil, errAt(line, col, "expected a command name")
	}
	switch head.tok.text {
	case "set-logic":
		name, err := el.symbolArg(l, 1, "logic name")
		if err != nil {
			return nil, err
		}
		return &SetLogic{Logic: name}, nil
	case "set-info", "set-option":
		if len(l.items) < 2 {
			return nil, errAt(l.line, l.col, "%s: missing keyword", head.tok.text)
		}
		kw, _ := l.items[1].(*atom)
		if kw == nil || kw.tok.kind != tokKeyword {
			line, col := l.items[1].pos()
			return nil, errAt(line, col, "%s: expected a keyword", head.tok.text)
		}
		val := ""
		if len(l.items) > 2 {
			val = rawText(l.items[2])
		}
		if head.tok.text == "set-info" {
			return &SetInfo{Keyword: kw.tok.text, Value: val}, nil
		}
		return &SetOption{Keyword: kw.tok.text, Value: val}, nil
	case "declare-fun":
		if len(l.items) != 4 {
			return nil, errAt(l.line, l.col, "declare-fun: want (declare-fun name () Sort)")
		}
		name, err := el.symbolArg(l, 1, "function name")
		if err != nil {
			return nil, err
		}
		params, ok := l.items[2].(*list)
		if !ok || len(params.items) != 0 {
			line, col := l.items[2].pos()
			return nil, errAt(line, col, "declare-fun: only zero-ary functions (variables) are supported")
		}
		sort, err := el.sortArg(l.items[3])
		if err != nil {
			return nil, err
		}
		return el.declare(name, sort, l)
	case "declare-const":
		if len(l.items) != 3 {
			return nil, errAt(l.line, l.col, "declare-const: want (declare-const name Sort)")
		}
		name, err := el.symbolArg(l, 1, "constant name")
		if err != nil {
			return nil, err
		}
		sort, err := el.sortArg(l.items[2])
		if err != nil {
			return nil, err
		}
		return el.declare(name, sort, l)
	case "define-fun":
		return el.defineFun(l)
	case "assert":
		if len(l.items) != 2 {
			return nil, errAt(l.line, l.col, "assert: want exactly one term")
		}
		t, err := el.term(l.items[1], nil)
		if err != nil {
			return nil, err
		}
		if t.Sort() != ast.SortBool {
			line, col := l.items[1].pos()
			return nil, errAt(line, col, "assert: term has sort %v, want Bool", t.Sort())
		}
		return &Assert{Term: t}, nil
	case "check-sat":
		return &CheckSat{}, nil
	case "get-model":
		return &GetModel{}, nil
	case "exit":
		return &Exit{}, nil
	case "push", "pop", "get-info", "get-value", "echo", "reset", "get-unsat-core":
		// Accepted and ignored: these occur in benchmark headers but do
		// not affect a single check-sat pipeline.
		return nil, nil
	default:
		return nil, errAt(l.line, l.col, "unsupported command %q", head.tok.text)
	}
}

func (el *elaborator) declare(name string, sort ast.Sort, l *list) (Command, error) {
	if _, dup := el.vars[name]; dup {
		return nil, errAt(l.line, l.col, "duplicate declaration of %q", name)
	}
	if _, dup := el.defs[name]; dup {
		return nil, errAt(l.line, l.col, "declaration of %q collides with a definition", name)
	}
	el.vars[name] = sort
	return &DeclareFun{Name: name, Sort: sort}, nil
}

func (el *elaborator) defineFun(l *list) (Command, error) {
	if len(l.items) != 5 {
		return nil, errAt(l.line, l.col, "define-fun: want (define-fun name ((p S)...) R body)")
	}
	name, err := el.symbolArg(l, 1, "function name")
	if err != nil {
		return nil, err
	}
	paramList, ok := l.items[2].(*list)
	if !ok {
		line, col := l.items[2].pos()
		return nil, errAt(line, col, "define-fun: expected parameter list")
	}
	var params []ast.SortedVar
	var sc *scope
	for _, p := range paramList.items {
		pl, ok := p.(*list)
		if !ok || len(pl.items) != 2 {
			line, col := p.pos()
			return nil, errAt(line, col, "define-fun: malformed parameter")
		}
		pn, ok := pl.items[0].(*atom)
		if !ok {
			line, col := pl.items[0].pos()
			return nil, errAt(line, col, "define-fun: malformed parameter name")
		}
		ps, err := el.sortArg(pl.items[1])
		if err != nil {
			return nil, err
		}
		params = append(params, ast.SortedVar{Name: pn.tok.text, Sort: ps})
		sc = &scope{name: pn.tok.text, value: el.tb.Var(pn.tok.text, ps), parent: sc}
	}
	result, err := el.sortArg(l.items[3])
	if err != nil {
		return nil, err
	}
	body, err := el.term(l.items[4], sc)
	if err != nil {
		return nil, err
	}
	if body.Sort() != result {
		line, col := l.items[4].pos()
		return nil, errAt(line, col, "define-fun %s: body has sort %v, want %v", name, body.Sort(), result)
	}
	if _, dup := el.vars[name]; dup {
		return nil, errAt(l.line, l.col, "definition of %q collides with a declaration", name)
	}
	def := &DefineFun{Name: name, Params: params, Result: result, Body: body}
	el.defs[name] = def
	return def, nil
}

func (el *elaborator) symbolArg(l *list, i int, what string) (string, error) {
	if len(l.items) <= i {
		return "", errAt(l.line, l.col, "missing %s", what)
	}
	a, ok := l.items[i].(*atom)
	if !ok || a.tok.kind != tokSymbol {
		line, col := l.items[i].pos()
		return "", errAt(line, col, "expected %s", what)
	}
	return a.tok.text, nil
}

func (el *elaborator) sortArg(se sexpr) (ast.Sort, error) {
	a, ok := se.(*atom)
	if !ok {
		// Allow the legacy (RegEx String) spelling.
		if l, isList := se.(*list); isList && len(l.items) == 2 {
			if h, ok := l.items[0].(*atom); ok && h.tok.text == "RegEx" {
				return ast.SortRegLan, nil
			}
		}
		line, col := se.pos()
		return ast.SortInvalid, errAt(line, col, "expected a sort")
	}
	s, ok := ast.SortByName(a.tok.text)
	if !ok {
		return ast.SortInvalid, errAt(a.tok.line, a.tok.col, "unknown sort %q", a.tok.text)
	}
	return s, nil
}

// term elaborates an s-expression into a typed term.
func (el *elaborator) term(se sexpr, sc *scope) (ast.Term, error) {
	switch n := se.(type) {
	case *atom:
		return el.atomTerm(n, sc)
	case *list:
		return el.listTerm(n, sc)
	default:
		line, col := se.pos()
		return nil, errAt(line, col, "expected a term")
	}
}

func (el *elaborator) atomTerm(a *atom, sc *scope) (ast.Term, error) {
	switch a.tok.kind {
	case tokNumeral:
		v, ok := new(big.Int).SetString(a.tok.text, 10)
		if !ok {
			return nil, errAt(a.tok.line, a.tok.col, "malformed numeral %q", a.tok.text)
		}
		return el.tb.IntBig(v), nil
	case tokDecimal:
		v, ok := new(big.Rat).SetString(a.tok.text)
		if !ok {
			return nil, errAt(a.tok.line, a.tok.col, "malformed decimal %q", a.tok.text)
		}
		return el.tb.RealBig(v), nil
	case tokString:
		return el.tb.Str(a.tok.text), nil
	case tokSymbol:
		name := a.tok.text
		switch name {
		case "true":
			return ast.True, nil
		case "false":
			return ast.False, nil
		}
		if t, ok := sc.lookup(name); ok {
			return t, nil
		}
		if s, ok := el.vars[name]; ok {
			return el.tb.Var(name, s), nil
		}
		if def, ok := el.defs[name]; ok && len(def.Params) == 0 {
			return def.Body, nil
		}
		// Zero-ary builtin constants (re.allchar, re.none, re.all).
		if op, ok := ast.OpByName(name, 0); ok {
			return el.tb.NewApp(op)
		}
		return nil, errAt(a.tok.line, a.tok.col, "unknown symbol %q", name)
	default:
		return nil, errAt(a.tok.line, a.tok.col, "unexpected token %v in term", a.tok)
	}
}

func (el *elaborator) listTerm(l *list, sc *scope) (ast.Term, error) {
	if len(l.items) == 0 {
		return nil, errAt(l.line, l.col, "empty application")
	}
	head, ok := l.items[0].(*atom)
	if !ok || head.tok.kind != tokSymbol {
		line, col := l.items[0].pos()
		return nil, errAt(line, col, "expected an operator symbol")
	}
	switch head.tok.text {
	case "let":
		return el.letTerm(l, sc)
	case "forall", "exists":
		return el.quantTerm(l, sc, head.tok.text == "forall")
	}

	args := make([]ast.Term, 0, len(l.items)-1)
	for _, item := range l.items[1:] {
		t, err := el.term(item, sc)
		if err != nil {
			return nil, err
		}
		args = append(args, t)
	}

	// Defined function application: macro-expand.
	if def, ok := el.defs[head.tok.text]; ok {
		if len(args) != len(def.Params) {
			return nil, errAt(l.line, l.col, "%s: got %d arguments, want %d", def.Name, len(args), len(def.Params))
		}
		repl := map[string]ast.Term{}
		for i, p := range def.Params {
			if args[i].Sort() != p.Sort {
				return nil, errAt(l.line, l.col, "%s: argument %d has sort %v, want %v", def.Name, i, args[i].Sort(), p.Sort)
			}
			repl[p.Name] = args[i]
		}
		out, err := el.tb.Substitute(def.Body, repl)
		if err != nil {
			return nil, errAt(l.line, l.col, "%s: %v", def.Name, err)
		}
		return out, nil
	}

	op, ok := ast.OpByName(head.tok.text, len(args))
	if !ok {
		return nil, errAt(l.line, l.col, "unknown operator %q with %d arguments", head.tok.text, len(args))
	}
	args = el.coerceNumerals(op, args)
	t, err := el.tb.NewApp(op, args...)
	if err != nil {
		return nil, errAt(l.line, l.col, "%v", err)
	}
	return t, nil
}

// coerceNumerals promotes integer literals to real literals when the
// application mixes them with Real-sorted siblings — benchmarks routinely
// write (+ x 1) with x Real.
func (el *elaborator) coerceNumerals(op ast.Op, args []ast.Term) []ast.Term {
	switch op {
	case ast.OpAdd, ast.OpSub, ast.OpNeg, ast.OpMul, ast.OpRealDiv,
		ast.OpLe, ast.OpLt, ast.OpGe, ast.OpGt, ast.OpEq, ast.OpDistinct, ast.OpIte:
	default:
		return args
	}
	anyReal := false
	for _, a := range args {
		if a.Sort() == ast.SortReal {
			anyReal = true
			break
		}
	}
	if !anyReal && op != ast.OpRealDiv {
		return args
	}
	out := args
	changed := false
	for i, a := range args {
		if il, ok := a.(*ast.IntLit); ok {
			if !changed {
				out = make([]ast.Term, len(args))
				copy(out, args)
				changed = true
			}
			out[i] = el.tb.RealBig(new(big.Rat).SetInt(il.V))
		}
	}
	return out
}

func (el *elaborator) letTerm(l *list, sc *scope) (ast.Term, error) {
	if len(l.items) != 3 {
		return nil, errAt(l.line, l.col, "let: want (let ((x t)...) body)")
	}
	bindings, ok := l.items[1].(*list)
	if !ok {
		line, col := l.items[1].pos()
		return nil, errAt(line, col, "let: expected a binding list")
	}
	// Parallel let: all right-hand sides elaborate in the outer scope.
	inner := sc
	for _, b := range bindings.items {
		bl, ok := b.(*list)
		if !ok || len(bl.items) != 2 {
			line, col := b.pos()
			return nil, errAt(line, col, "let: malformed binding")
		}
		name, ok := bl.items[0].(*atom)
		if !ok || name.tok.kind != tokSymbol {
			line, col := bl.items[0].pos()
			return nil, errAt(line, col, "let: malformed binding name")
		}
		val, err := el.term(bl.items[1], sc)
		if err != nil {
			return nil, err
		}
		inner = &scope{name: name.tok.text, value: val, parent: inner}
	}
	return el.term(l.items[2], inner)
}

func (el *elaborator) quantTerm(l *list, sc *scope, forall bool) (ast.Term, error) {
	if len(l.items) != 3 {
		return nil, errAt(l.line, l.col, "quantifier: want (forall ((x S)...) body)")
	}
	binders, ok := l.items[1].(*list)
	if !ok || len(binders.items) == 0 {
		line, col := l.items[1].pos()
		return nil, errAt(line, col, "quantifier: expected a non-empty binder list")
	}
	var bound []ast.SortedVar
	inner := sc
	for _, b := range binders.items {
		bl, ok := b.(*list)
		if !ok || len(bl.items) != 2 {
			line, col := b.pos()
			return nil, errAt(line, col, "quantifier: malformed binder")
		}
		name, ok := bl.items[0].(*atom)
		if !ok || name.tok.kind != tokSymbol {
			line, col := bl.items[0].pos()
			return nil, errAt(line, col, "quantifier: malformed binder name")
		}
		sort, err := el.sortArg(bl.items[1])
		if err != nil {
			return nil, err
		}
		bound = append(bound, ast.SortedVar{Name: name.tok.text, Sort: sort})
		inner = &scope{name: name.tok.text, value: el.tb.Var(name.tok.text, sort), parent: inner}
	}
	body, err := el.term(l.items[2], inner)
	if err != nil {
		return nil, err
	}
	q, err := el.tb.NewQuant(forall, bound, body)
	if err != nil {
		line, col := l.items[2].pos()
		return nil, errAt(line, col, "%v", err)
	}
	return q, nil
}

// rawText renders an s-expression back to flat text (for set-info values).
func rawText(se sexpr) string {
	switch n := se.(type) {
	case *atom:
		if n.tok.kind == tokString {
			return `"` + n.tok.text + `"`
		}
		return n.tok.text
	case *list:
		out := "("
		for i, item := range n.items {
			if i > 0 {
				out += " "
			}
			out += rawText(item)
		}
		return out + ")"
	default:
		return ""
	}
}
