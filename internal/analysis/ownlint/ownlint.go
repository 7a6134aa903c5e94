// Package ownlint tracks the ownership of pooled messages statically.
// The pool contract (internal/message/pool.go) says: a message from
// message.Get is owned by the caller until it is handed to a cast
// downcall; from then on the stack owns it and releases it once the
// wire image has left — the compiled plan after its transmit, the
// reference path in Context.Transmit. No layer retains the original.
// Runtime panics catch violations the tests happen to execute; this
// analyzer catches them on every path the code has.
//
// Tracked per function, path-sensitively (hcpilint's branch-join
// discipline: clone at forks, intersect at joins):
//
//   - use after Release — any method call on, or argument use of, a
//     message that was released on every path reaching here, or on
//     some branch (reported with the branch position);
//   - double Release — including the branch-divergent shape where one
//     arm released and the fall-through releases again;
//   - release or use after the message was handed to a cast downcall
//     (Down/Cast/Transmit/Send) — the stack may already have released
//     it, on either send path;
//   - escape into retained storage: a pooled message stored into a
//     receiver field or package variable, sent on a channel, captured
//     by a goroutine, or passed to a same-package helper whose
//     effect summary says the parameter escapes (the interprocedural
//     case, reported with the call chain).
//
// Releasing on only some branches is legal by itself — "Release is an
// optimization, never an obligation" — so the
// divergence is flagged only when the message is used or released
// again afterwards. Aliases created by plain assignment, ev.Msg
// stores, and Event composite literals share one ownership cell.
// Deliberate exceptions carry "//horus:own-ok — <reason>" on the
// flagged line.
package ownlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"horus/internal/analysis"
	"horus/internal/analysis/annot"
	"horus/internal/analysis/summary"
)

// Analyzer is the ownlint pass.
var Analyzer = &analysis.Analyzer{
	Name: "ownlint",
	Doc: "track pooled message ownership: use-after-release, double " +
		"release, release after hand-off, and escapes into retained storage",
	Run: run,
}

// suppressTag is the line-level opt-out marker.
const suppressTag = "own-ok"

// scopePrefix limits the analyzer to the module's internal tree.
const scopePrefix = "horus/internal/"

// messagePkg is the pool's home package.
const messagePkg = "horus/internal/message"

// handoffNames are the method names that transfer a message (or the
// event carrying it) to the stack.
var handoffNames = map[string]bool{
	"Down": true, "Cast": true, "Transmit": true, "Send": true, "Up": true,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg == nil || !strings.HasPrefix(pass.Pkg.Path(), scopePrefix) {
		return nil
	}
	var eng *summary.Engine
	engine := func() *summary.Engine {
		if eng == nil {
			eng = summary.Build(pass, summary.Options{})
		}
		return eng
	}
	checkRetention(pass)
	for _, file := range pass.Files {
		if pass.IsTestFile(file.Pos()) {
			continue
		}
		w := &walker{pass: pass, file: file, engine: engine}
		ast.Inspect(file, func(n ast.Node) bool {
			if fn, ok := n.(*ast.FuncDecl); ok && fn.Body != nil {
				w.enterFunc(fn)
				w.walkStmts(fn.Body.List, newState())
				return false
			}
			return true
		})
	}
	return nil
}

// status is one ownership cell's abstract state.
type status int

const (
	owned status = iota
	released
	maybeReleased // released on some branch only
	handed
	maybeHanded // handed on some branch only
	escaped     // already reported; silence follow-ups
)

// cell is the shared ownership record of one pooled message and all
// its aliases.
type cell struct {
	name  string    // the rendered expression of the Get assignment
	get   token.Pos // where message.Get ran
	event token.Pos // where the release / hand-off / branch happened
}

type cellState struct {
	c  *cell
	st status
}

// state maps rendered expressions ("m", "ev.Msg") to ownership cells.
// Aliases share a *cell and a *cellState.
type state struct {
	cells map[string]*cellState
}

func newState() *state { return &state{cells: map[string]*cellState{}} }

func (s *state) clone() *state {
	trans := map[*cellState]*cellState{}
	c := newState()
	for k, v := range s.cells {
		nv, ok := trans[v]
		if !ok {
			cp := *v
			nv = &cp
			trans[v] = nv
		}
		c.cells[k] = nv
	}
	return c
}

// intersect merges a branch join: keys missing in either side are
// dropped; status disagreement over "was it consumed" degrades to the
// maybe form carrying the consuming branch's position.
func (s *state) intersect(o *state) {
	for k, v := range s.cells {
		ov, ok := o.cells[k]
		if !ok {
			delete(s.cells, k)
			continue
		}
		v.st, v.c.event = mergeStatus(v.st, v.c.event, ov.st, ov.c.event)
	}
}

func mergeStatus(a status, apos token.Pos, b status, bpos token.Pos) (status, token.Pos) {
	if a == b {
		return a, apos
	}
	rank := func(st status) int {
		switch st {
		case escaped:
			return 3
		case released, maybeReleased:
			return 2
		case handed, maybeHanded:
			return 1
		default:
			return 0
		}
	}
	hi, hipos := a, apos
	if rank(b) > rank(a) {
		hi, hipos = b, bpos
	}
	switch hi {
	case escaped:
		return escaped, hipos
	case released, maybeReleased:
		return maybeReleased, hipos
	default:
		return maybeHanded, hipos
	}
}

type walker struct {
	pass   *analysis.Pass
	file   *ast.File
	engine func() *summary.Engine

	recv   map[types.Object]bool
	params map[types.Object]bool
}

// enterFunc records the receiver and parameter objects of the
// function whose body is being walked, for retained-storage checks.
func (w *walker) enterFunc(fn *ast.FuncDecl) {
	w.recv = map[types.Object]bool{}
	w.params = map[types.Object]bool{}
	if fn.Recv != nil {
		for _, f := range fn.Recv.List {
			for _, name := range f.Names {
				if obj := w.pass.TypesInfo.Defs[name]; obj != nil {
					w.recv[obj] = true
				}
			}
		}
	}
	if fn.Type.Params != nil {
		for _, f := range fn.Type.Params.List {
			for _, name := range f.Names {
				if obj := w.pass.TypesInfo.Defs[name]; obj != nil {
					w.params[obj] = true
				}
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Statement walk (hcpilint's control-flow discipline)

func (w *walker) walkStmts(stmts []ast.Stmt, st *state) bool {
	for _, stmt := range stmts {
		if w.walkStmt(stmt, st) {
			return true
		}
	}
	return false
}

func (w *walker) walkStmt(stmt ast.Stmt, st *state) bool {
	switch s := stmt.(type) {
	case *ast.ReturnStmt:
		for _, res := range s.Results {
			// Returning a tracked message transfers ownership to the
			// caller — legal, stop tracking. A released one is a use.
			if cs, ok := st.cells[render(res)]; ok {
				w.checkUse(st, res.Pos(), cs, "returned")
			}
		}
		w.scanExprs(st, s.Results...)
		return true
	case *ast.ExprStmt:
		w.scanExprs(st, s.X)
		if call, ok := s.X.(*ast.CallExpr); ok && isPanicCall(w.pass, call) {
			return true
		}
	case *ast.AssignStmt:
		w.scanExprs(st, s.Rhs...)
		for i, lhs := range s.Lhs {
			var rhs ast.Expr
			if len(s.Rhs) == len(s.Lhs) {
				rhs = s.Rhs[i]
			}
			w.handleAssign(st, lhs, rhs)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					w.scanExprs(st, vs.Values...)
					for i, name := range vs.Names {
						if i < len(vs.Values) {
							w.handleAssign(st, name, vs.Values[i])
						}
					}
				}
			}
		}
	case *ast.IncDecStmt:
		w.scanExprs(st, s.X)
	case *ast.SendStmt:
		w.scanExprs(st, s.Chan, s.Value)
		if cs, ok := st.cells[render(s.Value)]; ok && cs.st != escaped {
			w.report(s.Arrow, "pooled message %s sent on channel %s — the receiver may outlive the pool hand-back; pass a copy (FromParts) instead", cs.c.name, render(s.Chan))
			cs.st = escaped
		}
	case *ast.DeferStmt:
		// A deferred Release runs at return, on every path: treat it
		// as consuming the message for the rest of the body is wrong
		// (it runs last) — and a deferred release is the cleanest
		// pattern there is. Just check its target is tracked; no
		// state change.
		w.scanExprs(st, s.Call.Fun)
	case *ast.GoStmt:
		w.checkGoroutineEscape(st, s)
	case *ast.BlockStmt:
		return w.walkStmts(s.List, st)
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, st)
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		w.scanExprs(st, s.Cond)
		thenSt := st.clone()
		thenTerm := w.walkStmts(s.Body.List, thenSt)
		if s.Else == nil {
			if !thenTerm {
				st.intersect(thenSt)
			}
			return false
		}
		elseSt := st.clone()
		elseTerm := w.walkStmt(s.Else, elseSt)
		switch {
		case thenTerm && elseTerm:
			return true
		case thenTerm:
			*st = *elseSt
		case elseTerm:
			*st = *thenSt
		default:
			*st = *thenSt
			st.intersect(elseSt)
		}
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		w.walkBranches(stmt, st)
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		if s.Cond != nil {
			w.scanExprs(st, s.Cond)
		}
		bodySt := st.clone()
		w.walkStmts(s.Body.List, bodySt)
		if s.Post != nil {
			w.walkStmt(s.Post, bodySt)
		}
		st.intersect(bodySt)
	case *ast.RangeStmt:
		w.scanExprs(st, s.X)
		bodySt := st.clone()
		w.walkStmts(s.Body.List, bodySt)
		st.intersect(bodySt)
	}
	return false
}

func (w *walker) walkBranches(stmt ast.Stmt, st *state) {
	var clauses []ast.Stmt
	hasDefault := false
	switch s := stmt.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		if s.Tag != nil {
			w.scanExprs(st, s.Tag)
		}
		clauses = s.Body.List
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, st)
		}
		clauses = s.Body.List
	case *ast.SelectStmt:
		clauses = s.Body.List
	}
	var after []*state
	for _, clause := range clauses {
		var body []ast.Stmt
		switch c := clause.(type) {
		case *ast.CaseClause:
			w.scanExprs(st, c.List...)
			if c.List == nil {
				hasDefault = true
			}
			body = c.Body
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			} else {
				w.walkStmt(c.Comm, st)
			}
			body = c.Body
		}
		cs := st.clone()
		if !w.walkStmts(body, cs) {
			after = append(after, cs)
		}
	}
	if !hasDefault {
		after = append(after, st.clone())
	}
	if len(after) == 0 {
		return
	}
	*st = *after[0]
	for _, o := range after[1:] {
		st.intersect(o)
	}
}

// scanExprs processes calls inside expressions in evaluation order and
// walks nested function literals as separate contexts.
func (w *walker) scanExprs(st *state, exprs ...ast.Expr) {
	for _, expr := range exprs {
		if expr == nil {
			continue
		}
		ast.Inspect(expr, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				w.walkStmts(n.Body.List, newState())
				return false
			case *ast.CallExpr:
				for _, arg := range n.Args {
					w.scanExprs(st, arg)
				}
				w.scanExprs(st, n.Fun)
				w.handleCall(st, n)
				return false
			}
			return true
		})
	}
}

// ---------------------------------------------------------------------------
// Transfer functions

// handleAssign tracks Get results, aliases, strong updates, and
// retained-storage escapes.
func (w *walker) handleAssign(st *state, lhs, rhs ast.Expr) {
	lhsKey := render(lhs)
	if lhsKey == "_" {
		return
	}

	// m := message.Get(body)
	if rhs != nil && w.isGetCall(rhs) {
		cs := &cellState{c: &cell{name: lhsKey, get: rhs.Pos()}, st: owned}
		st.cells[lhsKey] = cs
		return
	}

	// Alias: lhs gets a tracked value (m2 := m, ev.Msg = m).
	if rhs != nil {
		if cs, ok := st.cells[render(rhs)]; ok {
			w.checkRetainedStore(st, lhs, cs)
			st.cells[lhsKey] = cs
			return
		}
		// ev := &core.Event{Msg: m} — alias through the literal; a
		// literal field may also hold the Get call itself.
		if comp := compositeOf(rhs); comp != nil {
			for _, el := range comp.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok {
					continue
				}
				fieldKey := lhsKey + "." + key.Name
				if cs, ok := st.cells[render(kv.Value)]; ok {
					st.cells[fieldKey] = cs
				} else if w.isGetCall(kv.Value) {
					st.cells[fieldKey] = &cellState{c: &cell{name: fieldKey, get: kv.Value.Pos()}, st: owned}
				}
			}
		}
	}

	// Strong update: lhs now holds something else.
	delete(st.cells, lhsKey)
}

// checkRetainedStore reports a pooled message stored where it outlives
// the call: a receiver field or package-level variable.
func (w *walker) checkRetainedStore(st *state, lhs ast.Expr, cs *cellState) {
	if cs.st == escaped {
		return
	}
	base := baseIdent(lhs)
	if base == nil {
		return
	}
	obj := w.pass.TypesInfo.Uses[base]
	if obj == nil {
		return
	}
	switch {
	case w.recv[obj]:
		w.report(lhs.Pos(), "pooled message %s stored into receiver field %s — compiled layers must never retain the original; keep an independent copy (FromParts) instead", cs.c.name, render(lhs))
		cs.st = escaped
	case obj.Parent() == w.pass.Pkg.Scope():
		w.report(lhs.Pos(), "pooled message %s stored into package variable %s — it outlives the pool hand-back; keep an independent copy (FromParts) instead", cs.c.name, render(lhs))
		cs.st = escaped
	}
}

// handleCall classifies Release, message-method uses, hand-offs, and
// helper calls over tracked arguments.
func (w *walker) handleCall(st *state, call *ast.CallExpr) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)

	// Method calls on a tracked expression.
	if isSel {
		recvKey := render(sel.X)
		if cs, ok := st.cells[recvKey]; ok && isMessageType(w.pass.TypesInfo.TypeOf(sel.X)) {
			switch sel.Sel.Name {
			case "Release":
				w.handleRelease(st, call.Pos(), cs)
			case "Pooled":
				// Legal in every state: it answers exactly this question.
			default:
				w.checkUse(st, call.Pos(), cs, "method "+sel.Sel.Name+" called")
			}
			return
		}
		// Hand-off: stack.Down(ev) / ctx.Cast(ev) — the event (or the
		// message itself) moves to the stack.
		if handoffNames[sel.Sel.Name] {
			for _, arg := range call.Args {
				argKey := render(arg)
				for _, k := range []string{argKey, argKey + ".Msg"} {
					if cs, ok := st.cells[k]; ok {
						w.checkUse(st, call.Pos(), cs, "handed to "+sel.Sel.Name)
						if cs.st == owned {
							cs.st = handed
							cs.c.event = call.Pos()
						}
					}
				}
			}
			return
		}
	}

	// Helper calls with tracked arguments: use check plus the
	// interprocedural escape check via the summary engine.
	callee := w.pass.Callee(call)
	for i, arg := range call.Args {
		cs, ok := st.cells[render(arg)]
		if !ok {
			continue
		}
		w.checkUse(st, call.Pos(), cs, "passed to "+render(call.Fun))
		if callee == nil || callee.Pkg() != w.pass.Pkg || cs.st == escaped {
			continue
		}
		node := w.engine().FuncNode(callee)
		if node == nil {
			continue
		}
		for _, f := range node.Facts() {
			if f.Kind != summary.EscapeArg || f.Param != i {
				continue
			}
			msg := fmt.Sprintf("pooled message %s is retained by %s (%s at %s)",
				cs.c.name, node.Name, f.Detail, w.shortPos(f.Pos))
			if chain := w.engine().FormatChain(f); chain != "" {
				msg += " via " + chain
			}
			msg += " — compiled layers must never retain the original"
			w.reportChained(call.Pos(), msg, w.engine().ChainStrings(f))
			cs.st = escaped
			break
		}
	}
}

// handleRelease applies the Release transition to one cell.
func (w *walker) handleRelease(st *state, pos token.Pos, cs *cellState) {
	switch cs.st {
	case owned:
		cs.st = released
		cs.c.event = pos
	case released:
		w.report(pos, "double release of pooled message %s (already released at %s) — the second Put would hand one buffer to two casts", cs.c.name, w.shortPos(cs.c.event))
	case maybeReleased:
		w.report(pos, "double release of pooled message %s when the branch at %s is taken (released there, released again here)", cs.c.name, w.shortPos(cs.c.event))
		cs.st = released
		cs.c.event = pos
	case handed:
		w.report(pos, "release of pooled message %s after it was handed to the stack at %s — the stack releases it once transmitted, on either send path; this double-puts", cs.c.name, w.shortPos(cs.c.event))
	case maybeHanded:
		w.report(pos, "release of pooled message %s after it may have been handed to the stack at %s — the stack releases it once transmitted, on either send path; this double-puts", cs.c.name, w.shortPos(cs.c.event))
	}
}

// checkUse reports uses of consumed messages.
func (w *walker) checkUse(st *state, pos token.Pos, cs *cellState, how string) {
	switch cs.st {
	case released:
		w.report(pos, "use of pooled message %s after release (%s; released at %s)", cs.c.name, how, w.shortPos(cs.c.event))
	case maybeReleased:
		w.report(pos, "use of pooled message %s after release when the branch at %s is taken (%s)", cs.c.name, w.shortPos(cs.c.event), how)
	case handed:
		w.report(pos, "use of pooled message %s after hand-off to the stack at %s (%s) — the stack may already have released it", cs.c.name, w.shortPos(cs.c.event), how)
	case maybeHanded:
		w.report(pos, "use of pooled message %s after possible hand-off at %s (%s) — the stack may already have released it", cs.c.name, w.shortPos(cs.c.event), how)
	}
}

// checkGoroutineEscape flags tracked messages referenced by a go
// statement's call or closure body.
func (w *walker) checkGoroutineEscape(st *state, g *ast.GoStmt) {
	reported := map[*cellState]bool{}
	ast.Inspect(g.Call, func(n ast.Node) bool {
		expr, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if cs, found := st.cells[render(expr)]; found && !reported[cs] && cs.st != escaped {
			w.report(expr.Pos(), "pooled message %s escapes into a goroutine — it may outlive the pool hand-back; pass a copy (FromParts) instead", cs.c.name)
			reported[cs] = true
			cs.st = escaped
		}
		return true
	})
	// The goroutine body still gets its own walk for internal misuse.
	if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
		w.walkStmts(lit.Body.List, newState())
	}
}

// ---------------------------------------------------------------------------
// Reporting and small helpers

func (w *walker) report(pos token.Pos, format string, args ...interface{}) {
	if annot.LineMarker(w.pass.Fset, w.file, pos, suppressTag) {
		return
	}
	w.pass.Reportf(pos, format, args...)
}

func (w *walker) reportChained(pos token.Pos, msg string, chain []string) {
	if annot.LineMarker(w.pass.Fset, w.file, pos, suppressTag) {
		return
	}
	w.pass.Report(analysis.Diagnostic{
		Pos: pos, Message: msg, Analyzer: w.pass.Analyzer.Name, Chain: chain,
	})
}

func (w *walker) shortPos(pos token.Pos) string { return shortPos(w.pass.Fset, pos) }

// shortPos renders pos as base-filename:line.
func shortPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	name := p.Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return fmt.Sprintf("%s:%d", name, p.Line)
}

// isGetCall matches message.Get(...).
func (w *walker) isGetCall(expr ast.Expr) bool {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := w.pass.Callee(call)
	return fn != nil && fn.Name() == "Get" && fn.Pkg() != nil && fn.Pkg().Path() == messagePkg
}

// isMessageType matches *message.Message (possibly behind a pointer).
func isMessageType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Message" && obj.Pkg() != nil && obj.Pkg().Path() == messagePkg
}

// compositeOf unwraps &T{...} and T{...} to the literal.
func compositeOf(expr ast.Expr) *ast.CompositeLit {
	expr = ast.Unparen(expr)
	if u, ok := expr.(*ast.UnaryExpr); ok && u.Op == token.AND {
		expr = u.X
	}
	comp, _ := expr.(*ast.CompositeLit)
	return comp
}

// baseIdent returns the leftmost identifier of a selector/index path.
func baseIdent(expr ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(expr).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			expr = x.X
		case *ast.IndexExpr:
			expr = x.X
		case *ast.StarExpr:
			expr = x.X
		default:
			return nil
		}
	}
}

func isPanicCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}

func render(expr ast.Expr) string { return types.ExprString(expr) }
