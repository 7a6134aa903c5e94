// Up-side retention: the receive path's half of the ownership
// contract. Endpoint.Deliver draws each packet's event, message and
// slab from a pool and recycles them once the stack's Up returns,
// unless the packet was kept. A layer that stores the event — or
// anything reaching into its bytes — past its Up must therefore call
// Ctx.Keep(ev) first (core.Context.Keep).
//
// Checked inside every Layer.Up method and, through per-parameter
// facts, the same-package helpers it calls. Aliases of the packet are
// the ev parameter, ev.Msg, *ev, sub-slices of ev.Msg.Body() and of
// the header slices Pop/PopBytes/PopAligned/Header return, locals
// assigned from those, and composite literals, appends and closures
// holding them. A store of an alias into a field, map, slice, package
// variable or channel, or into a closure handed to another function or
// goroutine, needs a Keep on every path reaching it. Copies
// (append([]byte(nil), b...), string(b), Clone) are not aliases, and
// passing the event on (Ctx.Up, Ctx.Down) is a hand-off, not a store.

package ownlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"horus/internal/analysis"
	"horus/internal/analysis/annot"
)

const corePkg = "horus/internal/core"

// aliasMethods are the Message methods whose result slices alias the
// packet's slab.
var aliasMethods = map[string]bool{
	"Body": true, "Pop": true, "PopBytes": true, "PopAligned": true, "Header": true,
}

// retainFact says parameter param of a function may be stored on some
// path without a Keep before it: by the store at pos, described by
// detail, reached through chain (hops below the function, outermost
// first; empty for a store in the function itself).
type retainFact struct {
	param  int
	pos    token.Pos
	detail string
	chain  []string
}

// retainChecker holds the per-package helper facts.
type retainChecker struct {
	pass  *analysis.Pass
	decls map[*types.Func]*ast.FuncDecl
	facts map[*types.Func][]retainFact
}

// checkRetention runs the Up-side retention rule over one package.
func checkRetention(pass *analysis.Pass) {
	rc := &retainChecker{
		pass:  pass,
		decls: map[*types.Func]*ast.FuncDecl{},
		facts: map[*types.Func][]retainFact{},
	}
	files := map[*ast.FuncDecl]*ast.File{}
	for _, file := range pass.Files {
		if pass.IsTestFile(file.Pos()) {
			continue
		}
		for _, d := range file.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func); ok {
				rc.decls[obj] = fn
				files[fn] = file
			}
		}
	}
	// Bottom-up to a fixpoint: a helper's facts feed its callers'.
	for round := 0; round < 10; round++ {
		changed := false
		for obj, fn := range rc.decls {
			facts := rc.walkFunc(fn, nil)
			if len(facts) != len(rc.facts[obj]) {
				rc.facts[obj] = facts
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for _, fn := range rc.decls {
		if isLayerUp(pass, fn) {
			file := files[fn]
			rc.walkFunc(fn, func(pos token.Pos, msg string, chain []string) {
				if annot.LineMarker(pass.Fset, file, pos, suppressTag) {
					return
				}
				pass.Report(analysis.Diagnostic{Pos: pos, Message: msg, Analyzer: pass.Analyzer.Name, Chain: chain})
			})
		}
	}
}

// isLayerUp matches a method Up(ev *core.Event).
func isLayerUp(pass *analysis.Pass, fn *ast.FuncDecl) bool {
	if fn.Recv == nil || fn.Name.Name != "Up" || fn.Type.Params == nil {
		return false
	}
	ps := fn.Type.Params.List
	return len(ps) == 1 && len(ps[0].Names) == 1 && isCoreEvent(pass.TypesInfo.TypeOf(ps[0].Type), true)
}

// isCoreEvent matches *core.Event (ptr) or core.Event.
func isCoreEvent(t types.Type, ptr bool) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		if !ptr {
			return false
		}
		t = p.Elem()
	} else if ptr {
		return false
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Event" && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == corePkg
}

// isTracked reports whether a parameter of type t can carry the packet:
// the event (by pointer or value), its message, or its bytes.
func isTracked(t types.Type) bool {
	if isCoreEvent(t, true) || isCoreEvent(t, false) || isMessageType(t) {
		return true
	}
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// rstate is the path state of one walk: which locals alias which
// tracked parameter, and whether Keep has run on every path so far.
type rstate struct {
	alias map[types.Object]int
	kept  bool
}

func (s *rstate) clone() *rstate {
	c := &rstate{alias: make(map[types.Object]int, len(s.alias)), kept: s.kept}
	for k, v := range s.alias {
		c.alias[k] = v
	}
	return c
}

// join merges a branch state: an alias on either side stays an alias,
// and the packet is kept only if both sides kept it.
func (s *rstate) join(o *rstate) {
	for k, v := range o.alias {
		if _, ok := s.alias[k]; !ok {
			s.alias[k] = v
		}
	}
	s.kept = s.kept && o.kept
}

// rwalk walks one function body.
type rwalk struct {
	rc     *retainChecker
	fn     *ast.FuncDecl
	params map[types.Object]int
	names  []string
	recv   types.Object
	facts  map[token.Pos]retainFact
	report func(pos token.Pos, msg string, chain []string)
}

// walkFunc computes fn's retain facts; with report set it also reports
// each unkept store as a finding.
func (rc *retainChecker) walkFunc(fn *ast.FuncDecl, report func(token.Pos, string, []string)) []retainFact {
	w := &rwalk{rc: rc, fn: fn, params: map[types.Object]int{}, facts: map[token.Pos]retainFact{}, report: report}
	if fn.Recv != nil {
		for _, f := range fn.Recv.List {
			for _, n := range f.Names {
				w.recv = rc.pass.TypesInfo.Defs[n]
			}
		}
	}
	st := &rstate{alias: map[types.Object]int{}}
	i := 0
	if fn.Type.Params != nil {
		for _, f := range fn.Type.Params.List {
			names := f.Names
			if len(names) == 0 {
				i++
				w.names = append(w.names, "_")
				continue
			}
			for _, n := range names {
				obj := rc.pass.TypesInfo.Defs[n]
				w.names = append(w.names, n.Name)
				if obj != nil && isTracked(obj.Type()) {
					w.params[obj] = i
					st.alias[obj] = i
				}
				i++
			}
		}
	}
	if len(w.params) == 0 {
		return nil
	}
	w.stmts(fn.Body.List, st)
	out := make([]retainFact, 0, len(w.facts))
	for _, f := range w.facts {
		out = append(out, f)
	}
	return out
}

// store records an unkept store of an alias of param p at pos.
func (w *rwalk) store(st *rstate, p int, pos token.Pos, what, where string) {
	if st.kept {
		return
	}
	detail := fmt.Sprintf("%s %s", what, where)
	if _, dup := w.facts[pos]; !dup {
		w.facts[pos] = retainFact{param: p, pos: pos, detail: detail}
	}
	if w.report != nil {
		w.report(pos, fmt.Sprintf("%s: retains the inbound packet of %s without Ctx.Keep(%s) on every path — the packet is recycled when Up returns; call Keep first or store a copy",
			detail, w.names[p], w.names[p]), nil)
	}
}

// stmts walks a statement list; it reports whether the list always
// terminates (return or panic), so dead branches do not join.
func (w *rwalk) stmts(list []ast.Stmt, st *rstate) bool {
	for _, s := range list {
		if w.stmt(s, st) {
			return true
		}
	}
	return false
}

func (w *rwalk) stmt(stmt ast.Stmt, st *rstate) bool {
	switch s := stmt.(type) {
	case *ast.ReturnStmt:
		w.exprs(st, s.Results...)
		return true
	case *ast.ExprStmt:
		w.exprs(st, s.X)
		if call, ok := s.X.(*ast.CallExpr); ok && isPanicCall(w.rc.pass, call) {
			return true
		}
	case *ast.AssignStmt:
		w.exprs(st, s.Rhs...)
		for i, lhs := range s.Lhs {
			var rhs ast.Expr
			if len(s.Rhs) == len(s.Lhs) {
				rhs = s.Rhs[i]
			}
			w.assign(st, lhs, rhs)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					w.exprs(st, vs.Values...)
					for i, name := range vs.Names {
						if i < len(vs.Values) {
							w.assign(st, name, vs.Values[i])
						}
					}
				}
			}
		}
	case *ast.IncDecStmt:
		w.exprs(st, s.X)
	case *ast.SendStmt:
		w.exprs(st, s.Chan, s.Value)
		if p, ok := w.aliasOf(st, s.Value); ok {
			w.store(st, p, s.Arrow, render(s.Value), "sent on channel "+render(s.Chan))
		}
	case *ast.GoStmt:
		w.exprs(st, s.Call.Args...)
		if p, ok := w.aliasOf(st, s.Call.Fun); ok {
			w.store(st, p, s.Pos(), "a goroutine", "captures it")
		}
		for _, a := range s.Call.Args {
			if p, ok := w.aliasOf(st, a); ok {
				w.store(st, p, a.Pos(), render(a), "passed to a goroutine")
			}
		}
	case *ast.DeferStmt:
		w.exprs(st, s.Call)
	case *ast.BlockStmt:
		return w.stmts(s.List, st)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, st)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, st)
		}
		w.exprs(st, s.Cond)
		thenSt := st.clone()
		thenTerm := w.stmts(s.Body.List, thenSt)
		elseSt := st.clone()
		elseTerm := false
		if s.Else != nil {
			elseTerm = w.stmt(s.Else, elseSt)
		}
		switch {
		case thenTerm && elseTerm:
			return true
		case thenTerm:
			*st = *elseSt
		case elseTerm:
			*st = *thenSt
		default:
			*st = *thenSt
			st.join(elseSt)
		}
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return w.branches(s, st)
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, st)
		}
		w.exprs(st, s.Cond)
		w.loop(st, s.Body, s.Post)
	case *ast.RangeStmt:
		w.exprs(st, s.X)
		if p, ok := w.aliasOf(st, s.X); ok {
			for _, v := range []ast.Expr{s.Key, s.Value} {
				if id, isID := v.(*ast.Ident); isID && w.holdsRefs(v) {
					if obj := w.rc.pass.TypesInfo.ObjectOf(id); obj != nil {
						st.alias[obj] = p
					}
				}
			}
		}
		w.loop(st, s.Body, nil)
	}
	return false
}

// loop walks a loop body twice (aliases built late in one iteration
// reach the stores early in the next); the body may run zero times,
// so Keep inside it does not count afterwards.
func (w *rwalk) loop(st *rstate, body *ast.BlockStmt, post ast.Stmt) {
	in := st.clone()
	for i := 0; i < 2; i++ {
		w.stmts(body.List, in)
		if post != nil {
			w.stmt(post, in)
		}
	}
	kept := st.kept
	st.join(in)
	st.kept = kept
}

func (w *rwalk) branches(stmt ast.Stmt, st *rstate) bool {
	var clauses []ast.Stmt
	hasDefault := false
	switch s := stmt.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, st)
		}
		w.exprs(st, s.Tag)
		clauses = s.Body.List
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, st)
		}
		clauses = s.Body.List
	case *ast.SelectStmt:
		clauses = s.Body.List
	}
	var after []*rstate
	for _, clause := range clauses {
		cs := st.clone()
		var body []ast.Stmt
		switch c := clause.(type) {
		case *ast.CaseClause:
			w.exprs(cs, c.List...)
			hasDefault = hasDefault || c.List == nil
			body = c.Body
		case *ast.CommClause:
			if c.Comm == nil {
				hasDefault = true
			} else {
				w.stmt(c.Comm, cs)
			}
			body = c.Body
		}
		if !w.stmts(body, cs) {
			after = append(after, cs)
		}
	}
	if !hasDefault {
		after = append(after, st.clone())
	}
	if len(after) == 0 {
		return true
	}
	*st = *after[0]
	for _, o := range after[1:] {
		st.join(o)
	}
	return false
}

// assign applies one assignment: a local picks up or loses an alias; a
// store through anything else retains it.
func (w *rwalk) assign(st *rstate, lhs, rhs ast.Expr) {
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name == "_" {
		return
	}
	p, isAlias := -1, false
	if rhs != nil {
		p, isAlias = w.aliasOf(st, rhs)
	}
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
		obj := w.rc.pass.TypesInfo.ObjectOf(id)
		if obj == nil {
			return
		}
		if w.isLocal(obj) {
			if isAlias {
				st.alias[obj] = p
			} else if _, param := w.params[obj]; !param {
				delete(st.alias, obj)
			}
			return
		}
		if isAlias {
			w.store(st, p, lhs.Pos(), render(rhs), "stored into "+render(lhs))
		}
		return
	}
	if !isAlias {
		return
	}
	base := baseIdent(lhs)
	if base != nil {
		obj := w.rc.pass.TypesInfo.ObjectOf(base)
		if _, ok := st.alias[obj]; ok {
			return // writing into the packet (or a holder) itself
		}
		if obj != nil && w.isLocal(obj) && isValueAggregate(obj.Type()) {
			st.alias[obj] = p // a local struct or array now holds it
			return
		}
	}
	w.store(st, p, lhs.Pos(), render(rhs), "stored into "+render(lhs))
}

// isLocal reports whether obj is a variable declared inside the walked
// function (parameters included).
func (w *rwalk) isLocal(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || obj == w.recv || v.IsField() {
		return false
	}
	return w.fn.Pos() <= obj.Pos() && obj.Pos() <= w.fn.End()
}

// isValueAggregate matches struct and array values, which live in the
// variable itself.
func isValueAggregate(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Struct, *types.Array:
		return true
	}
	return false
}

// holdsRefs reports whether a value of expr's type can reference
// memory: byte and other basic values are copies.
func (w *rwalk) holdsRefs(expr ast.Expr) bool {
	t := w.rc.pass.TypesInfo.TypeOf(expr)
	if t == nil {
		return true
	}
	_, basic := t.Underlying().(*types.Basic)
	return !basic
}

// aliasOf reports whether expr may reference the packet of a tracked
// parameter, and which.
func (w *rwalk) aliasOf(st *rstate, expr ast.Expr) (int, bool) {
	if expr == nil || !w.holdsRefs(expr) {
		return -1, false
	}
	switch x := ast.Unparen(expr).(type) {
	case *ast.Ident:
		obj := w.rc.pass.TypesInfo.ObjectOf(x)
		p, ok := st.alias[obj]
		return p, ok
	case *ast.SelectorExpr:
		if sel, ok := w.rc.pass.TypesInfo.Selections[x]; !ok || sel.Kind() != types.FieldVal {
			return -1, false
		}
		p, ok := w.aliasOf(st, x.X)
		if !ok {
			return -1, false
		}
		// Of the event's own fields only the message reaches the
		// packet; a holder's fields all may.
		if isCoreEvent(w.rc.pass.TypesInfo.TypeOf(x.X), true) || isCoreEvent(w.rc.pass.TypesInfo.TypeOf(x.X), false) {
			return p, x.Sel.Name == "Msg"
		}
		return p, true
	case *ast.StarExpr:
		return w.aliasOf(st, x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return w.aliasOf(st, x.X)
		}
	case *ast.SliceExpr:
		return w.aliasOf(st, x.X)
	case *ast.IndexExpr:
		return w.aliasOf(st, x.X)
	case *ast.TypeAssertExpr:
		return w.aliasOf(st, x.X)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if p, ok := w.aliasOf(st, el); ok {
				return p, true
			}
		}
	case *ast.FuncLit:
		// A closure holds whatever it captures.
		p, found := -1, false
		ast.Inspect(x.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !found {
				if q, ok := st.alias[w.rc.pass.TypesInfo.ObjectOf(id)]; ok {
					p, found = q, true
				}
			}
			return !found
		})
		return p, found
	case *ast.CallExpr:
		return w.callAlias(st, x)
	}
	return -1, false
}

// callAlias classifies a call result: slices a message hands out of
// its slab, appends holding an alias, and reference-keeping
// conversions.
func (w *rwalk) callAlias(st *rstate, call *ast.CallExpr) (int, bool) {
	info := w.rc.pass.TypesInfo
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return w.aliasOf(st, call.Args[0]) // string(b) is filtered by holdsRefs
		}
		return -1, false
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			if b.Name() != "append" || len(call.Args) == 0 {
				return -1, false
			}
			if p, ok := w.aliasOf(st, call.Args[0]); ok {
				return p, true
			}
			for i, a := range call.Args[1:] {
				if call.Ellipsis.IsValid() && i == len(call.Args)-2 && spreadsValues(info.TypeOf(a)) {
					continue // appending the bytes copies them
				}
				if p, ok := w.aliasOf(st, a); ok {
					return p, true
				}
			}
			return -1, false
		}
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && aliasMethods[sel.Sel.Name] &&
		isMessageType(info.TypeOf(sel.X)) {
		return w.aliasOf(st, sel.X)
	}
	return -1, false
}

// spreadsValues reports whether t is a slice (or string) of plain
// values, so that spreading it into append copies the data.
func spreadsValues(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return true
	case *types.Slice:
		_, basic := u.Elem().Underlying().(*types.Basic)
		return basic
	}
	return false
}

// exprs scans expressions for calls (Keep, helper hand-offs, closures
// passed away) and for closure bodies that store.
func (w *rwalk) exprs(st *rstate, exprs ...ast.Expr) {
	for _, expr := range exprs {
		if expr == nil {
			continue
		}
		ast.Inspect(expr, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				// The body runs later or now; either way its stores
				// see the packet as kept only if it is kept here.
				w.stmts(n.Body.List, st.clone())
				return false
			case *ast.CallExpr:
				for _, a := range n.Args {
					w.exprs(st, a)
				}
				w.exprs(st, n.Fun)
				w.call(st, n)
				return false
			}
			return true
		})
	}
}

// call applies one call: Keep marks the packet kept; a same-package
// helper retaining a parameter lifts its fact; a closure holding an
// alias handed to any other function is a store.
func (w *rwalk) call(st *rstate, call *ast.CallExpr) {
	fn := w.rc.pass.Callee(call)
	if fn != nil && fn.Name() == "Keep" && fn.Pkg() != nil && fn.Pkg().Path() == corePkg {
		st.kept = true
		return
	}
	if fn != nil && fn.Pkg() == w.rc.pass.Pkg {
		if facts, ok := w.rc.facts[fn]; ok {
			w.lift(st, call, fn, facts)
			return
		}
	}
	for _, a := range call.Args {
		if _, isLit := ast.Unparen(a).(*ast.FuncLit); !isLit && !w.isClosureVar(a) {
			continue
		}
		if p, ok := w.aliasOf(st, a); ok {
			w.store(st, p, a.Pos(), "a closure", "passed to "+render(call.Fun))
		}
	}
}

// isClosureVar reports whether expr is a func-typed local.
func (w *rwalk) isClosureVar(expr ast.Expr) bool {
	id, ok := ast.Unparen(expr).(*ast.Ident)
	if !ok {
		return false
	}
	obj := w.rc.pass.TypesInfo.ObjectOf(id)
	if obj == nil || !w.isLocal(obj) {
		return false
	}
	_, sig := obj.Type().Underlying().(*types.Signature)
	return sig
}

// lift maps a helper's retain facts through one call site.
func (w *rwalk) lift(st *rstate, call *ast.CallExpr, fn *types.Func, facts []retainFact) {
	if st.kept {
		return
	}
	name := funcName(fn)
	for _, f := range facts {
		if f.param >= len(call.Args) {
			continue
		}
		p, ok := w.aliasOf(st, call.Args[f.param])
		if !ok {
			continue
		}
		if _, dup := w.facts[call.Pos()]; !dup {
			chain := append([]string{fmt.Sprintf("%s (%s)", name, w.shortPos(call.Pos()))}, f.chain...)
			w.facts[call.Pos()] = retainFact{param: p, pos: f.pos, detail: f.detail, chain: chain}
		}
		if w.report != nil {
			msg := fmt.Sprintf("inbound packet of %s is retained by %s (%s at %s)", w.names[p], name, f.detail, w.shortPos(f.pos))
			if len(f.chain) > 0 {
				msg += " via " + strings.Join(f.chain, " → ")
			}
			msg += fmt.Sprintf(" without Ctx.Keep(%s) on every path — the packet is recycled when Up returns", w.names[p])
			w.report(call.Pos(), msg, f.chain)
		}
		return
	}
}

func (w *rwalk) shortPos(pos token.Pos) string { return shortPos(w.rc.pass.Fset, pos) }

// funcName renders "(*Nak).receiveData" or "helper".
func funcName(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return fn.Name()
	}
	return fmt.Sprintf("(%s).%s", types.TypeString(sig.Recv().Type(), func(*types.Package) string { return "" }), fn.Name())
}
