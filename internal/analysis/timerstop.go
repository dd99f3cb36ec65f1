package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
)

// TimerStop enforces Stop discipline on time.NewTicker, time.NewTimer and
// time.AfterFunc. An unstopped ticker pins a runtime timer and wakes a
// goroutine forever; an unstopped timer pins its heap timer until it fires.
// In a resident mining service that admits thousands of queries, a
// per-query ticker leaked on one early-return path is a slow memory and
// wakeup leak that no test notices.
//
// The analyzer runs a branch-merging abstract interpretation on the shared
// flow walker (flow.go) over every declared body (and every function
// literal, each with its own scope): each tracked timer carries two bits,
// stopped and escaped. Where arms join, stopped is AND-ed (a timer is only
// stopped if every arm stopped it) and escaped is OR-ed. `defer t.Stop()`
// sets stopped for every later exit; receiving from a timer's (not
// ticker's) C counts as stopped on that arm, because a fired timer needs no
// Stop. At each return statement and at the body's end, every live timer
// that is neither stopped nor escaped is reported at its creation site.
//
// Escapes transfer responsibility rather than silencing the program-wide
// check: a timer returned to the caller is tracked again at the call site
// (functions returning *time.Ticker / *time.Timer that transitively create
// one are "timer sources"), and a timer stored into a struct field is only
// accepted when some code in the program stops that field. A creation whose
// result is discarded outright can never be stopped and is reported
// immediately.
var TimerStop = &Analyzer{
	Name: "timerstop",
	Tier: 4,
	Doc: "every time.NewTicker/NewTimer/AfterFunc result must be stopped on " +
		"every exit path (defer-aware, following values through returns and " +
		"struct fields)",
	Run: runTimerStop,
}

func runTimerStop(pass *Pass) {
	if pass.Prog != nil {
		reportProg(pass, pass.Prog.timerStop().findings)
	}
}

// timerStopInfo is the whole-program Stop-discipline result.
type timerStopInfo struct {
	findings []progFinding
}

// timerVal is the abstract state of one tracked timer value.
type timerVal struct {
	pos     token.Pos // creation site, where findings anchor
	name    string    // variable name, for the message
	kind    string    // "ticker" or "timer"
	call    string    // creating call, e.g. "time.NewTicker"
	stopped bool
	escaped bool
}

// timerState maps local timer objects to their abstract state.
type timerState map[types.Object]timerVal

// timerStop builds (once) and returns the program's timer-leak findings.
func (p *Program) timerStop() *timerStopInfo {
	if p.timerInfo != nil {
		return p.timerInfo
	}
	info := &timerStopInfo{}
	seen := map[token.Pos]bool{}
	report := func(pos token.Pos, pkg *types.Package, msg string) {
		if seen[pos] {
			return
		}
		seen[pos] = true
		info.findings = append(info.findings, progFinding{pos: pos, pkg: pkg, msg: msg})
	}
	s := &timerWalk{sources: p.timerSources(), fieldStops: p.timerFieldStops(), report: report}
	s.f.hooks = s
	for _, fn := range p.DeclList {
		if fd := p.Decls[fn]; fd.Body != nil {
			s.fn, s.info = fn, p.InfoOf[fn]
			s.f.walkFunc(s.info, fd.Body)
		}
	}
	p.timerInfo = info
	return info
}

// timerTypeKind maps *time.Ticker / *time.Timer to a kind string, else "".
func timerTypeKind(t types.Type) string {
	if p, n := namedType(t); p == "time" {
		switch n {
		case "Ticker":
			return "ticker"
		case "Timer":
			return "timer"
		}
	}
	return ""
}

// timerCreationCall recognizes the three time-package constructors.
func timerCreationCall(info *types.Info, call *ast.CallExpr) (kind, callName string, ok bool) {
	switch {
	case isPkgCall(info, call, "time", "NewTicker"):
		return "ticker", "time.NewTicker", true
	case isPkgCall(info, call, "time", "NewTimer"):
		return "timer", "time.NewTimer", true
	case isPkgCall(info, call, "time", "AfterFunc"):
		return "timer", "time.AfterFunc", true
	}
	return "", "", false
}

// timerSources computes, to a fixpoint, the declared functions that hand a
// timer they (transitively) created back to their caller: the declared
// result type includes *time.Ticker or *time.Timer, and the body reaches a
// constructor directly or through another source. Result-type alone is not
// enough — a getter returning a struct's ticker field hands out a borrowed
// value whose Stop belongs to the owner, not the caller.
func (p *Program) timerSources() map[*types.Func]bool {
	srcs := map[*types.Func]bool{}
	hasTimerResult := func(fn *types.Func) bool {
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			return false
		}
		for i := 0; i < sig.Results().Len(); i++ {
			if timerTypeKind(sig.Results().At(i).Type()) != "" {
				return true
			}
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range p.DeclList {
			if srcs[fn] || !hasTimerResult(fn) {
				continue
			}
			info := p.InfoOf[fn]
			creates := false
			ast.Inspect(p.Decls[fn], func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if _, _, isNew := timerCreationCall(info, call); isNew {
					creates = true
				} else if cf := calleeFunc(info, call); cf != nil && srcs[cf] {
					creates = true
				}
				return !creates
			})
			if creates {
				srcs[fn] = true
				changed = true
			}
		}
	}
	return srcs
}

// timerFieldStops computes the set of timer-typed struct fields that some
// code in the program could stop: a direct x.f.Stop() call, or any read of
// the field that hands the value onward (alias, argument, return). A field
// whose only uses are stores, C-receives and Resets can never be stopped,
// and stores into it are leaks.
func (p *Program) timerFieldStops() map[types.Object]bool {
	out := map[types.Object]bool{}
	for _, fn := range p.DeclList {
		fd := p.Decls[fn]
		info := p.InfoOf[fn]
		if fd.Body == nil {
			continue
		}
		inspectStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj, ok := info.Uses[sel.Sel].(*types.Var)
			if !ok || !obj.IsField() || timerTypeKind(obj.Type()) == "" {
				return true
			}
			parent := ast.Node(nil)
			if len(stack) > 0 {
				parent = stack[len(stack)-1]
			}
			switch pn := parent.(type) {
			case *ast.SelectorExpr:
				if pn.X == sel {
					switch pn.Sel.Name {
					case "Stop":
						out[obj] = true
					case "C", "Reset":
						// Using the timer without being able to stop it.
					default:
						out[obj] = true
					}
					return true
				}
			case *ast.AssignStmt:
				for _, lhs := range pn.Lhs {
					if lhs == sel {
						return true // a store, not a potential stop
					}
				}
				out[obj] = true // read into an alias — the alias may stop it
			case *ast.KeyValueExpr:
				if pn.Value != sel {
					return true
				}
				out[obj] = true
			default:
				// Returned, passed as an argument, address taken, compared:
				// the value reaches code that may stop it.
				out[obj] = true
			}
			return true
		})
	}
	return out
}

// timerWalk is the flow hook set of the abstract interpretation; its state
// is the timer map of the scope being walked.
type timerWalk struct {
	f          flow[timerState]
	info       *types.Info
	fn         *types.Func
	sources    map[*types.Func]bool
	fieldStops map[types.Object]bool
	report     func(pos token.Pos, pkg *types.Package, msg string)
}

func (s *timerWalk) empty() timerState { return timerState{} }

func (s *timerWalk) clone(st timerState) timerState { return maps.Clone(st) }

// join is the merge of arms (each derived from a clone of one state):
// stopped is AND-ed over the arms where the timer exists, escaped is OR-ed.
func (s *timerWalk) join(arms []timerState) timerState {
	out := timerState{}
	for _, b := range arms {
		for obj, v := range b {
			cur, ok := out[obj]
			if !ok {
				out[obj] = v
				continue
			}
			cur.stopped = cur.stopped && v.stopped
			cur.escaped = cur.escaped || v.escaped
			out[obj] = cur
		}
	}
	return out
}

func (s *timerWalk) pkg() *types.Package { return s.fn.Pkg() }

// exit reports every live timer that is neither stopped nor escaped.
func (s *timerWalk) exit(st timerState) {
	for _, tv := range st {
		if tv.stopped || tv.escaped {
			continue
		}
		s.report(tv.pos, s.pkg(), fmt.Sprintf(
			"%s result %s is not stopped on every exit path; an unstopped %s "+
				"pins a runtime timer%s until it fires or forever — defer %s.Stop() "+
				"at creation or stop it on each return",
			tv.call, tv.name, tv.kind, tickerSuffix(tv.kind), tv.name))
	}
}

func tickerSuffix(kind string) string {
	if kind == "ticker" {
		return " and periodic wakeups"
	}
	return ""
}

// node handles the statements that bind, discard or defer-stop a timer
// itself, and every identifier: t.Stop() calls (and method values) mark
// stopped, <-t.C on a timer marks that arm stopped, t.C and t.Reset uses are
// neutral, and any other appearance of a tracked timer — returned, passed,
// aliased — marks it escaped.
func (s *timerWalk) node(st timerState, n ast.Node, stack []ast.Node) (timerState, bool) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		s.scanAssign(st, n)
		return st, false
	case *ast.DeclStmt:
		s.scanDecl(st, n)
		return st, false
	case *ast.ExprStmt:
		if call, ok := n.X.(*ast.CallExpr); ok {
			if kind, callName, isNew := timerCreationCall(s.info, call); isNew {
				s.report(call.Pos(), s.pkg(), fmt.Sprintf(
					"result of %s is discarded; the %s can never be stopped and "+
						"leaks its runtime timer%s — bind it and defer Stop",
					callName, kind, tickerSuffix(kind)))
				for _, a := range call.Args {
					s.f.visit(st, a)
				}
				return st, false
			}
		}
	case *ast.DeferStmt:
		// `defer t.Stop()` stops the timer for every later exit.
		if sel, ok := n.Call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Stop" {
			if id, okID := sel.X.(*ast.Ident); okID {
				obj := s.identDefOrUse(id)
				if tv, tracked := st[obj]; tracked {
					tv.stopped = true
					st[obj] = tv
					return st, false
				}
			}
		}
	case *ast.Ident:
		obj := s.info.Uses[n]
		tv, tracked := st[obj]
		if obj == nil || !tracked {
			return st, true
		}
		if sel, okSel := stackParent(stack).(*ast.SelectorExpr); okSel && sel.X == n {
			switch sel.Sel.Name {
			case "Stop":
				tv.stopped = true
			case "Reset":
				// Neutral: resetting neither stops nor leaks.
			case "C":
				// A received timer has fired; no Stop owed on this arm.
				u, okU := stackParent(stack[:len(stack)-1]).(*ast.UnaryExpr)
				tv.stopped = tv.stopped || okU && u.Op == token.ARROW && tv.kind == "timer"
			default:
				tv.escaped = true
			}
		} else {
			tv.escaped = true
		}
		st[obj] = tv
	}
	return st, true
}

// scanAssign handles bindings: creation calls and source-function calls
// bind trackable timers; everything else is scanned for stops and escapes,
// and storing a tracked timer into a never-stopped field is reported.
func (s *timerWalk) scanAssign(st timerState, n *ast.AssignStmt) {
	if len(n.Rhs) == 1 {
		if call, ok := n.Rhs[0].(*ast.CallExpr); ok {
			if kind, callName, isNew := timerCreationCall(s.info, call); isNew {
				for _, a := range call.Args {
					s.f.visit(st, a)
				}
				s.bindCreation(st, n.Lhs, call, kind, callName)
				return
			}
			if cf := calleeFunc(s.info, call); cf != nil && s.sources[cf] {
				for _, a := range call.Args {
					s.f.visit(st, a)
				}
				s.f.visit(st, call.Fun)
				s.bindFromSource(st, n.Lhs, call, cf)
				return
			}
		}
	}
	for _, r := range n.Rhs {
		s.f.visit(st, r)
	}
	if len(n.Lhs) == len(n.Rhs) {
		for i := range n.Rhs {
			s.checkFieldStore(st, n.Lhs[i], n.Rhs[i])
		}
	}
	for _, l := range n.Lhs {
		if _, isIdent := l.(*ast.Ident); !isIdent {
			s.f.visit(st, l)
		}
	}
}

// scanDecl handles `var t = time.NewTicker(d)` declarations.
func (s *timerWalk) scanDecl(st timerState, n *ast.DeclStmt) {
	gd, ok := n.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		if len(vs.Values) == 1 && len(vs.Names) == 1 {
			if call, okCall := vs.Values[0].(*ast.CallExpr); okCall {
				if kind, callName, isNew := timerCreationCall(s.info, call); isNew {
					for _, a := range call.Args {
						s.f.visit(st, a)
					}
					s.bindIdent(st, vs.Names[0], call, kind, callName)
					continue
				}
			}
		}
		for _, v := range vs.Values {
			s.f.visit(st, v)
		}
	}
}

// bindCreation binds a constructor result to its single LHS: a local starts
// tracking, `_` is an immediate leak, a field store is checked against the
// program-wide field-stop set.
func (s *timerWalk) bindCreation(st timerState, lhs []ast.Expr, call *ast.CallExpr, kind, callName string) {
	if len(lhs) != 1 {
		return
	}
	switch l := lhs[0].(type) {
	case *ast.Ident:
		s.bindIdent(st, l, call, kind, callName)
	case *ast.SelectorExpr:
		if fobj, ok := s.info.Uses[l.Sel].(*types.Var); ok && fobj.IsField() {
			if !s.fieldStops[fobj] {
				s.report(call.Pos(), s.pkg(), fmt.Sprintf(
					"%s result is stored in field %s, which no code in the "+
						"program ever stops — the %s leaks its runtime timer%s",
					callName, fobj.Name(), kind, tickerSuffix(kind)))
			}
			return
		}
		s.f.visit(st, l)
	}
}

func (s *timerWalk) bindIdent(st timerState, id *ast.Ident, call *ast.CallExpr, kind, callName string) {
	if id.Name == "_" {
		s.report(call.Pos(), s.pkg(), fmt.Sprintf(
			"result of %s is discarded; the %s can never be stopped and leaks "+
				"its runtime timer%s — bind it and defer Stop",
			callName, kind, tickerSuffix(kind)))
		return
	}
	obj := s.identDefOrUse(id)
	if obj == nil {
		return
	}
	s.checkRebind(st, obj)
	st[obj] = timerVal{pos: call.Pos(), name: id.Name, kind: kind, call: callName}
}

// checkRebind reports a live tracked timer about to be overwritten by a
// fresh binding to the same variable: the old value becomes unreachable
// with no Stop possible, so the leak must be charged now or never.
func (s *timerWalk) checkRebind(st timerState, obj types.Object) {
	tv, tracked := st[obj]
	if !tracked || tv.stopped || tv.escaped {
		return
	}
	s.report(tv.pos, s.pkg(), fmt.Sprintf(
		"%s result %s is rebound before being stopped; the original %s becomes "+
			"unreachable and pins a runtime timer%s until it fires or forever — "+
			"stop it before reassigning",
		tv.call, tv.name, tv.kind, tickerSuffix(tv.kind)))
}

// bindFromSource tracks the timer-typed results of a call to an in-program
// timer source: `t, err := newDrainTimer()` makes t the caller's to stop.
func (s *timerWalk) bindFromSource(st timerState, lhs []ast.Expr, call *ast.CallExpr, cf *types.Func) {
	for _, l := range lhs {
		id, ok := l.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := s.identDefOrUse(id)
		if obj == nil {
			continue
		}
		kind := timerTypeKind(obj.Type())
		if kind == "" {
			continue
		}
		s.checkRebind(st, obj)
		st[obj] = timerVal{pos: call.Pos(), name: id.Name, kind: kind, call: cf.Name()}
	}
}

// checkFieldStore reports a tracked timer stored into a field that no code
// in the program can stop. The store still marks the value escaped (via
// scanExpr's identifier rule), so the leak is reported exactly once, here.
func (s *timerWalk) checkFieldStore(st timerState, lhs, rhs ast.Expr) {
	id, ok := rhs.(*ast.Ident)
	if !ok {
		return
	}
	tv, tracked := st[s.identDefOrUse(id)]
	if !tracked {
		return
	}
	sel, ok := lhs.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fobj, ok := s.info.Uses[sel.Sel].(*types.Var)
	if !ok || !fobj.IsField() || s.fieldStops[fobj] {
		return
	}
	s.report(tv.pos, s.pkg(), fmt.Sprintf(
		"%s result %s is stored in field %s, which no code in the program "+
			"ever stops — the %s leaks its runtime timer%s",
		tv.call, tv.name, fobj.Name(), tv.kind, tickerSuffix(tv.kind)))
}

// lit summarizes a function literal's effect on the outer timers — a
// literal that calls t.Stop() stops it (deferred cleanup closures), one that
// merely references t captures it (escape). The walker then walks the
// literal's body as a scope of its own, so timers created inside goroutines
// and closures get their own exit checks.
func (s *timerWalk) lit(st timerState, lit *ast.FuncLit) timerState {
	for obj, tv := range st {
		switch litTimerUse(s.info, lit, obj) {
		case litUseStop:
			tv.stopped = true
			st[obj] = tv
		case litUseCapture:
			tv.escaped = true
			st[obj] = tv
		}
	}
	return st
}

const (
	litUseNone = iota
	litUseStop
	litUseCapture
)

// litTimerUse classifies how a literal's body uses one outer timer object.
func litTimerUse(info *types.Info, lit *ast.FuncLit, obj types.Object) int {
	use := litUseNone
	inspectStack(lit.Body, func(n ast.Node, stack []ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || info.Uses[id] != obj {
			return true
		}
		if len(stack) > 0 {
			if sel, okSel := stack[len(stack)-1].(*ast.SelectorExpr); okSel && sel.X == id {
				switch sel.Sel.Name {
				case "Stop":
					use = litUseStop
					return false
				case "C", "Reset":
					// Neutral: a closure that only receives ticks cannot
					// stop the timer, so it does not discharge the outer
					// scope's obligation.
					return true
				}
			}
		}
		if use == litUseNone {
			use = litUseCapture
		}
		return true
	})
	return use
}

func (s *timerWalk) identDefOrUse(id *ast.Ident) types.Object {
	if obj := s.info.Defs[id]; obj != nil {
		return obj
	}
	return s.info.Uses[id]
}
