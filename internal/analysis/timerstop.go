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
	// A field can be stopped when some access stops its value or hands it
	// onward; one whose only uses are stores, C-receives and Resets cannot,
	// and stores into it are leaks.
	fieldStops := map[types.Object]bool{}
	for obj, st := range p.tab.fields {
		for _, a := range st.accesses {
			fieldStops[obj] = fieldStops[obj] || a.use == useStop || a.use == useHandOff
		}
	}
	s := &timerWalk{prog: p, fieldStops: fieldStops, report: report}
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

// timerWalk is the flow hook set of the abstract interpretation; its state
// is the timer map of the scope being walked.
type timerWalk struct {
	f          flow[timerState]
	prog       *Program
	info       *types.Info
	fn         *types.Func
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
		s.scanAssign(st, n.Lhs, n.Rhs)
		return st, false
	case *ast.ValueSpec:
		lhs := make([]ast.Expr, len(n.Names))
		for i, id := range n.Names {
			lhs[i] = id
		}
		s.scanAssign(st, lhs, n.Values)
		return st, false
	case *ast.ExprStmt:
		if call, ok := n.X.(*ast.CallExpr); ok {
			if kind, callName, isNew := timerCreationCall(s.info, call); isNew {
				s.discarded(call, kind, callName)
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

// scanAssign handles bindings (assignments and `var` specs): creation calls
// and source-function calls bind trackable timers; everything else is
// scanned for stops and escapes, and storing a tracked timer into a
// never-stopped field is reported.
func (s *timerWalk) scanAssign(st timerState, lhs, rhs []ast.Expr) {
	if len(rhs) == 1 {
		if call, ok := rhs[0].(*ast.CallExpr); ok {
			if kind, callName, isNew := timerCreationCall(s.info, call); isNew {
				for _, a := range call.Args {
					s.f.visit(st, a)
				}
				if len(lhs) == 1 {
					s.bindCreation(st, lhs[0], call, kind, callName)
				}
				return
			}
			if cf := calleeFunc(s.info, call); cf != nil && s.prog.summary[cf][factTimerSource] {
				for _, a := range call.Args {
					s.f.visit(st, a)
				}
				s.f.visit(st, call.Fun)
				s.bindFromSource(st, lhs, call, cf)
				return
			}
		}
	}
	for _, r := range rhs {
		s.f.visit(st, r)
	}
	if len(lhs) == len(rhs) {
		for i := range rhs {
			s.checkFieldStore(st, lhs[i], rhs[i])
		}
	}
	for _, l := range lhs {
		if _, isIdent := l.(*ast.Ident); !isIdent {
			s.f.visit(st, l)
		}
	}
}

// bindCreation binds a constructor result to its target: a local starts
// tracking, `_` is an immediate leak, a field store is checked against the
// program-wide field-stop set.
func (s *timerWalk) bindCreation(st timerState, lhs ast.Expr, call *ast.CallExpr, kind, callName string) {
	switch l := lhs.(type) {
	case *ast.Ident:
		if l.Name == "_" {
			s.discarded(call, kind, callName)
		} else if obj := s.identDefOrUse(l); obj != nil {
			s.checkRebind(st, obj)
			st[obj] = timerVal{pos: call.Pos(), name: l.Name, kind: kind, call: callName}
		}
	case *ast.SelectorExpr:
		if fobj, ok := s.info.Uses[l.Sel].(*types.Var); ok && fobj.IsField() {
			s.fieldStore(call.Pos(), callName+" result", fobj, kind)
			return
		}
		s.f.visit(st, l)
	}
}

// discarded reports a creation whose result is dropped on the spot.
func (s *timerWalk) discarded(call *ast.CallExpr, kind, callName string) {
	s.report(call.Pos(), s.pkg(), fmt.Sprintf(
		"result of %s is discarded; the %s can never be stopped and leaks "+
			"its runtime timer%s — bind it and defer Stop",
		callName, kind, tickerSuffix(kind)))
}

// fieldStore reports a timer (what: its creating call and name) stored into
// field, unless some code in the program can stop that field.
func (s *timerWalk) fieldStore(pos token.Pos, what string, field *types.Var, kind string) {
	if !s.fieldStops[field] {
		s.report(pos, s.pkg(), fmt.Sprintf(
			"%s is stored in field %s, which no code in the program ever stops — "+
				"the %s leaks its runtime timer%s",
			what, field.Name(), kind, tickerSuffix(kind)))
	}
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
// the identifier rule of node), so the leak is reported exactly once, here.
func (s *timerWalk) checkFieldStore(st timerState, lhs, rhs ast.Expr) {
	id, isIdent := rhs.(*ast.Ident)
	sel, isSel := lhs.(*ast.SelectorExpr)
	if !isIdent || !isSel {
		return
	}
	tv, tracked := st[s.identDefOrUse(id)]
	if fobj, ok := s.info.Uses[sel.Sel].(*types.Var); tracked && ok && fobj.IsField() {
		s.fieldStore(tv.pos, tv.call+" result "+tv.name, fobj, tv.kind)
	}
}

// lit summarizes a function literal's effect on the outer timers — a
// literal that calls t.Stop() stops it (deferred cleanup closures), one that
// otherwise references t captures it (escape); t.C and t.Reset are neutral,
// since a closure that only receives ticks cannot stop the timer. The walker
// then walks the literal's body as a scope of its own, so timers created
// inside goroutines and closures get their own exit checks.
func (s *timerWalk) lit(st timerState, lit *ast.FuncLit) timerState {
	stops, captures := map[types.Object]bool{}, map[types.Object]bool{}
	inspectStack(lit.Body, func(n ast.Node, stack []ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := s.info.Uses[id]
		if _, tracked := st[obj]; !tracked {
			return true
		}
		use := ""
		if sel, ok := stackParent(stack).(*ast.SelectorExpr); ok && sel.X == id {
			use = sel.Sel.Name
		}
		switch use {
		case "Stop":
			stops[obj] = true
		case "C", "Reset":
		default:
			captures[obj] = true
		}
		return true
	})
	for obj, tv := range st {
		tv.stopped = tv.stopped || stops[obj]
		tv.escaped = tv.escaped || captures[obj] && !stops[obj]
		st[obj] = tv
	}
	return st
}

func (s *timerWalk) identDefOrUse(id *ast.Ident) types.Object {
	if obj := s.info.Defs[id]; obj != nil {
		return obj
	}
	return s.info.Uses[id]
}
