package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the package's one control-flow walker. It runs the fact walk
// of locktable.go, which the call graph and lockorder read. The walker owns
// control flow for a function body; its client owns an abstract state S and
// says what each node does to it:
//
//   - each arm of an if, switch or select walks a copy of the state, and the
//     arms that can fall through are joined. An arm ending in return,
//     break/continue/goto/fallthrough or panic does not fall through; a
//     break carries its state to the end of the statement it leaves, and a
//     continue to the head of its loop.
//   - a loop body walks a copy of the state; after the loop the state is the
//     join of the state on entry (the loop may not run), the states that
//     reach the loop head again, and the breaks. A `for {}` with no
//     condition leaves only through its breaks, so with none it never falls
//     through, and neither does `select {}`.
//   - a function literal is walked as its own scope from the empty state,
//     after the enclosing body; a literal inside a `go` statement (or inside
//     another such literal) is a spawned scope.
//   - a deferred call is visited where the defer statement stands and has no
//     effect of its own, so a deferred unlock leaves the lock held until the
//     function ends.
//
// The walker is one forward pass: loop bodies are not iterated to a fixpoint.

// flowHooks is what a client plugs into the walker.
type flowHooks[S any] interface {
	// empty is the state every scope starts from.
	empty() S
	clone(S) S
	// join merges the states of two or more arms that reach one point.
	join([]S) S
	// node sees every statement before the walker handles it, then every node
	// under a simple statement or a control-statement header, in source
	// order; stack holds the enclosing nodes below the statement. For a
	// simple statement or an expression, false skips the node's children (the
	// hook visits what it needs through flow.visit).
	node(st S, n ast.Node, stack []ast.Node) (S, bool)
}

// flow walks function bodies for one client. Hooks read spawned to tell
// whether the scope being walked runs on a goroutine of its own.
type flow[S any] struct {
	hooks   flowHooks[S]
	info    *types.Info
	spawned bool
	queue   []flowLit
	targets []*flowTarget[S]
}

type flowLit struct {
	body    *ast.BlockStmt
	spawned bool
}

// flowTarget is an enclosing statement a break (or, for a loop, a continue)
// can leave to, with the states that left that way.
type flowTarget[S any] struct {
	label        string
	loop         bool
	breaks, cont []S
}

// walkFunc walks a declaration body and then every function literal found in
// it, each as its own scope.
func (f *flow[S]) walkFunc(info *types.Info, body *ast.BlockStmt) {
	f.info, f.spawned = info, false
	f.scope(body)
	for len(f.queue) > 0 {
		lit := f.queue[0]
		f.queue = f.queue[1:]
		f.spawned = lit.spawned
		f.scope(lit.body)
	}
}

func (f *flow[S]) scope(body *ast.BlockStmt) {
	f.stmts(f.hooks.empty(), body.List)
}

// stmts walks a statement list; live is false when control cannot fall
// through its end.
func (f *flow[S]) stmts(st S, list []ast.Stmt) (S, bool) {
	for _, s := range list {
		var live bool
		if st, live = f.stmt(st, s, ""); !live {
			return st, false
		}
	}
	return st, true
}

// stmt walks one statement; label names it when it is labeled.
func (f *flow[S]) stmt(st S, s ast.Stmt, label string) (S, bool) {
	switch s := s.(type) {
	case nil:
		return st, true
	case *ast.LabeledStmt:
		return f.stmt(st, s.Stmt, s.Label.Name)
	case *ast.BlockStmt:
		return f.stmts(st, s.List)
	case *ast.BranchStmt:
		if t := f.target(s); t != nil {
			if s.Tok == token.BREAK {
				t.breaks = append(t.breaks, st)
			} else {
				t.cont = append(t.cont, st)
			}
		}
		return st, false
	case *ast.IfStmt:
		st, _ = f.hooks.node(st, s, nil)
		st, _ = f.stmt(st, s.Init, "")
		st = f.visit(st, s.Cond, s)
		var arms []S
		if then, live := f.stmts(f.hooks.clone(st), s.Body.List); live {
			arms = append(arms, then)
		}
		if s.Else == nil {
			arms = append(arms, st)
		} else if els, live := f.stmt(f.hooks.clone(st), s.Else, ""); live {
			arms = append(arms, els)
		}
		return f.merge(st, arms)
	case *ast.ForStmt:
		st, _ = f.hooks.node(st, s, nil)
		st, _ = f.stmt(st, s.Init, "")
		st = f.visit(st, s.Cond, s)
		return f.loop(st, label, s.Body, s.Post, s.Cond != nil)
	case *ast.RangeStmt:
		st, _ = f.hooks.node(st, s, nil)
		st = f.visit(st, s.Key, s)
		st = f.visit(st, s.Value, s)
		st = f.visit(st, s.X, s)
		return f.loop(st, label, s.Body, nil, true)
	case *ast.SwitchStmt:
		st, _ = f.hooks.node(st, s, nil)
		st, _ = f.stmt(st, s.Init, "")
		st = f.visit(st, s.Tag, s)
		return f.clauses(st, label, s.Body, true)
	case *ast.TypeSwitchStmt:
		st, _ = f.hooks.node(st, s, nil)
		st, _ = f.stmt(st, s.Init, "")
		st, _ = f.stmt(st, s.Assign, "")
		return f.clauses(st, label, s.Body, true)
	case *ast.SelectStmt:
		st, _ = f.hooks.node(st, s, nil)
		return f.clauses(st, label, s.Body, false)
	case *ast.ReturnStmt:
		return f.visit(st, s), false
	}
	// A simple statement: assignment, declaration, send, inc/dec, go, defer
	// or expression statement.
	st = f.visit(st, s)
	if es, ok := s.(*ast.ExprStmt); ok {
		if call, ok := es.X.(*ast.CallExpr); ok && isBuiltinCall(f.info, call, "panic") {
			return st, false
		}
	}
	return st, true
}

// loop walks a loop body on a copy of st and returns the state after the
// loop; mayExit is false for a `for` with no condition, which leaves only
// through a break.
func (f *flow[S]) loop(st S, label string, body *ast.BlockStmt, post ast.Stmt, mayExit bool) (S, bool) {
	t := f.push(label, true)
	end, live := f.stmts(f.hooks.clone(st), body.List)
	f.targets = f.targets[:len(f.targets)-1]
	if live {
		t.cont = append(t.cont, end)
	}
	exits := t.breaks
	if len(t.cont) > 0 {
		next := f.join(t.cont)
		next, _ = f.stmt(next, post, "")
		if mayExit {
			exits = append(exits, next)
		}
	}
	if mayExit {
		exits = append(exits, st)
	}
	return f.merge(st, exits)
}

// clauses walks the clauses of a switch, type switch or select, each on a
// copy of st. mayMatchNone adds st itself as an arm when there is no default
// clause: a switch may match nothing, while a select always runs a clause.
func (f *flow[S]) clauses(st S, label string, body *ast.BlockStmt, mayMatchNone bool) (S, bool) {
	t := f.push(label, false)
	var arms []S
	hasDefault := false
	for _, c := range body.List {
		var arm S
		var list []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			hasDefault = hasDefault || c.List == nil
			for _, e := range c.List {
				st = f.visit(st, e, c)
			}
			arm, list = f.hooks.clone(st), c.Body
		case *ast.CommClause:
			hasDefault = hasDefault || c.Comm == nil
			arm, _ = f.stmt(f.hooks.clone(st), c.Comm, "")
			list = c.Body
		}
		if arm, live := f.stmts(arm, list); live {
			arms = append(arms, arm)
		}
	}
	f.targets = f.targets[:len(f.targets)-1]
	if mayMatchNone && !hasDefault {
		arms = append(arms, st)
	}
	return f.merge(st, append(arms, t.breaks...))
}

func (f *flow[S]) push(label string, loop bool) *flowTarget[S] {
	t := &flowTarget[S]{label: label, loop: loop}
	f.targets = append(f.targets, t)
	return t
}

// target resolves the statement a break or continue leaves to, or nil for a
// goto or fallthrough (whose state the walker drops).
func (f *flow[S]) target(s *ast.BranchStmt) *flowTarget[S] {
	if s.Tok != token.BREAK && s.Tok != token.CONTINUE {
		return nil
	}
	for i := len(f.targets) - 1; i >= 0; i-- {
		t := f.targets[i]
		if s.Label != nil {
			if t.label == s.Label.Name {
				return t
			}
		} else if t.loop || s.Tok == token.BREAK {
			return t
		}
	}
	return nil
}

func (f *flow[S]) join(arms []S) S {
	if len(arms) == 1 {
		return arms[0]
	}
	return f.hooks.join(arms)
}

// merge joins the arms that fall through; with none, control does not reach
// the next statement.
func (f *flow[S]) merge(st S, arms []S) (S, bool) {
	if len(arms) == 0 {
		return st, false
	}
	return f.join(arms), true
}

// visit walks the subtree under n in source order, threading st through the
// node hook; stack seeds the enclosing nodes. Function literals are queued as
// scopes of their own.
func (f *flow[S]) visit(st S, n ast.Node, stack ...ast.Node) S {
	if n == nil {
		return st
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if lit, ok := m.(*ast.FuncLit); ok {
			_, inGo := stackRoot(stack).(*ast.GoStmt)
			f.queue = append(f.queue, flowLit{body: lit.Body, spawned: f.spawned || inGo})
			return false
		}
		var descend bool
		if st, descend = f.hooks.node(st, m, stack); descend {
			stack = append(stack, m)
		}
		return descend
	})
	return st
}

// stackRoot is the outermost enclosing node, the statement being visited.
func stackRoot(stack []ast.Node) ast.Node {
	if len(stack) == 0 {
		return nil
	}
	return stack[0]
}

// stackParent is the innermost enclosing node.
func stackParent(stack []ast.Node) ast.Node {
	if len(stack) == 0 {
		return nil
	}
	return stack[len(stack)-1]
}
