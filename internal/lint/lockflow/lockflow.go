// Package lockflow locates critical sections — the statements between a
// sync.Mutex/RWMutex Lock and its matching Unlock — inside one function
// body. It is the shared machinery of the lockio and nonblockingpublish
// analyzers.
//
// The analysis is intraprocedural and syntactic about pairing: a section
// opens at a `x.mu.Lock()` statement and closes at the first later
// `x.mu.Unlock()` whose receiver renders to the same source text ("x.mu"),
// or at the end of the function for `defer x.mu.Unlock()`. Lock handoffs
// across functions and conditionally-unlocked paths are out of scope, so
// the engines' per-session sections are invisible to it: they open in
// lock(id) and close with a `defer s.mu.Unlock()` in the caller, which
// pairs with no Lock. The shared locks (journal ordering lock, bank and
// registry shards, the bus) all lock and unlock within one function.
package lockflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"mineassess/internal/lint/analysis"
)

// Region is one critical section within a function body.
type Region struct {
	// Mutex is the rendered lock expression, e.g. "j.mu" or "s.mu".
	Mutex string
	// Read marks an RLock section.
	Read bool
	// Start/End bound the guarded statements: Start is the end of the
	// Lock call, End the position of the matching Unlock (or the body's
	// end for deferred unlocks).
	Start, End token.Pos
	// Deferred marks a section closed by `defer Unlock` (it spans to the
	// function's end).
	Deferred bool
}

// Body is one function-like declaration: a FuncDecl or a FuncLit.
// Closures are separate bodies — code inside a FuncLit runs when the
// closure is called, not where it is written, so it never belongs to the
// enclosing function's critical sections.
type Body struct {
	// Node is the *ast.FuncDecl or *ast.FuncLit.
	Node ast.Node
	// Decl is non-nil for declared functions (carries the doc comment).
	Decl *ast.FuncDecl
	// Block is the function body.
	Block *ast.BlockStmt
}

// Bodies returns every function-like body in the files.
func Bodies(files []*ast.File) []Body {
	var out []Body
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					out = append(out, Body{Node: fn, Decl: fn, Block: fn.Body})
				}
			case *ast.FuncLit:
				out = append(out, Body{Node: fn, Block: fn.Body})
			}
			return true
		})
	}
	return out
}

// lockEvent is one Lock/Unlock call found in a body.
type lockEvent struct {
	pos      token.Pos
	end      token.Pos // end of the call (a region starts after its Lock)
	key      string    // rendered receiver
	read     bool      // RLock/RUnlock
	unlock   bool
	deferred bool
	used     bool
}

// mutexMethod resolves sel as a Lock-family method on sync.Mutex,
// sync.RWMutex or sync.Locker, returning the method name.
func mutexMethod(info *types.Info, sel *ast.SelectorExpr) (string, bool) {
	fn, _ := info.Uses[sel.Sel].(*types.Func)
	if fn == nil {
		return "", false
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", false
	}
	recv := analysis.ReceiverType(fn)
	if recv == nil {
		return "", false
	}
	if analysis.IsNamed(recv, "sync", "Mutex") || analysis.IsNamed(recv, "sync", "RWMutex") ||
		analysis.IsNamed(recv, "sync", "Locker") {
		return fn.Name(), true
	}
	return "", false
}

// Regions returns the critical sections of one body, in source order.
func Regions(info *types.Info, body Body) []Region {
	var events []lockEvent
	inspectShallow(body.Block, func(n ast.Node) bool {
		var call *ast.CallExpr
		deferred := false
		switch s := n.(type) {
		case *ast.ExprStmt:
			call, _ = s.X.(*ast.CallExpr)
		case *ast.DeferStmt:
			call = s.Call
			deferred = true
		default:
			return true
		}
		if call == nil {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		name, ok := mutexMethod(info, sel)
		if !ok {
			return true
		}
		events = append(events, lockEvent{
			pos:      call.Pos(),
			end:      call.End(),
			key:      types.ExprString(sel.X),
			read:     name == "RLock" || name == "RUnlock",
			unlock:   name == "Unlock" || name == "RUnlock",
			deferred: deferred,
		})
		return true
	})

	var regions []Region
	for i := range events {
		ev := &events[i]
		if ev.unlock || ev.deferred {
			continue
		}
		r := Region{Mutex: ev.key, Read: ev.read, Start: ev.end, End: body.Block.End()}
		closed := false
		for j := i + 1; j < len(events); j++ {
			un := &events[j]
			if un.used || !un.unlock || un.key != ev.key || un.read != ev.read {
				continue
			}
			un.used = true
			closed = true
			if un.deferred {
				r.Deferred = true // spans to the function's end
			} else {
				r.End = un.pos
			}
			break
		}
		// An unmatched Lock (handoff to another function) conservatively
		// guards the rest of the body.
		r.Deferred = r.Deferred || !closed
		regions = append(regions, r)
	}
	return regions
}

// inspectShallow walks n without descending into nested function literals.
func inspectShallow(n ast.Node, fn func(ast.Node) bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return fn(n)
	})
}

// InspectRegion walks the statements of body that lie inside r, skipping
// nested function literals (their bodies execute outside the section).
func InspectRegion(body Body, r Region, fn func(ast.Node) bool) {
	inspectShallow(body.Block, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if n.End() <= r.Start || n.Pos() >= r.End {
			// Nodes straddling the region (the enclosing blocks) must
			// still be descended into.
			return n.Pos() < r.End && n.End() > r.Start
		}
		return fn(n)
	})
}

// NonBlockingComms returns the set of statements that are communication
// clauses of a `select` with a `default` case — the sanctioned
// non-blocking send/receive idiom (kickCommitter, Subscription.wake).
func NonBlockingComms(body Body) map[ast.Stmt]bool {
	set := make(map[ast.Stmt]bool)
	inspectShallow(body.Block, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasDefault := false
		for _, clause := range sel.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			return true
		}
		for _, clause := range sel.Body.List {
			if cc, ok := clause.(*ast.CommClause); ok && cc.Comm != nil {
				set[cc.Comm] = true
			}
		}
		return true
	})
	return set
}
