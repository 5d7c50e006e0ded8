// Package ctxflow defines the ctxflow analyzer: request-scoped code must
// thread the request context, not mint a fresh one.
//
// The tracing layer (PR 10) propagates the active span through
// context.Context: the HTTP request edge roots a span in the request
// context, the engine methods open children under it, and the journal
// reconstructs commit phases from it. A context.Background() (or TODO())
// inside an HTTP handler or any function handed a context silently severs
// that chain — the code still works, but the trace tree ends there and
// the tail sampler never sees the downstream latency. Sites that must
// outlive the request (post-persist event publishes) detach with
// trace.Detach(ctx), which keeps the trace and request-ID linkage while
// dropping cancelation; minting Background is never the right tool inside
// request scope.
package ctxflow

import (
	"go/ast"

	"mineassess/internal/lint/analysis"
)

// Analyzer flags context.Background()/TODO() inside request-scoped code.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: `forbid minting fresh contexts inside request-scoped functions

HTTP handlers (any function taking http.ResponseWriter and *http.Request)
and any function taking a context.Context receive the request context;
calling context.Background() or context.TODO() there severs trace
propagation and cancelation. Thread the incoming ctx, or use
trace.Detach(ctx) for work that must outlive the request without losing
trace linkage.`,
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !requestScoped(pass, fd) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := analysis.FuncFor(pass.TypesInfo, call)
				for _, name := range [...]string{"Background", "TODO"} {
					if analysis.IsPkgFunc(fn, "context", name) {
						pass.Reportf(call.Pos(),
							"context.%s() inside request-scoped %s severs trace propagation: thread the request ctx (or trace.Detach it for post-request work)",
							name, fd.Name.Name)
					}
				}
				return true
			})
		}
	}
	return nil
}

// requestScoped reports whether fd is an HTTP handler (has both an
// http.ResponseWriter and a *http.Request parameter) or takes a
// context.Context.
func requestScoped(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	var hasWriter, hasRequest bool
	for _, field := range fd.Type.Params.List {
		tv, ok := pass.TypesInfo.Types[field.Type]
		if !ok {
			continue
		}
		switch {
		case analysis.IsNamed(tv.Type, "http", "ResponseWriter"):
			hasWriter = true
		case analysis.IsNamed(tv.Type, "http", "Request"):
			hasRequest = true
		case analysis.IsNamed(tv.Type, "context", "Context"):
			return true
		}
	}
	return hasWriter && hasRequest
}
