// Package hotpathalloc defines the hotpathalloc analyzer: functions
// annotated //assess:hotpath must avoid constructs that allocate.
//
// The zero-allocation hot paths — obs Counter.Add /
// Histogram.ObserveValue / Layout.BucketFor, the event fan-out enqueue —
// are pinned to 0 allocs/op by allocation tests in their packages. Such a
// test only fires when it covers the regression; this analyzer rejects the
// known allocating constructs at review time instead: fmt calls,
// make/new, slice and map literals, non-constant string concatenation,
// string<->[]byte conversions, and interface boxing of basic values.
// Function literals are not descended into or flagged (non-escaping
// closures such as BucketFor's sort.Search comparator compile
// allocation-free); a deliberate cold path inside a hot function carries
// an //assess:allow hotpathalloc comment.
package hotpathalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"mineassess/internal/lint/analysis"
)

// Marker is the doc-comment annotation that opts a function into the
// analyzer.
const Marker = "assess:hotpath"

// Analyzer rejects allocating constructs in //assess:hotpath functions.
var Analyzer = &analysis.Analyzer{
	Name: "hotpathalloc",
	Doc: `reject allocating constructs in functions marked //assess:hotpath

Annotated functions are the measured zero-allocation record/encode paths;
fmt.* calls, make/new, slice/map composite literals, non-constant string
concatenation, string<->[]byte conversions and interface boxing of basic
values are findings. Pair a new hot path with an allocation test in its
package, which pins the measured allocs/op; this catches the construct
before a test has to.`,
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !marked(fn) {
				continue
			}
			checkBody(pass, fn.Body)
		}
	}
	return nil
}

// marked reports whether the function's doc comment carries the
// //assess:hotpath annotation.
func marked(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.Contains(c.Text, Marker) {
			return true
		}
	}
	return false
}

func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // non-escaping closures compile allocation-free
		case *ast.CallExpr:
			checkCall(pass, n)
		case *ast.CompositeLit:
			if tv, ok := pass.TypesInfo.Types[n]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice:
					pass.Reportf(n.Pos(), "hot path: slice literal allocates")
				case *types.Map:
					pass.Reportf(n.Pos(), "hot path: map literal allocates")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				tv, ok := pass.TypesInfo.Types[n]
				if ok && tv.Value == nil && isString(tv.Type) {
					pass.Reportf(n.Pos(), "hot path: string concatenation allocates")
				}
			}
		}
		return true
	})
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)
	// Builtins make/new.
	if id, ok := fun.(*ast.Ident); ok {
		if _, builtin := pass.TypesInfo.Uses[id].(*types.Builtin); builtin {
			switch id.Name {
			case "make", "new":
				pass.Reportf(call.Pos(), "hot path: %s allocates", id.Name)
			}
			return
		}
	}
	// Conversions between strings and byte/rune slices.
	if tv, ok := pass.TypesInfo.Types[fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			checkConversion(pass, call, tv.Type)
		}
		return
	}
	fn := analysis.FuncFor(pass.TypesInfo, call)
	if fn == nil {
		return
	}
	if analysis.PkgPathTail(fn.Pkg(), "fmt") {
		pass.Reportf(call.Pos(), "hot path: fmt.%s allocates", fn.Name())
		return
	}
	checkBoxing(pass, call, fn)
}

func checkConversion(pass *analysis.Pass, call *ast.CallExpr, to types.Type) {
	if tv, ok := pass.TypesInfo.Types[call]; ok && tv.Value != nil {
		return // constant-folded
	}
	fromTV, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok {
		return
	}
	from := fromTV.Type
	switch {
	case isString(to) && byteOrRuneSlice(from):
		pass.Reportf(call.Pos(), "hot path: []byte->string conversion allocates")
	case byteOrRuneSlice(to) && isString(from):
		pass.Reportf(call.Pos(), "hot path: string->[]byte conversion allocates")
	}
}

// checkBoxing flags basic-typed arguments passed to interface parameters
// (boxing an int into an any heap-allocates outside the small-value cache).
func checkBoxing(pass *analysis.Pass, call *ast.CallExpr, fn *types.Func) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || call.Ellipsis != token.NoPos {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var param types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			param = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			param = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(param) {
			continue
		}
		if tv, ok := pass.TypesInfo.Types[arg]; ok {
			if basic, ok := tv.Type.Underlying().(*types.Basic); ok && basic.Kind() != types.UntypedNil {
				pass.Reportf(arg.Pos(), "hot path: passing %s to interface parameter boxes (allocates)", tv.Type)
			}
		}
	}
}

func isString(t types.Type) bool {
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

func byteOrRuneSlice(t types.Type) bool {
	slice, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	elem, ok := slice.Elem().Underlying().(*types.Basic)
	return ok && (elem.Kind() == types.Byte || elem.Kind() == types.Rune || elem.Kind() == types.Uint8 || elem.Kind() == types.Int32)
}
