// Package lockio defines the lockio analyzer: no I/O, fsync, marshal, or
// blocking channel operation may run inside a critical section of the
// bank, delivery, catdelivery or shardmap packages.
//
// This is the group-commit and sharded-registry invariant from PR 1/PR 4:
// the ordering lock (bank.Journal.mu), the registry shard locks and the
// per-session locks serialize memory-speed state transitions only — the
// expensive work (the JSON marshal, the WAL write, the fsync) happens
// outside them, concurrently across writers. One fsync smuggled under a
// session lock turns a microsecond critical section into a
// milliseconds-long convoy and caps the whole engine at disk latency.
package lockio

import (
	"go/ast"
	"go/token"
	"go/types"

	"mineassess/internal/lint/analysis"
	"mineassess/internal/lint/lockflow"
)

// Analyzer flags I/O, marshaling and blocking channel operations inside
// bank/delivery/catdelivery critical sections.
var Analyzer = &analysis.Analyzer{
	Name: "lockio",
	Doc: `forbid I/O, marshal and blocking channel ops under bank/delivery/catdelivery locks

The storage and session engines serialize only memory-speed work under
their mutexes; marshal, file writes, fsync and blocking channel
operations must happen outside (non-blocking select-with-default sends
are allowed). Packages outside bank, delivery and catdelivery are not in
scope — the events durable log, for example, legitimately owns its file
under its own lock on a dedicated writer goroutine.`,
	Run: run,
}

// scoped reports whether the analyzer polices pkg at all. shardmap holds
// the session registries' shard locks.
func scoped(pkg *types.Package) bool {
	return analysis.PkgPathTail(pkg, "bank") ||
		analysis.PkgPathTail(pkg, "delivery") ||
		analysis.PkgPathTail(pkg, "catdelivery") ||
		analysis.PkgPathTail(pkg, "shardmap")
}

// ioFuncs are package-level functions that marshal or touch the
// filesystem; calling one inside a critical section is always a finding.
var ioFuncs = map[string]map[string]bool{
	"json": {"Marshal": true, "MarshalIndent": true, "Unmarshal": true,
		"NewEncoder": true, "NewDecoder": true},
	"os": {"WriteFile": true, "ReadFile": true, "Open": true, "OpenFile": true,
		"Create": true, "CreateTemp": true, "Truncate": true, "Rename": true,
		"Remove": true, "RemoveAll": true, "Mkdir": true, "MkdirAll": true},
	"io":  {"Copy": true, "CopyN": true, "ReadAll": true, "WriteString": true},
	"fmt": {"Fprintf": true, "Fprint": true, "Fprintln": true},
}

// ioMethods are method names that marshal or reach the filesystem when
// the receiver is an *os.File, a json Encoder/Decoder, or any interface
// (an interface-typed Write/Sync — walSink, io.Writer — can always hide a
// file; concrete in-memory writers like bytes.Buffer stay legal).
var ioMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteAt": true, "ReadFrom": true,
	"Sync": true, "Encode": true, "Decode": true,
}

func run(pass *analysis.Pass) error {
	if !scoped(pass.Pkg) {
		return nil
	}
	for _, body := range lockflow.Bodies(pass.Files) {
		regions := lockflow.Regions(pass.TypesInfo, body)
		if len(regions) == 0 {
			continue
		}
		nonBlocking := lockflow.NonBlockingComms(body)
		for _, r := range regions {
			checkRegion(pass, body, r, nonBlocking)
		}
	}
	return nil
}

func checkRegion(pass *analysis.Pass, body lockflow.Body, r lockflow.Region, nonBlocking map[ast.Stmt]bool) {
	lockflow.InspectRegion(body, r, func(n ast.Node) bool {
		switch n := n.(type) {
		case ast.Stmt:
			if nonBlocking[n] {
				return false // select-with-default: sanctioned non-blocking comm
			}
			if _, ok := n.(*ast.SendStmt); ok {
				pass.Reportf(n.Pos(),
					"blocking channel send inside critical section of %s (use select with default, or move it outside the lock)", r.Mutex)
				return false
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				pass.Reportf(n.Pos(),
					"blocking channel receive inside critical section of %s", r.Mutex)
				return false
			}
		case *ast.CallExpr:
			if msg := ioCall(pass.TypesInfo, n); msg != "" {
				pass.Reportf(n.Pos(),
					"%s inside critical section of %s (marshal and I/O belong outside the lock)", msg, r.Mutex)
			}
		}
		return true
	})
}

// ioCall classifies a call as marshal/I/O, returning a description or "".
func ioCall(info *types.Info, call *ast.CallExpr) string {
	fn := analysis.FuncFor(info, call)
	if fn == nil {
		return ""
	}
	recv := analysis.ReceiverType(fn)
	if recv == nil {
		for pkgTail, names := range ioFuncs {
			if names[fn.Name()] && analysis.PkgPathTail(fn.Pkg(), pkgTail) {
				return pkgTail + "." + fn.Name()
			}
		}
		return ""
	}
	if !ioMethods[fn.Name()] {
		return ""
	}
	switch {
	case analysis.IsNamed(recv, "os", "File"),
		analysis.IsNamed(recv, "json", "Encoder"),
		analysis.IsNamed(recv, "json", "Decoder"):
		return typeName(recv) + "." + fn.Name()
	}
	if types.IsInterface(recv) {
		return "interface-typed " + fn.Name()
	}
	return ""
}

func typeName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}
