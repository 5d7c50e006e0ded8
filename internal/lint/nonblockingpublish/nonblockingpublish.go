// Package nonblockingpublish defines the nonblockingpublish analyzer:
// events.Bus.Publish must never be called inside a critical section that
// lockflow can see.
//
// Publish itself never blocks (that is the bus's contract), but it takes
// the bus lock and fans out to every subscriber queue — calling it while
// holding a registry, bank, journal or bus lock nests the bus lock inside
// locks every learner shares, couples all of them to fan-out latency, and
// invites lock-order inversions with the bus's own GaugeFunc callbacks.
// The per-session lock is the exception: both engines publish inside it,
// after the session's persist, because only that learner waits. They open
// it in lock(id), another function, so lockflow does not see it.
package nonblockingpublish

import (
	"go/ast"

	"mineassess/internal/lint/analysis"
	"mineassess/internal/lint/lockflow"
)

// Analyzer flags events.Bus.Publish call sites inside critical sections.
var Analyzer = &analysis.Analyzer{
	Name: "nonblockingpublish",
	Doc: `forbid events.Bus.Publish inside any critical section

Emit after durable persist, outside every shared lock: Publish under a
registry, bank or journal lock nests the bus lock inside locks every
learner shares and couples them to fan-out. Checked intraprocedurally in
every package.`,
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, body := range lockflow.Bodies(pass.Files) {
		regions := lockflow.Regions(pass.TypesInfo, body)
		for _, r := range regions {
			lockflow.InspectRegion(body, r, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := analysis.FuncFor(pass.TypesInfo, call)
				if fn == nil || fn.Name() != "Publish" {
					return true
				}
				if analysis.IsNamed(analysis.ReceiverType(fn), "events", "Bus") {
					pass.Reportf(call.Pos(),
						"events.Bus.Publish inside critical section of %s (persist, unlock, then emit)", r.Mutex)
				}
				return true
			})
		}
	}
	return nil
}
