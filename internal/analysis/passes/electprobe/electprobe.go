// Package electprobe keeps the skew detector's contention counters
// clean: no code outside the lock machinery probes a shard lock with a
// bare TryAcquire.
//
// The resharding heuristic (shardedkv) reads locks.Contended's
// attempts/contended ratio to decide when a shard is hot enough to
// split. Contended.TryAcquire counts a failed try as contention — the
// right semantics for a caller that then waits, and exactly the wrong
// one for an opportunistic probe, which fails by design whenever the
// lock is busy and would make a merely popular shard look convoyed.
// The store therefore takes shard locks only with blocking Acquire;
// this pass keeps it that way.
//
// Flagged:
//
//   - any X.TryAcquire(...) call where X's static type is the
//     Contended wrapper (its counting TryAcquire is never a probe's
//     business);
//   - any other X.TryAcquire(...) call outside a function named
//     TryAcquire or Acquire — those names exempt lock implementations
//     and wrappers (locks package adapters, Contended itself) that
//     legitimately forward the probe downward.
package electprobe

import (
	"go/ast"

	"repro/internal/analysis"
)

// Analyzer is the electprobe pass.
var Analyzer = &analysis.Analyzer{
	Name: "electprobe",
	Doc:  "check that no code outside the lock machinery probes with a counter-polluting bare TryAcquire",
	Run:  run,
}

// exemptFuncs are the enclosing-function names inside which a forwarded
// TryAcquire is part of the lock machinery itself.
var exemptFuncs = map[string]bool{
	"TryAcquire": true,
	"Acquire":    true,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		analysis.FuncNodes(file, func(name string, ft *ast.FuncType, body *ast.BlockStmt) {
			checkFunc(pass, name, body)
		})
	}
	return nil
}

func checkFunc(pass *analysis.Pass, fname string, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // literals are visited as their own functions
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, name, ok := analysis.MethodCall(call)
		if !ok || name != "TryAcquire" {
			return true
		}
		if analysis.NamedRecvType(pass.TypesInfo, recv) == "Contended" {
			pass.Reportf(call.Pos(), "TryAcquire on a locks.Contended counts a failed probe as contention; take the lock with Acquire")
			return true
		}
		if !exemptFuncs[fname] {
			pass.Reportf(call.Pos(), "bare TryAcquire outside the lock machinery: probes would pollute the Contended counters; take the lock with Acquire")
		}
		return true
	})
}
