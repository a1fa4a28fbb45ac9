// Package classhintpair enforces the per-operation ClassHint contract
// from internal/core: a hint installed with SetClassHint is an
// operation-scoped override, never goroutine state, so every
// SetClassHint must be un-done inside the same function — either by a
// deferred restore (defer w.ClearClassHint()) or by an explicit clear
// that provably runs on every return path — and the hinted worker must
// not be captured by a goroutine spawned while the hint is live.
//
// A leaked hint is the serving-boundary failure mode: the next request
// on the connection would run under the previous request's SLO class,
// silently steering lock admission, the WAL sync policy and epoch
// feedback with a stale class. The race window is invisible to the
// race detector (Worker is single-goroutine by design), which is why
// this is a static check.
//
// Liveness runs on the control-flow graph from internal/analysis/cfg
// as a may-live dataflow: a SetClassHint adds its site to the live
// set, a ClearClassHint empties it (any clear covers any set — the
// hint is worker-global), and states join by union, so a hint that
// survives *any* path to a return or to the function's end is
// reported — including a set inside a loop whose clear a `continue`
// skips. A deferred ClearClassHint (or SetClassHint restoring a saved
// value) anywhere in the function covers every return path; the
// goroutine-escape check still applies while the hint is live.
package classhintpair

import (
	"go/ast"
	"go/token"
	"sort"

	"repro/internal/analysis"
	"repro/internal/analysis/cfg"
)

// Analyzer is the classhintpair pass.
var Analyzer = &analysis.Analyzer{
	Name: "classhintpair",
	Doc:  "check that every SetClassHint is cleared on all return paths and never escapes into a goroutine",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		analysis.FuncNodes(file, func(name string, ft *ast.FuncType, body *ast.BlockStmt) {
			checkFunc(pass, body)
		})
	}
	return nil
}

// hints is the dataflow state: the set of SetClassHint sites whose
// hint may still be live, keyed by the call's position (the value is
// the call itself, for reporting).
type hints map[token.Pos]*ast.CallExpr

// checkFunc checks one function body. Nested function literals are
// opaque here (FuncNodes visits them as functions in their own right):
// the pairing contract is per-function, because a literal outlives the
// statement that creates it.
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	g := cfg.New(body)
	res := cfg.Solve(g, cfg.Flow[hints]{
		Entry:    hints{},
		Transfer: transfer,
		Join: func(a, b hints) hints {
			out := cloneHints(a)
			for p, c := range b {
				out[p] = c
			}
			return out
		},
		Equal: func(a, b hints) bool {
			if len(a) != len(b) {
				return false
			}
			for p := range a {
				if _, ok := b[p]; !ok {
					return false
				}
			}
			return true
		},
		Clone: cloneHints,
	})

	// A deferred ClearClassHint (or SetClassHint restoring a saved
	// value) covers every return path.
	hasDeferredRestore := false
	for _, d := range g.Defers {
		if _, name, ok := analysis.MethodCall(d.Call); ok && (name == "ClearClassHint" || name == "SetClassHint") {
			hasDeferredRestore = true
		}
	}

	type leak struct {
		set *ast.CallExpr
		ret token.Pos // NoPos for the fall-off-end form
	}
	var leaks []leak
	seen := map[leak]bool{}
	report := func(l leak) {
		if !seen[l] {
			seen[l] = true
			leaks = append(leaks, l)
		}
	}

	for _, b := range g.Blocks {
		in, reachable := res.In[b]
		if !reachable {
			continue
		}
		st := cloneHints(in)
		fallsToExit := blockEdgesTo(b, g.Exit)
		for _, n := range b.Nodes {
			// A goroutine spawned while any hint is live may capture
			// the hinted worker — defers don't help, the goroutine
			// outlives them.
			if gs, ok := n.(*ast.GoStmt); ok {
				for _, set := range sortedHints(st) {
					recv, _, _ := analysis.MethodCall(set)
					target := analysis.LeafObj(pass.TypesInfo, recv)
					if target == nil || analysis.ReferencesObj(pass.TypesInfo, gs.Call, target) {
						pass.Reportf(gs.Pos(), "goroutine spawned while a ClassHint set at line %d is live may capture the hinted worker",
							pass.Fset.Position(set.Pos()).Line)
					}
				}
			}
			if ret, ok := n.(*ast.ReturnStmt); ok && !hasDeferredRestore {
				for _, set := range sortedHints(st) {
					report(leak{set: set, ret: ret.Pos()})
				}
				fallsToExit = false // this exit is accounted for
			}
			st = transfer(n, st)
		}
		// A block that reaches Exit without a return is the implicit
		// end of the function: a hint live there was never paired.
		if fallsToExit && !hasDeferredRestore {
			for _, set := range sortedHints(st) {
				report(leak{set: set})
			}
		}
	}

	sort.Slice(leaks, func(i, j int) bool {
		if leaks[i].set.Pos() != leaks[j].set.Pos() {
			return leaks[i].set.Pos() < leaks[j].set.Pos()
		}
		return leaks[i].ret < leaks[j].ret
	})
	for _, l := range leaks {
		if l.ret == token.NoPos {
			pass.Reportf(l.set.Pos(), "SetClassHint is not paired with a defer ClearClassHint or a clear on all return paths in this function")
		} else {
			pass.Reportf(l.set.Pos(), "SetClassHint may leak: return at line %d is not preceded by ClearClassHint",
				pass.Fset.Position(l.ret).Line)
		}
	}
}

// transfer applies one node's hint effect: a SetClassHint statement
// adds its site, a ClearClassHint statement clears every live hint
// (the hint is a single worker-global slot, so any clear covers any
// set). Deferred calls have no flow effect — they run at exit and are
// handled by the deferred-restore check.
func transfer(n ast.Node, st hints) hints {
	s, ok := n.(*ast.ExprStmt)
	if !ok {
		return st
	}
	call, ok := s.X.(*ast.CallExpr)
	if !ok {
		return st
	}
	_, name, ok := analysis.MethodCall(call)
	if !ok {
		return st
	}
	switch name {
	case "SetClassHint":
		st = cloneHints(st)
		st[call.Pos()] = call
	case "ClearClassHint":
		st = hints{}
	}
	return st
}

func cloneHints(st hints) hints {
	out := make(hints, len(st))
	for p, c := range st {
		out[p] = c
	}
	return out
}

// sortedHints returns the live set calls in source order, for
// deterministic reports.
func sortedHints(st hints) []*ast.CallExpr {
	out := make([]*ast.CallExpr, 0, len(st))
	for _, c := range st {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

// blockEdgesTo reports whether b has an edge to target.
func blockEdgesTo(b, target *cfg.Block) bool {
	for _, s := range b.Succs {
		if s == target {
			return true
		}
	}
	return false
}
