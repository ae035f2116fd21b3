package analysis

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"
)

// Timercheck reports an AfterFunc call whose timer is thrown away. A
// pending timer keeps its callback, and everything the callback reaches,
// alive until it fires, and nothing can stop a timer nobody kept: a
// component that arms one per request leaks for the timer's whole
// duration and stays reachable after it shuts down. Any function or
// method named AfterFunc whose single result has a Stop() bool method
// (clock.Timer, *time.Timer) is covered.
var Timercheck = &analysis.Analyzer{
	Name: "timercheck",
	Doc: "forbid discarding the timer returned by AfterFunc outside tests; keep it and Stop it when its owner " +
		"re-arms or shuts down, or annotate //openwf:allow-timer <reason>",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      runTimercheck,
}

func runTimercheck(pass *analysis.Pass) (interface{}, error) {
	dirs := parseDirectives(pass, AllowTimer)
	check := func(expr ast.Expr) {
		call, ok := ast.Unparen(expr).(*ast.CallExpr)
		if !ok || !returnsTimer(pass, call) {
			return
		}
		if isTestFile(pass, call.Pos()) || dirs.allows(pass, call.Pos(), AllowTimer) {
			return
		}
		pass.Reportf(call.Pos(),
			"timer returned by AfterFunc is discarded: keep it and Stop it when its owner re-arms or shuts down "+
				"(or annotate //openwf:allow-timer <reason>)")
	}
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)
	nodes := []ast.Node{(*ast.ExprStmt)(nil), (*ast.AssignStmt)(nil), (*ast.GoStmt)(nil), (*ast.DeferStmt)(nil)}
	ins.Preorder(nodes, func(n ast.Node) {
		switch n := n.(type) {
		case *ast.ExprStmt:
			check(n.X)
		case *ast.GoStmt:
			check(n.Call)
		case *ast.DeferStmt:
			check(n.Call)
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return
			}
			for i, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
					check(n.Rhs[i])
				}
			}
		}
	})
	return nil, nil
}

// returnsTimer reports whether call invokes a function or method named
// AfterFunc whose only result is a stoppable timer.
func returnsTimer(pass *analysis.Pass, call *ast.CallExpr) bool {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return false
	}
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok || fn.Name() != "AfterFunc" {
		return false
	}
	results := fn.Signature().Results()
	if results.Len() != 1 {
		return false
	}
	stop, _, _ := types.LookupFieldOrMethod(results.At(0).Type(), true, nil, "Stop")
	m, ok := stop.(*types.Func)
	if !ok {
		return false
	}
	sig := m.Signature()
	return sig.Params().Len() == 0 && sig.Results().Len() == 1 &&
		types.Identical(sig.Results().At(0).Type(), types.Typ[types.Bool])
}
