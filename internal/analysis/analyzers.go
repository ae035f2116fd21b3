package analysis

import "golang.org/x/tools/go/analysis"

// Analyzers returns the full openwfvet suite in stable order.
// cmd/openwfvet hands this to unitchecker; tests exercise each member
// against its fixtures.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Clockcheck,
		Seedcheck,
		Ctxcheck,
		Protokind,
		Depcheck,
		Timercheck,
	}
}
