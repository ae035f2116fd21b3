// Command openwfvet is the project-invariant vet tool: a unitchecker
// binary bundling the internal/analysis suite (clockcheck, seedcheck,
// ctxcheck, protokind, depcheck, timercheck), driven by the go command:
//
//	go build -o bin/openwfvet ./cmd/openwfvet
//	go vet -vettool=$(pwd)/bin/openwfvet ./...
//
// Individual analyzers toggle like any vet flag, e.g.
// `-clockcheck=false`. See internal/analysis's package documentation
// and DESIGN.md §12 for the invariants each analyzer enforces and the
// directive escape hatches.
package main

import (
	"golang.org/x/tools/go/analysis/unitchecker"

	"openwf/internal/analysis"
)

func main() {
	unitchecker.Main(analysis.Analyzers()...)
}
