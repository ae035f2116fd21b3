package fragment_test

// An external test package: evalgen reaches this package through
// community and host, so an in-package import would be a cycle.

import (
	"math/rand"
	"testing"

	"openwf/internal/evalgen"
	"openwf/internal/fragment"
	"openwf/internal/model"
)

// BenchmarkFragmentConsuming answers one frontier query from one host's
// share of a 500-task evalgen knowledge base spread over 12 hosts — the
// plan-deep benchmark layout — with a 30-label frontier drawn from the
// whole knowledge base, so most labels miss this host.
func BenchmarkFragmentConsuming(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	sc, err := evalgen.Generate(500, rng)
	if err != nil {
		b.Fatal(err)
	}
	shares, err := sc.DistributeFragments(12, rng)
	if err != nil {
		b.Fatal(err)
	}
	m := fragment.NewManager()
	for _, f := range shares[0] {
		if err := m.Add(f); err != nil {
			b.Fatal(err)
		}
	}
	all, err := sc.Fragments()
	if err != nil {
		b.Fatal(err)
	}
	frontier := make([]model.LabelID, 0, 30)
	for _, i := range rng.Perm(len(all))[:30] {
		frontier = append(frontier, all[i].Tasks[0].Inputs[0])
	}
	if len(m.Consuming(frontier)) == 0 {
		b.Fatal("frontier misses this host entirely")
	}
	b.ReportAllocs()
	for b.Loop() {
		m.Consuming(frontier)
	}
}
