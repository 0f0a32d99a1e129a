package hyqsat

import (
	"testing"

	"hyqsat/internal/anneal"
	"hyqsat/internal/gen"
	"hyqsat/internal/topo"
)

// maxFrontendPassAllocs bounds one frontend pass on the uf150 queue below.
// The map-keyed encoder and sorting embedder this replaced made 36573
// allocations per pass; the table-driven gadgets, slice-indexed Fast state
// and qubit-indexed programming make 3378 (go1.24, linux/amd64). The bound
// is under a third of the former count with headroom over the current one;
// most of what remains is the per-sub-clause term maps.
const maxFrontendPassAllocs = 4000

// TestFrontendPassAllocs bounds the allocations of one full frontend pass
// (encode → Fast → restrict → adjust → normalise → EmbedIsing) on a fixed
// uf150 queue in the paper's hardware configuration.
func TestFrontendPassAllocs(t *testing.T) {
	o := HardwareOptions()
	g := o.Hardware.(*topo.Chimera)
	queue := frontendQueues(gen.SatisfiableRandom3SAT(150, 645, 2).Formula, o, 1, 11)[0]
	allocs := testing.AllocsPerRun(5, func() { frontendPass(queue, g, o) })
	if allocs > maxFrontendPassAllocs {
		t.Fatalf("frontend pass over %d clauses: %.0f allocs, want ≤ %d",
			len(queue), allocs, maxFrontendPassAllocs)
	}
}

// BenchmarkFrontendPass times one full frontend pass on the fixed uf150
// queue of TestFrontendPassAllocs.
func BenchmarkFrontendPass(b *testing.B) {
	o := HardwareOptions()
	g := o.Hardware.(*topo.Chimera)
	queue := frontendQueues(gen.SatisfiableRandom3SAT(150, 645, 2).Formula, o, 1, 11)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, benchEP = frontendPass(queue, g, o)
	}
}

var benchEP *anneal.EmbeddedProblem
