package hyqsat

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"hyqsat/internal/gen"
	"hyqsat/internal/obs"
	"hyqsat/internal/topo"
)

// eventLog is a test tracer that keeps embed and degrade events.
type eventLog struct {
	mu       sync.Mutex
	embeds   []obs.EmbedEvent
	degrades []obs.DegradeEvent
}

func (l *eventLog) Enabled() bool { return true }

func (l *eventLog) Emit(e obs.Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch ev := e.(type) {
	case obs.EmbedEvent:
		l.embeds = append(l.embeds, ev)
	case obs.DegradeEvent:
		l.degrades = append(l.degrades, ev)
	}
}

// TestSolverEmbedPathAccounting pins the embedding bookkeeping: every
// frontend pass is one memo lookup, traced as one EmbedEvent, and the
// events' CacheHit flags agree with the hit and miss counters.
func TestSolverEmbedPathAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := random3SAT(rng, 40, 170)
	o := simOpts(3)
	o.WarmupIterations = 150
	log := &eventLog{}
	o.Trace = log
	r := New(f, o).Solve()
	st := r.Stats
	if st.EmbedCacheMisses == 0 {
		t.Fatal("solve ran no embeddings")
	}
	if got := st.EmbedCacheHits + st.EmbedCacheMisses; got != len(log.embeds) {
		t.Fatalf("hits(%d) + misses(%d) = %d, want %d embed events",
			st.EmbedCacheHits, st.EmbedCacheMisses, got, len(log.embeds))
	}
	hits := 0
	for _, ev := range log.embeds {
		if ev.CacheHit {
			hits++
		}
	}
	if hits != st.EmbedCacheHits {
		t.Fatalf("%d events flagged CacheHit, counter says %d", hits, st.EmbedCacheHits)
	}
	if st.QACalls > len(log.embeds) {
		t.Fatalf("%d QA calls from %d frontend passes", st.QACalls, len(log.embeds))
	}
}

// TestSolverBrokenHardware covers a Chimera with broken qubits, which Fast
// cannot embed onto: the solve must refuse once and loudly and still return
// a certified verdict (see checkNoEmbedderDegrades).
func TestSolverBrokenHardware(t *testing.T) {
	broken := topo.DWave2000Q()
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 120; i++ {
		broken.MarkBroken(rng.Intn(broken.NumQubits()))
	}
	checkNoEmbedderDegrades(t, broken, "broken qubits")
}

// TestSolverPegasusDegrades covers a non-Chimera topology, which Fast cannot
// embed onto: the solve must refuse once and loudly and still return a
// certified verdict (see checkNoEmbedderDegrades).
func TestSolverPegasusDegrades(t *testing.T) {
	checkNoEmbedderDegrades(t, topo.AdvantagePegasus(), "pegasus")
}

// checkNoEmbedderDegrades solves a satisfiable and an unsatisfiable instance
// on hw and asserts one permanent degradation whose error names reason, no
// frontend work, no QA access, and a certified verdict.
func checkNoEmbedderDegrades(t *testing.T, hw topo.Topology, reason string) {
	t.Helper()
	for _, inst := range []*gen.Instance{
		gen.SatisfiableRandom3SAT(30, 125, 5),
		gen.UnsatisfiableRandom3SAT(20, 91, 6),
	} {
		o := simOpts(5)
		o.Hardware = hw
		o.WarmupIterations = 60
		o.SelfCertify = true
		log := &eventLog{}
		o.Trace = log
		r := New(inst.Formula.Copy(), o).Solve()
		st := r.Stats
		if r.Status != inst.Expected || !r.Certified {
			t.Fatalf("%s: status=%v (want %v) certified=%v (%v)",
				inst.Name, r.Status, inst.Expected, r.Certified, r.CertErr)
		}
		if st.QACalls != 0 || st.QADegraded != 1 || st.Frontend != 0 {
			t.Fatalf("%s: QACalls=%d QADegraded=%d Frontend=%v, want 0/1/0",
				inst.Name, st.QACalls, st.QADegraded, st.Frontend)
		}
		if st.EmbedCacheMisses != 0 || len(log.embeds) != 0 {
			t.Fatalf("%s: %d embeddings attempted", inst.Name, st.EmbedCacheMisses)
		}
		if len(log.degrades) != 1 || !strings.Contains(log.degrades[0].Err, reason) {
			t.Fatalf("%s: degrade events %+v, want one naming %q", inst.Name, log.degrades, reason)
		}
	}
}
