package hyqsat

import (
	"hash/fnv"
	"testing"
	"time"

	"hyqsat/internal/gen"
	"hyqsat/internal/sat"
)

// goldenRow pins the observable outcome of one seeded hybrid solve.
type goldenRow struct {
	instance  string
	mode      string
	status    sat.Status
	modelHash uint64 // FNV-1a over the model bits; 0 for non-Sat outcomes
	qaCalls   int
	conflicts int64
	qaDevice  time.Duration
}

// goldenInstances is the corpus behind TestGoldenSolves: small uf/uuf random
// 3-SAT plus one structured instance each from blocks-world planning and
// flat graph colouring (the latter two exercise the K-SAT → 3-CNF path and
// queues with heavily shared variables).
func goldenInstances() []*gen.Instance {
	return []*gen.Instance{
		gen.SatisfiableRandom3SAT(20, 91, 1),
		gen.SatisfiableRandom3SAT(30, 129, 2),
		gen.SatisfiableRandom3SAT(50, 218, 3),
		gen.SatisfiableRandom3SAT(50, 218, 4),
		gen.UnsatisfiableRandom3SAT(20, 91, 5),
		gen.UnsatisfiableRandom3SAT(30, 129, 6),
		gen.UnsatisfiableRandom3SAT(50, 218, 7),
		gen.UnsatisfiableRandom3SAT(50, 218, 8),
		gen.BlockPlanning(4, 3, 1),
		gen.FlatGraphColoring(20, 40, 1),
	}
}

func modelHash(model []bool) uint64 {
	if model == nil {
		return 0
	}
	h := fnv.New64a()
	b := make([]byte, len(model))
	for i, v := range model {
		if v {
			b[i] = 1
		}
	}
	h.Write(b)
	return h.Sum64()
}

func goldenSolve(t *testing.T, inst *gen.Instance, mode string) goldenRow {
	o := SimulatorOptions()
	if mode == "hw" {
		o = HardwareOptions()
	}
	o.Seed = 11
	o.SelfCertify = true
	r := New(inst.Formula.Copy(), o).Solve()
	if !r.Certified {
		t.Errorf("%s/%s: %v verdict not certified: %v", inst.Name, mode, r.Status, r.CertErr)
	}
	return goldenRow{
		instance:  inst.Name,
		mode:      mode,
		status:    r.Status,
		modelHash: modelHash(r.Model),
		qaCalls:   r.Stats.QACalls,
		conflicts: r.Stats.SAT.Conflicts,
		qaDevice:  r.Stats.QADevice,
	}
}

// goldenTable was recorded before the clause-template embedder and the
// shared embedding cache were removed, with templates disabled, so every
// embedding ran through the Fast path exactly as it does now. A mismatch is
// a behaviour change in the frontend, not a row to regenerate.
var goldenTable = []goldenRow{
	{"uf20-91/s1000003", "sim", sat.Sat, 0xd67df2e4a687750a, 5, 0, 655000},
	{"uf20-91/s1000003", "hw", sat.Sat, 0xd67df2e4a687750a, 8, 2, 1048000},
	{"uf30-129/s2000007", "sim", sat.Sat, 0x273c5d175e9a657, 8, 1, 1048000},
	{"uf30-129/s2000007", "hw", sat.Sat, 0xcdffe9540598b1b1, 13, 3, 1703000},
	{"uf50-218/s3000012", "sim", sat.Sat, 0x506bc4ed804c8331, 25, 6, 3275000},
	{"uf50-218/s3000012", "hw", sat.Sat, 0x2a0211f15d6ddff8, 36, 59, 4716000},
	{"uf50-218/s4000015", "sim", sat.Sat, 0xf51b93b1483696fd, 36, 17, 4716000},
	{"uf50-218/s4000015", "hw", sat.Sat, 0x8ba437e718ecf60a, 36, 31, 4716000},
	{"uuf20-91/s5000015", "sim", sat.Unsat, 0x0, 15, 23, 1965000},
	{"uuf20-91/s5000015", "hw", sat.Unsat, 0x0, 15, 9, 1965000},
	{"uuf30-129/s6000018", "sim", sat.Unsat, 0x0, 21, 16, 2751000},
	{"uuf30-129/s6000018", "hw", sat.Unsat, 0x0, 21, 28, 2751000},
	{"uuf50-218/s7000023", "sim", sat.Unsat, 0x0, 36, 76, 4716000},
	{"uuf50-218/s7000023", "hw", sat.Unsat, 0x0, 36, 81, 4716000},
	{"uuf50-218/s8000024", "sim", sat.Unsat, 0x0, 36, 87, 4716000},
	{"uuf50-218/s8000024", "hw", sat.Unsat, 0x0, 36, 62, 4716000},
	{"bw-4b-3h/s1", "sim", sat.Sat, 0xbed45aaa8ecbdef3, 23, 1, 3013000},
	{"bw-4b-3h/s1", "hw", sat.Sat, 0x6378b0ac14cc0389, 55, 1, 7205000},
	{"flat20-40/s1", "sim", sat.Sat, 0x722fe820fc677b4f, 2, 0, 262000},
	{"flat20-40/s1", "hw", sat.Sat, 0x5b5439d26baf8a8b, 12, 0, 1572000},
}

// TestGoldenSolves pins verdict, model, QA-call count, CDCL conflicts and
// modelled device time of seeded solves in both paper configurations.
func TestGoldenSolves(t *testing.T) {
	want := map[[2]string]goldenRow{}
	for _, row := range goldenTable {
		want[[2]string{row.instance, row.mode}] = row
	}
	for _, inst := range goldenInstances() {
		for _, mode := range []string{"sim", "hw"} {
			got := goldenSolve(t, inst, mode)
			w, ok := want[[2]string{inst.Name, mode}]
			if !ok {
				t.Errorf("no golden row for %s/%s; got %#v", inst.Name, mode, got)
				continue
			}
			if got != w {
				t.Errorf("%s/%s:\n got %#v\nwant %#v", inst.Name, mode, got, w)
			}
		}
	}
}
