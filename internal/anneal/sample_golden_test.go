package anneal_test

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strings"
	"testing"

	"hyqsat/internal/anneal"
	"hyqsat/internal/bench"
	"hyqsat/internal/obs"
)

// goldenAccess is the recorded outcome of one Sample(ep, reads) call.
type goldenAccess struct {
	reads    int
	best     int
	energies []float64
	broken   []int
	nodes    []uint64 // nodeValuesHash of each read's unembedded values
}

// sampleGolden was recorded with the solo read fan-out that Sample ran before
// it became a one-member SampleBatch: for each read count, a fresh sampler
// (DefaultSchedule, DWave2000QNoise, seed 11) makes three successive calls on
// bench.BuildSampleFixture(1, 30, 110).
var sampleGolden = []goldenAccess{
	{reads: 1, best: 0, energies: []float64{-494.86128797673626}, broken: []int{7}, nodes: []uint64{0x2a15658bb49b5ef5}},
	{reads: 1, best: 0, energies: []float64{-483.78682987511144}, broken: []int{13}, nodes: []uint64{0xf1ebf89bcb8b634b}},
	{reads: 1, best: 0, energies: []float64{-492.07501280082533}, broken: []int{9}, nodes: []uint64{0x507b43e660e4214b}},
	{reads: 4, best: 0, energies: []float64{-494.86128797673626, -480.587506954135, -491.2669316436299, -493.0429339477783}, broken: []int{7, 14, 9, 8}, nodes: []uint64{0x2a15658bb49b5ef5, 0xab2b838fd481289a, 0x8a2b499860dc6939, 0x1f51722688680c04}},
	{reads: 4, best: 3, energies: []float64{-483.78682987511144, -484.69203094141517, -480.60870841440385, -490.6347789115661}, broken: []int{13, 12, 12, 8}, nodes: []uint64{0xf1ebf89bcb8b634b, 0x7515ed3e771796d1, 0x3ac18a4de9cdfcd9, 0x8e1234c3c1d59275}},
	{reads: 4, best: 0, energies: []float64{-492.07501280082533, -483.48738358773426, -492.05623245802246, -489.041734693883}, broken: []int{9, 11, 8, 8}, nodes: []uint64{0x507b43e660e4214b, 0xfe16cf907a6cf4da, 0x49cfd78f6e496e7a, 0x4445cffd4975bf15}},
}

// The fixture's embedding, as every recorded QACallEvent reports it.
const goldenChains, goldenMaxChainLen, goldenChainQubits = 124, 32, 1159

func nodeValuesHash(m map[int]bool) uint64 {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	h := fnv.New64a()
	for _, k := range keys {
		v := 0
		if m[k] {
			v = 1
		}
		fmt.Fprintf(h, "%d:%d;", k, v)
	}
	return h.Sum64()
}

type eventLog struct{ events []obs.Event }

func (l *eventLog) Enabled() bool    { return true }
func (l *eventLog) Emit(e obs.Event) { l.events = append(l.events, e) }

// TestSampleMatchesSoloGolden pins Sample, a one-member SampleBatch, to the
// recorded solo access: every read's energy, broken-chain count and
// unembedded values, the best-read pick, and the solo QACallEvent (no
// batch_size, DeviceNs = AccessTime(reads)).
func TestSampleMatchesSoloGolden(t *testing.T) {
	ep, err := bench.BuildSampleFixture(1, 30, 110)
	if err != nil {
		t.Fatal(err)
	}
	for _, reads := range []int{1, 4} {
		var log eventLog
		s := anneal.NewSampler(anneal.DefaultSchedule(), anneal.DWave2000QNoise, 11)
		s.Workers = 2
		s.Trace = &log
		s.Timing = anneal.DWave2000QTiming()
		var want []goldenAccess
		for _, g := range sampleGolden {
			if g.reads == reads {
				want = append(want, g)
			}
		}
		for call, g := range want {
			rs := s.Sample(ep, reads)
			if len(rs.Samples) != reads || rs.Best != g.best {
				t.Fatalf("reads=%d call %d: %d samples best %d, want %d best %d",
					reads, call, len(rs.Samples), rs.Best, reads, g.best)
			}
			for i, sm := range rs.Samples {
				if sm.HardwareEnergy != g.energies[i] || sm.BrokenChains != g.broken[i] ||
					nodeValuesHash(sm.NodeValues) != g.nodes[i] {
					t.Fatalf("reads=%d call %d read %d: energy %v broken %d nodes %#x, want %v %d %#x",
						reads, call, i, sm.HardwareEnergy, sm.BrokenChains, nodeValuesHash(sm.NodeValues),
						g.energies[i], g.broken[i], g.nodes[i])
				}
			}
		}
		if len(log.events) != len(want) {
			t.Fatalf("reads=%d: %d events, want %d", reads, len(log.events), len(want))
		}
		for call, ev := range log.events {
			qc, ok := ev.(obs.QACallEvent)
			if !ok {
				t.Fatalf("event %d is %T, want QACallEvent", call, ev)
			}
			g := want[call]
			if qc.Call != int64(call) || qc.Reads != reads || qc.Best != g.best {
				t.Fatalf("reads=%d event %d: call %d reads %d best %d", reads, call, qc.Call, qc.Reads, qc.Best)
			}
			if !slices.Equal(qc.Energies, g.energies) || !slices.Equal(qc.BrokenChains, g.broken) {
				t.Fatalf("reads=%d event %d: energies %v broken %v, want %v %v",
					reads, call, qc.Energies, qc.BrokenChains, g.energies, g.broken)
			}
			if qc.Chains != goldenChains || qc.MaxChainLen != goldenMaxChainLen || qc.ChainQubits != goldenChainQubits {
				t.Fatalf("reads=%d event %d: chains %d max %d qubits %d", reads, call, qc.Chains, qc.MaxChainLen, qc.ChainQubits)
			}
			if qc.BatchSize != 0 {
				t.Fatalf("reads=%d event %d: solo access has batch size %d", reads, call, qc.BatchSize)
			}
			if want := s.Timing.AccessTime(reads).Nanoseconds(); qc.DeviceNs != want {
				t.Fatalf("reads=%d event %d: device_ns %d, want AccessTime %d", reads, call, qc.DeviceNs, want)
			}
			b, err := json.Marshal(qc)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(string(b), "batch_size") {
				t.Fatalf("solo event JSON carries batch_size: %s", b)
			}
		}
	}
}
