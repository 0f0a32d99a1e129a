// Command perfbench is the repository's end-to-end benchmark. It drives the
// solver only through its public packages (cnf, hyqsat, qpu, anneal, sat,
// verify, and serve over HTTP), certifies every verdict, and counts every
// failure.
//
// Run it from the repository root; perfbench/run.sh builds it from source
// first:
//
//	bash perfbench/run.sh --workload hybrid-hw --seed 1 --seconds 20 --trace 0
//
// Workloads: hybrid-hw, hybrid-sim, classical, serve (see README.md). With
// --trace 0 the run reports the end-to-end metrics of an untraced timed
// loop; with --trace 1 it reports the per-layer ledger of a traced loop. The
// last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics; the lines before it are a readable table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"hyqsat/internal/hyqsat"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "hybrid-hw, hybrid-sim, classical or serve")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 20, "length of the timed loop in seconds")
	trace := flag.Int("trace", 0, "1 reports the per-layer ledger of a traced run")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	res, t, err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if t.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failure:", t.firstErr)
	}
	printTable(res, t)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func run(workload string, seed int64, dur time.Duration, traced bool) (result, *tally, error) {
	switch workload {
	case "hybrid-hw":
		return runBatch(hybridWorkload(hyqsat.HardwareOptions()), seed, dur, traced)
	case "hybrid-sim":
		return runBatch(hybridWorkload(hyqsat.SimulatorOptions()), seed, dur, traced)
	case "classical":
		return runBatch(batchWorkload{corpus: classicalCorpus, verdict: classicalVerdict}, seed, dur, traced)
	case "serve":
		return runServe(seed, dur, traced)
	}
	return result{}, nil, fmt.Errorf("unknown workload %q", workload)
}

func printTable(res result, t *tally) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("%-32s %14.6g %s\n", "failed_frac", t.failedFrac(), "ratio")
	fmt.Printf("%-32s %14d / %d\n", "failed / attempted", t.failed, t.attempted)
}

// setupRuns is how many times a run sets up; setup_s is their median.
const setupRuns = 5

// setUp builds the workload state setupRuns times, releases all but the
// last, and returns the last with the median set-up time in seconds.
func setUp[T any](build func() (T, error), release func(T)) (T, float64, error) {
	var state T
	times := make([]float64, 0, setupRuns)
	for i := 0; i < setupRuns; i++ {
		if i > 0 {
			release(state)
		}
		start := time.Now()
		s, err := build()
		if err != nil {
			return state, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		state = s
	}
	return state, quantile(times, 0.5), nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks. +Inf entries (failed operations) sort last.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if math.IsInf(s[hi], 1) {
		return math.Inf(1)
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// failedLatency is the latency a failed or refused operation contributes to
// the percentiles: it misses any limit.
var failedLatency = math.Inf(1)

// finite keeps a metric encodable: a percentile that lands on a failed
// operation reads as the largest float.
func finite(x float64) float64 {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return math.MaxFloat64
	}
	return x
}

// resources is a reading of the process's resource counters.
type resources struct {
	cpu   time.Duration // user + system CPU time
	alloc uint64        // bytes allocated on the heap so far
	rssMB float64       // peak resident set
}

func readResources() resources {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r := resources{alloc: ms.TotalAlloc}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		r.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		r.rssMB = float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
	}
	return r
}

// endToEnd computes the end-to-end metrics of an untraced timed loop that
// ran from r0 to r1. latMs holds one latency per attempted operation,
// failedLatency for failures.
func endToEnd(t *tally, latMs []float64, wall time.Duration, r0, r1 resources, setupS float64) map[string]metric {
	verdicts := float64(t.attempted - t.failed)
	return map[string]metric{
		"verdicts_per_s":       {verdicts / wall.Seconds(), "1/s"},
		"latency_p50_ms":       {finite(quantile(latMs, 0.5)), "ms"},
		"cpu_s_per_verdict":    {finite((r1.cpu - r0.cpu).Seconds() / verdicts), "s"},
		"alloc_mb_per_verdict": {finite(float64(r1.alloc-r0.alloc) / (1 << 20) / verdicts), "MB"},
		"rss_peak_mb":          {r1.rssMB, "MB"},
		"setup_s":              {setupS, "s"},
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
