package main

import (
	"fmt"
	"time"

	"hyqsat/internal/hyqsat"
	"hyqsat/internal/topo"
)

// batchWorkload is a sequential workload: one verdict at a time over a
// generated corpus, cycled until the run's time is up.
type batchWorkload struct {
	corpus  func(seed int64) []*instance
	verdict verdictFunc
	// hybrid holds the hybrid solver's options; nil for the CDCL baseline.
	// It also enables the frontend replay of a traced run.
	hybrid *hyqsat.Options
}

func hybridWorkload(opts hyqsat.Options) batchWorkload {
	return batchWorkload{corpus: hybridCorpus, verdict: hybridVerdict(opts), hybrid: &opts}
}

// solverSeed is the solver seed of the i-th operation of a run.
func solverSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

func runBatch(w batchWorkload, seed int64, dur time.Duration, traced bool) (result, *tally, error) {
	corpus, setupS, err := setUp(func() ([]*instance, error) {
		c := w.corpus(seed)
		if _, err := w.verdict(warmupInstance(), warmupSeed, nil); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		return c, nil
	}, func([]*instance) {})
	if err != nil {
		return result{}, nil, err
	}
	t := &tally{}
	if !traced {
		var lat []float64
		r0 := readResources()
		start := time.Now()
		// Whole passes until dur has passed keep the measured mix the same
		// at every seed.
		for pass := 0; time.Since(start) < dur; pass++ {
			for k, inst := range corpus {
				d, err := w.verdict(inst, solverSeed(seed, pass*len(corpus)+k), nil)
				t.add(inst.name, err)
				if err != nil {
					lat = append(lat, failedLatency)
				} else {
					lat = append(lat, ms(d))
				}
			}
		}
		wall := time.Since(start)
		r1 := readResources()
		return t.result(endToEnd(t, lat, wall, r0, r1, setupS)), t, nil
	}

	// Traced run: every verdict runs twice with the same seed, untraced and
	// traced, alternating which goes first, until the traced ones fill half
	// of dur. The ratio of their walls is the tracing overhead.
	led := &ledger{}
	var plain, tracedWall time.Duration
	qaCalls := make([]int64, len(corpus))
	for i := 0; tracedWall < dur/2; i++ {
		k := i % len(corpus)
		inst, s := corpus[k], solverSeed(seed, i)
		for pass := 0; pass < 2; pass++ {
			if (pass+i)%2 == 0 {
				d, err := w.verdict(inst, s, nil)
				t.add(inst.name, err)
				plain += d
				continue
			}
			before := led.qaCalls
			d, err := w.verdict(inst, s, led)
			t.add(inst.name, err)
			tracedWall += d
			qaCalls[k] = led.qaCalls - before
		}
	}
	var rp replayStats
	if w.hybrid != nil {
		if err := replay(corpus, qaCalls, seed, *w.hybrid, dur/4, &rp); err != nil {
			return result{}, nil, err
		}
	}
	return t.result(layerMetrics(led, &rp, tracedWall.Seconds()/plain.Seconds()-1)), t, nil
}

// replay runs the frontend replay over the corpus for about budget: each
// instance gets as many passes as its traced solve made QA calls.
func replay(corpus []*instance, qaCalls []int64, seed int64, opts hyqsat.Options, budget time.Duration, rp *replayStats) error {
	g, ok := opts.Hardware.(*topo.Chimera)
	if !ok {
		return fmt.Errorf("replay: the Fast embedder needs Chimera hardware, have %T", opts.Hardware)
	}
	var total int64
	for _, n := range qaCalls {
		total += n
	}
	if total == 0 {
		return nil // no traced solve reached the QPU
	}
	deadline := time.Now().Add(budget)
	for k := 0; time.Now().Before(deadline); k = (k + 1) % len(corpus) {
		if qaCalls[k] == 0 {
			continue
		}
		if err := replayFrontend(corpus[k], int(qaCalls[k]), solverSeed(seed, k), opts, g, deadline, rp); err != nil {
			return err
		}
	}
	return nil
}

// layerMetrics computes the per-layer ledger of a traced run. Times are
// means per verdict (per job on serve) unless the name says otherwise;
// a layer the workload does not use reads 0.
func layerMetrics(l *ledger, rp *replayStats, overhead float64) map[string]metric {
	v := float64(l.verdicts)
	per := func(d time.Duration) float64 { return ratio(ms(d), v) }
	passes := float64(rp.passes)
	perPass := func(d time.Duration) float64 { return ratio(us(d), passes) }
	qa := float64(l.qaCalls)
	s := l.strategies
	b := l.service
	return map[string]metric{
		"cnf.parse_ms":                 {per(l.parse), "ms"},
		"cnf.to3cnf_ms":                {per(l.to3cnf), "ms"},
		"hyqsat.new_ms":                {per(l.newSolver), "ms"},
		"hyqsat.frontend_ms":           {per(l.frontend), "ms"},
		"hyqsat.backend_ms":            {per(l.backend), "ms"},
		"hyqsat.cdcl_ms":               {per(l.cdcl), "ms"},
		"hyqsat.warmup_iters":          {ratio(float64(l.warmup), v), "count"},
		"hyqsat.qa_calls":              {ratio(qa, v), "count"},
		"hyqsat.embed_cache_hit_ratio": {ratio(float64(l.cacheHits), float64(l.cacheHits+l.cacheMisses)), "ratio"},
		"hyqsat.queue_us":              {perPass(rp.queue), "us"},
		"qubo.encode_us":               {perPass(rp.encode), "us"},
		"embed.fast_us":                {perPass(rp.fast), "us"},
		"qubo.ising_us":                {perPass(rp.ising), "us"},
		"anneal.program_us":            {perPass(rp.program), "us"},
		"embed.embedded_ratio":         {ratio(float64(rp.embedded), float64(rp.queued)), "ratio"},
		"hyqsat.replay_coverage":       {ratio(perPass(rp.total()), ratio(us(l.frontend), qa)), "ratio"},
		"anneal.qa_host_ms":            {per(l.qaHost), "ms"},
		"anneal.qa_host_us_per_read":   {ratio(us(l.qaHost), float64(l.reads)), "us"},
		"anneal.chain_break_frac":      {ratio(float64(l.brokenChains), float64(l.chains)), "ratio"},
		"qpu.degraded_frac":            {ratio(float64(l.degraded), qa+float64(l.degraded)), "ratio"},
		"qpu.device_us_per_verdict":    {ratio(float64(l.deviceNs)/1e3, v), "us"},
		"gnb.guidance_ratio":           {ratio(float64(s[1]+s[2]+s[4]), qa), "ratio"},
		"gnb.uncertain_frac":           {ratio(float64(s[3]), qa), "ratio"},
		"sat.solve_ms":                 {per(l.satSolve), "ms"},
		"sat.conflicts":                {ratio(float64(l.conflicts), v), "count"},
		"sat.propagations_per_s":       {ratio(float64(l.propagations), (l.satSolve + l.cdcl).Seconds()), "1/s"},
		"verify.model_check_ms":        {ratio(ms(l.modelCheck), float64(l.satVerdicts)), "ms"},
		"verify.drat_check_ms":         {ratio(ms(l.dratCheck), float64(l.unsatVerdicts)), "ms"},
		"verify.proof_steps":           {ratio(float64(l.proofSteps), float64(l.unsatVerdicts)), "count"},
		"serve.submit_ms":              {per(l.submit), "ms"},
		"serve.queue_wait_ms":          {per(l.queueWait), "ms"},
		"serve.run_ms":                 {per(l.run), "ms"},
		"serve.respond_ms":             {per(l.respond), "ms"},
		"serve.job_p50_ms":             {finite(l.jobP50), "ms"},
		"serve.job_p99_ms":             {finite(l.jobP99), "ms"},
		"serve.rejected":               {float64(b.rejected), "count"},
		"qbatch.submit_ms":             {ratio(ms(l.batchSubmit), float64(l.batchCalls)), "ms"},
		"qbatch.members_per_program":   {ratio(float64(b.members), float64(b.programs)), "count"},
		"qbatch.solo_frac":             {ratio(float64(b.solo), float64(b.programs)), "ratio"},
		"qbatch.device_saved_frac":     {ratio(float64(b.savedNs), float64(b.deviceNs+b.savedNs)), "ratio"},
		"hyqsat.unattributed_ms":       {per(l.wall - l.attributed()), "ms"},
		"obs.trace_overhead_frac":      {overhead, "ratio"},
	}
}
