package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/training"
)

// runState is one run after set-up: the server under test, the registry
// it loaded, and the inputs, generator and checker every phase shares.
type runState struct {
	in    *Inputs
	gen   *generator
	chk   *checker
	srv   *server
	w     WorkloadSpec
	conns int

	set    *training.ModelSet
	brainy *core.Brainy
	train  trainRun  // the run whose registry the server loaded
	setups []float64 // launch-to-ready seconds of every launch

	warmReqs []request // the warm-up, in the order it was sent

	// tracer and mem are set only for the traced run.
	tracer *telemetry.Tracer
	mem    *telemetry.MemoryExporter
}

// phase offers the next rate·d requests at rate, books them with the
// checker, and returns them with their summary.
func (b *runState) phase(rate float64, d time.Duration) ([]request, phaseStats, error) {
	reqs := b.in.next(int(math.Round(rate*d.Seconds())), b.conns)
	st, err := b.offer(reqs, rate)
	return reqs, st, err
}

// offer renders reqs, sends them at rate, books the answers with the
// checker and summarizes the phase.
func (b *runState) offer(reqs []request, rate float64) (phaseStats, error) {
	bodies, err := b.in.bodies(reqs)
	if err != nil {
		return phaseStats{}, err
	}
	busy0, steal0 := hostCPU()
	outs := b.gen.run(reqs, bodies, rate)
	busy1, steal1 := hostCPU()
	b.chk.observe(reqs, outs)
	st := summarize(reqs, outs)
	st.steal = (steal1 - steal0) / max(busy1-busy0, 1)
	return st, nil
}

// Fixed-rate measurement: the phase runs as calmSegments back-to-back
// segments, and latency and server CPU are reported over the calmSegmentsKept
// segments during which the hypervisor stole the least CPU, among those in
// which the generator kept to its schedule (phaseStats.onTime). Host steal on
// a shared machine swings from nothing to more than the guest's own busy
// time within minutes; a change to Brainy moves every segment, a noisy
// neighbour only some. Every segment's answers are checked.
const (
	calmSegments     = 10
	calmSegmentsKept = 5
)

// fixedResult is a fixed-rate phase: all its requests, and the pooled
// statistics and server CPU of its calmest segments.
type fixedResult struct {
	reqs      []request
	stats     phaseStats
	serverCPU time.Duration
	served    int // requests in the kept segments
}

// fixedPhase offers rate for d and reports its calmest segments.
func (b *runState) fixedPhase(rate float64, d time.Duration) (fixedResult, error) {
	type segment struct {
		st  phaseStats
		cpu time.Duration
	}
	var res fixedResult
	segs := make([]segment, calmSegments)
	for i := range segs {
		cpu0, err := b.srv.cpuTime()
		if err != nil {
			return res, err
		}
		reqs, st, err := b.phase(rate, d/calmSegments)
		if err != nil {
			return res, err
		}
		cpu1, err := b.srv.cpuTime()
		if err != nil {
			return res, err
		}
		res.reqs = append(res.reqs, reqs...)
		segs[i] = segment{st, cpu1 - cpu0}
		fmt.Fprintf(os.Stderr, "perfbench: segment %d: steal %.0f%%, lateness p50 %.3f ms p99 %.3f ms, advise p50 %.3f ms, ingest p50 %.3f ms, on time %v\n",
			i, 100*st.steal, percentile(st.lateness, 0.5), percentile(st.lateness, 0.99), median(st.advise), median(st.ingest), st.onTime())
	}
	// Segments in which the generator ran late sort last; if one is still
	// among the kept, the run's latency is void.
	sort.SliceStable(segs, func(i, j int) bool {
		if a, b := segs[i].st.onTime(), segs[j].st.onTime(); a != b {
			return a
		}
		return segs[i].st.steal < segs[j].st.steal
	})
	if late := segs[calmSegmentsKept-1].st; !late.onTime() {
		return res, fmt.Errorf("generator ran late in more than %d of %d segments (last kept: lateness p50 %.3f ms against advise p50 %.3f ms, p99 %.3f ms; limits %g× and %g ms): this run's latency is void",
			calmSegments-calmSegmentsKept, calmSegments, percentile(late.lateness, 0.5), median(late.advise),
			percentile(late.lateness, 0.99), maxLatenessShare, float64(maxLatenessP99MS))
	}
	for _, sg := range segs[:calmSegmentsKept] {
		res.stats = res.stats.merge(sg.st)
		res.serverCPU += sg.cpu
		res.served += sg.st.sent
	}
	res.stats.steal /= calmSegmentsKept
	return res, nil
}

// warm touches every pooled advise key once (so a hot workload starts with
// a full cache) and then offers one second at the fixed rate. It keeps the
// requests, so the traced run can warm its in-process replay the same way.
func (b *runState) warm() error {
	var reqs []request
	for k := 0; len(b.in.pool) > 0 && k < b.w.Keys; k += maxRecords {
		r := request{trace: -1, conn: len(reqs) % b.conns}
		for j := k; j < k+maxRecords && j < b.w.Keys; j++ {
			r.keys = append(r.keys, int32(j))
		}
		reqs = append(reqs, r)
	}
	if len(reqs) > 0 {
		if _, err := b.offer(reqs, 2000); err != nil {
			return err
		}
	}
	more, _, err := b.phase(b.w.RateRPS, time.Second)
	b.warmReqs = append(reqs, more...)
	return err
}

// limitP99MS is the advise p99 a goodput ladder rung must meet, about ten
// times the seed p99 of either workload at its fixed rate, so the ladder
// finds the queueing knee rather than scheduler hiccups.
const limitP99MS = 50

// ladderStep is the ratio between consecutive goodput ladder rungs, finer
// than goodput_rps's bound.
const ladderStep = 1.05

// rung is the offered rate of ladder rung i: rate·ladderStep^i.
func (b *runState) rung(i int) float64 { return b.w.RateRPS * math.Pow(ladderStep, float64(i)) }

// Ladder search constants: from the workload's first rung the search moves
// in strides of coarseRungs until it brackets the limit, then bisects.
const (
	coarseRungs = 2
	minRung     = -40
	probePause  = 250 * time.Millisecond
)

// maxSteal is the share of the machine's busy CPU time the hypervisor may
// steal during a ladder probe for a failure of that probe to count.
const maxSteal = 0.25

// probe offers one ladder rung and reports whether it meets the limit. A
// rung fails only when two probes at it fail with the host calm, so one
// stall or noisy neighbour cannot end the climb; it gets at most four
// probes.
func (b *runState) probe(i int, d time.Duration) (bool, error) {
	fails := 0
	for attempt := 0; attempt < 4 && fails < 2; attempt++ {
		time.Sleep(probePause)
		_, st, err := b.phase(b.rung(i), d)
		if err != nil {
			return false, err
		}
		pass := st.meets(limitP99MS)
		fmt.Fprintf(os.Stderr, "perfbench: rung %d: %.0f rps, advise p99 %.3f ms, drain %.3f ms, %d failed, steal %.0f%%, pass=%v\n",
			i, b.rung(i), st.ladderP99(), ms(st.drain), st.failed, 100*st.steal, pass)
		if pass {
			return true, nil
		}
		if st.steal <= maxSteal {
			fails++
		}
	}
	return false, nil
}

// ladder finds goodput: the highest rung at which the workload meets its
// advise p99 limit with no failures and no growing backlog. It climbs in
// strides of coarseRungs, or descends in doubling strides while nothing has
// passed yet, then bisects the bracket. Once budget is spent it reports
// the highest passing rung, a lower bound; until some rung passes it keeps
// descending, as a run must report a goodput.
func (b *runState) ladder(budget time.Duration) (float64, error) {
	probe := time.Duration(b.w.ProbeSeconds * float64(time.Second))
	lo, hi := math.MinInt, math.MaxInt // highest pass, lowest fail
	deadline := time.Now().Add(budget)
	i, down := b.w.FirstRung, coarseRungs
	for lo == math.MinInt || time.Until(deadline) >= probe {
		pass, err := b.probe(i, probe)
		if err != nil {
			return 0, err
		}
		if pass {
			lo = i
		} else {
			hi = i
		}
		switch {
		case hi == math.MaxInt:
			i = lo + coarseRungs
		case lo == math.MinInt:
			i, down = hi-down, 2*down
			if i < minRung {
				return 0, fmt.Errorf("no ladder rung down to %.1f rps meets p99 ≤ %g ms", b.rung(minRung), float64(limitP99MS))
			}
		case hi-lo <= 1:
			return b.rung(lo), nil
		default:
			i = (lo + hi) / 2
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: ladder budget spent; goodput is a lower bound (rung %d)\n", lo)
	return b.rung(lo), nil
}
