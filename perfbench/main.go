// Command perfbench is Brainy's benchmark. Each run exercises both
// pipelines on one seeded workload: the offline one (brainy-train, timed as
// a whole) and the online one (brainy-serve driven over HTTP by an
// open-loop generator at a fixed rate, then up a goodput ladder). Every
// answer is checked; the last line of standard output is one JSON result.
//
// Usage (from the repository root, after building the binaries into
// .bench_build/bin; run.sh does both):
//
//	perfbench --workload advise-hot --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// reports the per-layer metrics of a traced run instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/training"
)

// setupLaunches is how many times an untraced run starts brainy-serve, with
// setupGap of idle time before each launch; setup_s is the median
// launch-to-ready time. Every launch starts from an idle machine, as a
// deployment does. Launched back to back, the server started warm and fast
// in stretches of several launches, and the median of a run depended on
// which stretch it caught.
const (
	setupLaunches = 20
	setupGap      = 100 * time.Millisecond
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload name from spec.json")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 30, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	)
	flag.Parse()
	// The generator's own collections would stall sends and read as server
	// latency; collect less often. Child processes keep their defaults.
	debug.SetGCPercent(400)
	res, err := bench(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one reported number. A nil value is a series the server no
// longer exposes: absent, which is neither zero nor an error.
type metric struct {
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: &v, Unit: unit}
}

// setOpt records a value that may be absent.
func (r *result) setOpt(name string, v float64, ok bool, unit string) {
	if !ok {
		r.Metrics[name] = metric{Unit: unit}
		return
	}
	r.set(name, v, unit)
}

// Everything a run builds or writes stays under .bench_build in the
// directory it runs from, the repository root.
const (
	binDir   = ".bench_build/bin"
	workRoot = ".bench_build/work"
	traceDir = ".bench_build/traces"
)

func bench(name string, seed int64, seconds time.Duration, traced bool) (*result, error) {
	spec, err := loadSpec()
	if err != nil {
		return nil, err
	}
	w, ok := spec.Workloads[name]
	if !ok {
		names := make([]string, 0, len(spec.Workloads))
		for n := range spec.Workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
	}
	for _, b := range []string{"brainy-train", "brainy-serve"} {
		if _, err := os.Stat(filepath.Join(binDir, b)); err != nil {
			return nil, fmt.Errorf("missing %s: build it first (run.sh does)", b)
		}
	}
	work := filepath.Join(workRoot, fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	var mem *telemetry.MemoryExporter
	var tracer *telemetry.Tracer
	if traced {
		mem = &telemetry.MemoryExporter{}
		tracer = telemetry.NewTracer(mem)
	}

	// Offline pipeline: the whole brainy-train run, with no traffic
	// running. An untraced run trains three times — now, after the fixed-rate
	// phase and after the ladder — and reports the median wall time, so one
	// slow stretch of a shared host does not decide train_s.
	tr, err := runTrain(binDir, filepath.Join(work, "train0"), spec.Train)
	if err != nil {
		return nil, err
	}
	in, err := newInputs(seed, w, tracer)
	if err != nil {
		return nil, err
	}
	set, err := loadRegistry(tr.models)
	if err != nil {
		return nil, err
	}
	brainy := core.New(set)
	chk := newChecker(in, brainy)

	// Online pipeline: launch the server several times for set-up time
	// (once in the traced run, which does not report it), keep the last one
	// for traffic.
	launches := setupLaunches
	if traced {
		launches = 1
	}
	var setups []float64
	var srv *server
	for i := 0; i < launches; i++ {
		time.Sleep(setupGap)
		s, d, err := launchServer(filepath.Join(binDir, "brainy-serve"), tr.models, spec.Train.Models)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if i < launches-1 {
			if err := s.stop(); err != nil {
				return nil, fmt.Errorf("stopping brainy-serve: %w", err)
			}
			continue
		}
		srv = s
	}
	defer srv.stop()

	conns := runtime.NumCPU()
	gen := newGenerator(srv.base, conns)
	defer gen.close()
	b := &runState{
		in: in, gen: gen, chk: chk, srv: srv, w: w, conns: conns,
		set: set, brainy: brainy, tracer: tracer, mem: mem, train: tr, setups: setups,
	}

	// Warm-up: every pooled key once, then one second at the fixed rate.
	if err := b.warm(); err != nil {
		return nil, err
	}

	res := &result{Metrics: map[string]metric{}}
	if traced {
		err = b.layerMetrics(res, seconds)
		if err == nil {
			err = writeSpans(name, seed, mem.Spans())
		}
	} else {
		err = b.endToEnd(res, seconds, func(i int) (trainRun, error) {
			return runTrain(binDir, filepath.Join(work, fmt.Sprintf("train%d", i)), spec.Train)
		})
	}
	if err != nil {
		return nil, err
	}

	// Every answer is checked after the traffic, then the fleet rollup
	// must reconcile with everything sent.
	chk.verify()
	roll, err := srv.get("/v1/rollup")
	if err != nil {
		return nil, err
	}
	chk.reconcile(roll)
	if chk.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failure:", chk.firstErr)
	}
	res.Attempted, res.Failed = chk.attempted, chk.failed
	res.Correct = chk.failed == 0
	if !traced {
		res.set("success_ratio", 1-float64(chk.failed)/float64(chk.attempted), "ratio")
	}
	if err := srv.stop(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: brainy-serve exit:", err)
	}
	return res, nil
}

func loadRegistry(path string) (*training.ModelSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return training.LoadModelSet(f)
}

// writeSpans writes the traced run's spans, held in memory until now, as
// JSON lines.
func writeSpans(name string, seed int64, spans []telemetry.SpanData) error {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", name, seed)))
	if err != nil {
		return err
	}
	exp := telemetry.NewJSONLinesExporter(f)
	for _, s := range spans {
		exp.ExportSpan(s)
	}
	return exp.Close()
}

// endToEnd measures the fixed-rate phase, then trains twice more: train_s
// is the median of three runs.
func (b *runState) endToEnd(res *result, seconds time.Duration, retrain func(i int) (trainRun, error)) error {
	fr, err := b.fixedPhase(b.w.RateRPS, seconds)
	if err != nil {
		return err
	}
	rss, err := b.srv.peakRSSMB()
	if err != nil {
		return err
	}
	walls := []float64{b.train.wall.Seconds()}
	for i := 1; i <= 2; i++ {
		t, err := retrain(i)
		if err != nil {
			return err
		}
		walls = append(walls, t.wall.Seconds())
	}
	fixed := fr.stats
	res.set("advise_p50_ms", median(fixed.advise), "ms")
	res.set("ingest_p50_ms", median(fixed.ingest), "ms")
	res.set("peak_rss_mb", rss, "MB")
	res.set("setup_s", median(b.setups), "s")
	res.set("train_s", median(walls), "s")
	res.set("validation_accuracy", b.train.report.validationAccuracy(), "ratio")
	fmt.Fprintf(os.Stderr, "perfbench: %.0f rps for %s: %d advise (p99 %.3f ms), %d ingest (p99 %.3f ms); generator lateness p50 %.3f ms, p99 %.3f ms; host steal %.0f%% of busy; server CPU %.0f µs/request\n",
		b.w.RateRPS, seconds, len(fixed.advise), fixed.p99(fixed.advise), len(fixed.ingest), fixed.p99(fixed.ingest),
		percentile(fixed.lateness, 0.5), percentile(fixed.lateness, 0.99), 100*fixed.steal, us(fr.serverCPU)/float64(fr.served))
	return nil
}

// layerMetrics is the traced run: an untraced and a traced quarter of
// seconds at the fixed rate, the goodput ladder in the other half, then the
// in-process ledger over the untraced quarter's requests.
func (b *runState) layerMetrics(res *result, seconds time.Duration) error {
	before, _ := b.srv.scrape()
	fr, err := b.fixedPhase(b.w.RateRPS, seconds/4)
	if err != nil {
		return err
	}
	after, _ := b.srv.scrape()
	fixed := fr.stats
	b.gen.tracer = b.tracer
	_, tracedPhase, err := b.phase(b.w.RateRPS, seconds/4)
	b.gen.tracer = nil
	if err != nil {
		return err
	}
	goodput, err := b.ladder(seconds / 2)
	if err != nil {
		return err
	}
	l := &ledger{tracer: b.tracer, set: b.set, brainy: b.brainy}
	if err := l.run(b.in, b.warmReqs, fr.reqs); err != nil {
		return err
	}
	self := selfTimes(b.mem.Spans())
	res.set("profile.decode_records_us", median(self["profile.decode_records"]), "us")
	res.set("profile.decode_windows_us", median(self["profile.decode_windows"]), "us")
	res.set("profile.vector_us", median(self["profile.vector"]), "us")
	handlerAdvise := median(self["serve.handler_advise"])
	res.set("serve.handler_advise_us", handlerAdvise, "us")
	res.set("serve.handler_ingest_us", median(self["serve.handler_ingest"]), "us")
	res.set("serve.allocs_per_advise", l.allocsPerAdvise, "count")
	res.set("serve.allocs_per_ingest", l.allocsPerIngest, "count")
	res.set("serve.wire_advise_us", 1000*median(fixed.advise)-handlerAdvise, "us")
	res.set("serve.cpu_us_per_request", us(fr.serverCPU)/float64(fr.served), "us")
	hits, okH := delta(before, after, "brainy_cache_hits_total")
	misses, okM := delta(before, after, "brainy_cache_misses_total")
	res.setOpt("serve.cache_hit_ratio", hits/(hits+misses), okH && okM && hits+misses > 0, "ratio")
	bsum, okS := delta(before, after, "brainy_batch_size_sum")
	bcount, okC := delta(before, after, "brainy_batch_size_count")
	// No flush at all (every lookup hit the cache) is a mean of zero.
	res.setOpt("serve.batch_size_mean", bsum/max(bcount, 1), okS && okC, "count")
	failedReqs, okF := sumDelta(before, after, "brainy_requests_total", func(k string) bool { return !strings.Contains(k, `code="2`) })
	res.setOpt("serve.requests_failed", failedReqs, okF, "count")
	res.set("core.suggest_us", median(self["core.suggest"]), "us")
	res.set("core.analyze_us", median(self["core.analyze"]), "us")
	res.set("ann.probabilities_us", median(self["ann.probabilities"]), "us")
	res.set("ann.train_s", l.annTrain.Seconds(), "s")
	res.set("drift.observe_us", median(self["drift.observe"]), "us")
	res.set("drift.events", float64(l.driftEvents), "count")
	res.set("drift.skipped", float64(l.driftSkipped), "count")
	rep := &b.train.report
	res.set("training.phase1_s", rep.StageSeconds["phase1"], "s")
	res.set("training.phase2_s", rep.StageSeconds["phase2"], "s")
	res.set("training.fit_s", rep.StageSeconds["fit"], "s")
	res.set("training.validate_s", rep.StageSeconds["validate"], "s")
	res.set("training.oracle_ms_per_app", 1000*rep.StageSeconds["phase1"]/float64(rep.SeedsScanned), "ms")
	res.set("training.seeds_scanned", float64(rep.SeedsScanned), "count")
	res.set("training.decisive_ratio", float64(rep.LabelsFound)/float64(rep.SeedsScanned), "ratio")
	res.set("appgen.generate_us", median(self["appgen.generate"]), "us")
	res.set("machine.events", rep.SimulatedEvents, "count")
	res.set("machine.events_per_s", rep.EventsPerSec, "1/s")
	res.set("client.goodput_rps", goodput, "1/s")
	res.set("client.advise_p99_ms", fixed.p99(fixed.advise), "ms")
	res.set("client.ingest_p99_ms", fixed.p99(fixed.ingest), "ms")
	res.set("gen.lateness_p99_ms", percentile(tracedPhase.lateness, 0.99), "ms")
	res.set("gen.sent", float64(tracedPhase.sent), "count")
	res.set("trace.overhead_ms", median(tracedPhase.advise)-median(fixed.advise), "ms")
	res.set("trace.spans", float64(len(b.mem.Spans())), "count")
	return nil
}
