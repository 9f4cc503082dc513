package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"testing"
	"time"

	"repro/internal/adt"
	"repro/internal/ann"
	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/training"
)

func workload(t *testing.T, name string) WorkloadSpec {
	t.Helper()
	s, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	w, ok := s.Workloads[name]
	if !ok {
		t.Fatalf("spec.json has no %s workload", name)
	}
	return w
}

// bodies renders the first n requests of a fresh input set.
func bodies(t *testing.T, seed int64, w WorkloadSpec, n int) [][]byte {
	t.Helper()
	in, err := newInputs(seed, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	reqs := in.next(n, 2)
	out := make([][]byte, len(reqs))
	for i := range reqs {
		if out[i], err = in.body(&reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, name := range []string{"advise-hot", "cold-ingest"} {
		w := workload(t, name)
		a, b := bodies(t, 7, w, 400), bodies(t, 7, w, 400)
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("%s: request %d differs between two builds from seed 7", name, i)
			}
		}
		c := bodies(t, 8, w, 400)
		same := 0
		for i := range a {
			if bytes.Equal(a[i], c[i]) {
				same++
			}
		}
		if same == len(a) {
			t.Fatalf("%s: seeds 7 and 8 produced identical inputs", name)
		}
	}
}

func TestColdKeysAreDistinctCacheEntries(t *testing.T) {
	w := workload(t, "cold-ingest")
	in, err := newInputs(1, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int32{}
	for k := int32(0); k < 4096; k++ {
		p := in.record(k)
		v, _ := json.Marshal(p.Vector())
		key := p.Kind.String() + string(v)
		if prev, dup := seen[key]; dup {
			t.Fatalf("keys %d and %d share a feature vector", prev, k)
		}
		seen[key] = k
	}
}

// untrainedRegistry is a registry with one randomly initialized network per
// Core2 target: enough for the server and core.Analyze to agree on.
func untrainedRegistry() *training.ModelSet {
	set := training.NewModelSet()
	for _, tgt := range adt.Targets() {
		cands := adt.CandidatesWithOriginal(tgt.Kind, tgt.OrderAware)
		set.Put(&training.Model{
			Target: tgt, Arch: arch, Candidates: cands,
			Net: ann.New(profile.NumFeatures, len(cands), ann.DefaultConfig()),
		})
	}
	return set
}

func post(t *testing.T, base, path string, body []byte) outcome {
	t.Helper()
	resp, err := http.Post(base+path, "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: %s: %s", path, resp.Status, b)
	}
	return outcome{body: b}
}

func TestCheckerAcceptsRealAnswersAndRejectsTampered(t *testing.T) {
	set := untrainedRegistry()
	srv := serve.New(set, serve.Config{NoRequestLog: true, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	w := workload(t, "advise-hot")
	in, err := newInputs(3, w, nil)
	if err != nil {
		t.Fatal(err)
	}
	reqs := in.next(2*(w.AdvisePerIngest+1), 1)
	outs := make([]outcome, len(reqs))
	for i := range reqs {
		body, err := in.body(&reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		path := "/v1/advise?arch=" + arch
		if reqs[i].ingest {
			path = "/v1/profiles?arch=" + arch
		}
		outs[i] = post(t, ts.URL, path, body)
	}

	chk := newChecker(in, core.New(set))
	chk.observe(reqs, outs)
	chk.verify()
	rr := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/v1/rollup", nil))
	chk.reconcile(rr.Body.Bytes())
	if chk.failed != 0 {
		t.Fatalf("genuine answers failed the check: %v", chk.firstErr)
	}

	// The same answer re-encoded compactly is the same value and passes.
	var adv int
	for i := range reqs {
		if !reqs[i].ingest {
			adv = i
			break
		}
	}
	var v any
	if err := json.Unmarshal(outs[adv].body, &v); err != nil {
		t.Fatal(err)
	}
	compact, _ := json.Marshal(v)
	chk = newChecker(in, core.New(set))
	chk.observe(reqs[adv:adv+1], []outcome{{body: compact}})
	chk.verify()
	if chk.failed != 0 {
		t.Fatalf("compact re-encoding of a genuine answer failed: %v", chk.firstErr)
	}

	// A changed verdict is a wrong answer.
	tampered := regexp.MustCompile(`"confidence": [0-9.e-]+`).ReplaceAll(outs[adv].body, []byte(`"confidence": 0.123`))
	if bytes.Equal(tampered, outs[adv].body) {
		t.Fatal("tampering did not change the body")
	}
	chk = newChecker(in, core.New(set))
	chk.observe(reqs[adv:adv+1], []outcome{{body: tampered}})
	chk.verify()
	if chk.failed != 1 {
		t.Fatalf("tampered advise answer: failed = %d, want 1", chk.failed)
	}

	// A rollup that disagrees with what was sent fails too.
	var rb map[string]any
	if err := json.Unmarshal(rr.Body.Bytes(), &rb); err != nil {
		t.Fatal(err)
	}
	rb["windows"] = rb["windows"].(float64) + 1
	bad, _ := json.Marshal(rb)
	chk = newChecker(in, core.New(set))
	chk.reconcile(bad)
	if chk.failed == 0 {
		t.Fatal("a rollup with an extra window passed reconciliation")
	}
}

func TestPercentileArithmetic(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[100-1-i] = float64(i + 1) // descending: percentile must sort a copy
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 99}, {1, 100}, {0, 1}, {0.991, 100}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile modified its input")
	}
	if got := median([]float64{3}); got != 3 {
		t.Errorf("median of one sample = %g", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples is not NaN")
	}
	// Five chunks of 100; one brief stall makes a single chunk slow. The
	// windowed p99 is the median chunk's, untouched by the stall, while
	// the plain p99 of the pooled samples lands inside it.
	ys := make([]float64, 500)
	for i := range ys {
		ys[i] = float64(i%100 + 1)
		if i >= 200 && i < 220 {
			ys[i] = 1000
		}
	}
	if got := windowedPercentile(ys, 0.99, 100); got != 99 {
		t.Errorf("windowed p99 = %g, want 99", got)
	}
	if got := percentile(ys, 0.99); got != 1000 {
		t.Errorf("pooled p99 = %g, want 1000", got)
	}
	if got := windowedPercentile(ys[:150], 0.99, 100); got != percentile(ys[:150], 0.99) {
		t.Errorf("fewer than two chunks: windowed %g, plain %g", got, percentile(ys[:150], 0.99))
	}
}

func TestLatenessArithmetic(t *testing.T) {
	due := time.Unix(100, 0)
	if got := lateness(due, due.Add(-time.Millisecond)); got != 0 {
		t.Errorf("early dispatch lateness = %v, want 0", got)
	}
	if got := lateness(due, due.Add(1500*time.Microsecond)); got != 1500*time.Microsecond {
		t.Errorf("lateness = %v, want 1.5ms", got)
	}
	o := outcome{due: due, dispatched: due.Add(time.Millisecond), done: due.Add(3 * time.Millisecond)}
	if got := ms(o.latency()); got != 3 {
		t.Errorf("latency from due = %g ms, want 3 (includes the generator's lateness)", got)
	}
	reqs := []request{{}, {ingest: true}, {}}
	outs := []outcome{
		{due: due, dispatched: due, done: due.Add(2 * time.Millisecond)},
		{due: due.Add(time.Millisecond), dispatched: due.Add(3 * time.Millisecond), done: due.Add(5 * time.Millisecond)},
		{due: due.Add(2 * time.Millisecond), dispatched: due.Add(2 * time.Millisecond), done: due.Add(9 * time.Millisecond)},
	}
	st := summarize(reqs, outs)
	if len(st.advise) != 2 || len(st.ingest) != 1 || st.advise[1] != 7 || st.ingest[0] != 4 {
		t.Errorf("advise %v ingest %v", st.advise, st.ingest)
	}
	if percentile(st.lateness, 1) != 2 || ms(st.drain) != 7 {
		t.Errorf("lateness %v drain %v", st.lateness, st.drain)
	}
	if st.meets(6) || !st.meets(7) {
		t.Error("meets ignores the backlog drain or the advise p99")
	}

	// A segment is on time while the median lateness stays within a tenth
	// of the advise median and the lateness p99 within maxLatenessP99MS.
	seg := phaseStats{advise: make([]float64, 100), lateness: make([]float64, 100)}
	for i := range seg.advise {
		seg.advise[i], seg.lateness[i] = 1, 0.1
	}
	if !seg.onTime() {
		t.Error("lateness p50 of a tenth of the advise p50 voided the segment")
	}
	seg.lateness[0], seg.lateness[1] = 2*maxLatenessP99MS, 2*maxLatenessP99MS
	if seg.onTime() {
		t.Errorf("lateness p99 %g ms over the %g ms limit kept the segment", percentile(seg.lateness, 0.99), float64(maxLatenessP99MS))
	}
	for i := range seg.lateness[:51] {
		seg.lateness[i] = 0.11
	}
	if seg.onTime() {
		t.Error("median lateness over a tenth of the advise p50 kept the segment")
	}
}

func TestSelfTime(t *testing.T) {
	// covered merges overlapping children and clips them to the parent.
	span := func(a, b int64) telemetry.SpanData { return telemetry.SpanData{Start: a, End: b} }
	p := span(0, 100)
	kids := []telemetry.SpanData{span(10, 30), span(20, 40), span(90, 120), span(60, 70)}
	if got := covered(p, kids); got != 50 {
		t.Errorf("covered = %d, want 50", got)
	}
}
