package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"time"

	"repro/internal/adt"
	"repro/internal/ann"
	"repro/internal/core"
	"repro/internal/drift"
	"repro/internal/profile"
	"repro/internal/serve"
	"repro/internal/telemetry"
	"repro/internal/training"
)

// ledger is the traced run's in-process half: it replays the bodies the
// generator sent through each layer's public functions, one span per call,
// every span of a request under that request's root span.
type ledger struct {
	tracer *telemetry.Tracer
	set    *training.ModelSet
	brainy *core.Brainy

	allocsPerAdvise, allocsPerIngest float64
	driftEvents, driftSkipped        int
	annTrain                         time.Duration
}

// maxLedgerRequests bounds the replay so the traced run stays short.
const maxLedgerRequests = 2000

// run replays up to maxLedgerRequests of reqs (bodies rendered by in). The
// handler replay is first warmed, untimed, with warm: the warm-up the real
// server got before reqs.
func (l *ledger) run(in *Inputs, warm, reqs []request) error {
	if len(reqs) > maxLedgerRequests {
		reqs = reqs[:maxLedgerRequests]
	}
	bodies := make([][]byte, len(reqs))
	roots := make([]context.Context, len(reqs))
	spans := make([]*telemetry.Span, len(reqs))
	for i := range reqs {
		b, err := in.body(&reqs[i])
		if err != nil {
			return err
		}
		bodies[i] = b
		roots[i], spans[i] = l.tracer.Start(context.Background(), "request")
		spans[i].SetInt("request", int64(i))
	}
	defer func() {
		for _, sp := range spans {
			sp.End()
		}
	}()

	det := drift.New(l.brainy.Suggest, drift.Config{})
	for i := range reqs {
		var err error
		if reqs[i].ingest {
			err = l.ingestLayers(roots[i], det, bodies[i])
		} else {
			err = l.adviseLayers(roots[i], bodies[i])
		}
		if err != nil {
			return err
		}
	}
	l.driftEvents = len(det.Events())

	// The handler replay is its own pass so its allocations can be counted
	// apart from the layer calls above: after the warm-up, all advise
	// bodies, then all ingest bodies, each in the order the real server got
	// them, so the in-process cache sees the workload's reuse.
	srv := serve.New(l.set, serve.Config{NoRequestLog: true, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	defer srv.Close()
	h := srv.Handler()
	if err := l.warm(h, in, warm); err != nil {
		return err
	}
	var err error
	if l.allocsPerAdvise, err = l.replay(h, reqs, bodies, roots, false); err != nil {
		return err
	}
	if l.allocsPerIngest, err = l.replay(h, reqs, bodies, roots, true); err != nil {
		return err
	}
	return l.fitANN(in)
}

func (l *ledger) adviseLayers(ctx context.Context, body []byte) error {
	var profiles []profile.Profile
	_, sp := l.tracer.Start(ctx, "profile.decode_records")
	err := profile.DecodeRecords(bytes.NewReader(body), func(p *profile.Profile) error {
		profiles = append(profiles, *p)
		return nil
	})
	sp.SetInt("items", int64(len(profiles)))
	sp.End()
	if err != nil {
		return err
	}
	for i := range profiles {
		p := &profiles[i]
		_, sp = l.tracer.Start(ctx, "profile.vector")
		v := p.Vector()
		sp.End()
		if m, ok := l.set.Get(p.Kind, p.OrderAware, arch); ok {
			_, sp = l.tracer.Start(ctx, "ann.probabilities")
			m.Net.Probabilities(v)
			sp.End()
		}
		_, sp = l.tracer.Start(ctx, "core.suggest")
		_, err := l.brainy.Suggest(p, arch)
		sp.End()
		if err != nil {
			return err
		}
	}
	_, sp = l.tracer.Start(ctx, "core.analyze")
	l.brainy.Analyze(profiles, arch)
	sp.End()
	return nil
}

func (l *ledger) ingestLayers(ctx context.Context, det *drift.Detector, body []byte) error {
	var wins []profile.WindowRecord
	_, sp := l.tracer.Start(ctx, "profile.decode_windows")
	err := profile.DecodeWindows(bytes.NewReader(body), func(w *profile.WindowRecord) error {
		wins = append(wins, *w)
		return nil
	})
	sp.SetInt("items", int64(len(wins)))
	sp.End()
	if err != nil {
		return err
	}
	for i := range wins {
		_, sp = l.tracer.Start(ctx, "drift.observe")
		_, err := det.Observe(&wins[i], arch)
		sp.End()
		if err != nil {
			l.driftSkipped++
		}
	}
	return nil
}

// warm sends reqs through the handler in order, untimed and unspanned, so
// the timed replay starts from the inference cache and instance timelines
// the real server had when it got the replayed requests.
func (l *ledger) warm(h http.Handler, in *Inputs, reqs []request) error {
	for i := range reqs {
		body, err := in.body(&reqs[i])
		if err != nil {
			return err
		}
		path := "/v1/advise?arch=" + arch
		if reqs[i].ingest {
			path = "/v1/profiles?arch=" + arch
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("in-process warm-up request %d: %d %s", i, rec.Code, truncate(rec.Body.Bytes()))
		}
	}
	return nil
}

// replay sends the advise (or ingest) bodies through the server's handler
// in process and returns the heap allocations per request, net of the
// tracer's own.
func (l *ledger) replay(h http.Handler, reqs []request, bodies [][]byte, roots []context.Context, ingest bool) (float64, error) {
	path, name := "/v1/advise?arch="+arch, "serve.handler_advise"
	if ingest {
		path, name = "/v1/profiles?arch="+arch, "serve.handler_ingest"
	}
	var idx []int
	var hreqs []*http.Request
	var recs []*httptest.ResponseRecorder
	for i := range reqs {
		if reqs[i].ingest != ingest {
			continue
		}
		idx = append(idx, i)
		hreqs = append(hreqs, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(bodies[i])))
		recs = append(recs, httptest.NewRecorder())
	}
	if len(idx) == 0 {
		return 0, fmt.Errorf("no %s requests to replay", name)
	}
	perSpan := spanAllocs(l.tracer, roots[idx[0]])
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for j, i := range idx {
		_, sp := l.tracer.Start(roots[i], name)
		h.ServeHTTP(recs[j], hreqs[j])
		sp.End()
	}
	runtime.ReadMemStats(&after)
	for j, rec := range recs {
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("in-process %s replay of request %d: %d %s", name, idx[j], rec.Code, truncate(rec.Body.Bytes()))
		}
	}
	allocs := float64(after.Mallocs-before.Mallocs)/float64(len(idx)) - perSpan
	return allocs, nil
}

// spanAllocs measures the heap allocations of one started-and-ended child
// span, the tracer's share of every traced call.
func spanAllocs(t *telemetry.Tracer, ctx context.Context) float64 {
	return allocsPerRun(200, func() {
		_, sp := t.Start(ctx, "calibrate")
		sp.End()
	})
}

func allocsPerRun(n int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// fitANN times one network fit on the simulated base profiles, each
// labelled with its original kind: the ANN's training kernel on its own.
func (l *ledger) fitANN(in *Inputs) error {
	ex := make([]ann.Example, len(in.bases))
	for i := range in.bases {
		ex[i] = ann.Example{X: in.bases[i].Vector(), Label: int(in.bases[i].Kind)}
	}
	cfg := ann.DefaultConfig()
	net := ann.New(profile.NumFeatures, int(adt.NumKinds), cfg)
	_, sp := l.tracer.Start(context.Background(), "ann.train")
	start := time.Now()
	_, err := net.Train(ex)
	l.annTrain = time.Since(start)
	sp.End()
	return err
}

// selfTimes returns, per span name, each span's self time: its duration
// minus the part of it its children cover. Spans carrying an "items"
// attribute are divided by it, giving a per-record (or per-window) time.
func selfTimes(spans []telemetry.SpanData) map[string][]float64 {
	children := map[telemetry.ID][]telemetry.SpanData{}
	for _, s := range spans {
		if s.ParentID != 0 {
			children[s.ParentID] = append(children[s.ParentID], s)
		}
	}
	out := map[string][]float64{}
	for _, s := range spans {
		self := s.Duration() - covered(s, children[s.SpanID])
		v := us(self)
		if n, ok := s.Attr("items").(int64); ok && n > 0 {
			v /= float64(n)
		}
		out[s.Name] = append(out[s.Name], v)
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent telemetry.SpanData, kids []telemetry.SpanData) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return time.Duration(total)
}
