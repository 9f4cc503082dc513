package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/telemetry"
)

// outcome is what the generator observed for one scheduled request.
type outcome struct {
	due, dispatched, done time.Time
	err                   error
	body                  []byte
	// dup marks an answer byte-identical to the first answer the same
	// connection got for the same pooled trace; its body is not kept.
	dup bool
}

// latency is the client-side latency timed from the scheduled send instant,
// so time spent queued behind a stalled request counts against the system.
func (o *outcome) latency() time.Duration { return o.done.Sub(o.due) }

// generator is the benchmark's open-loop load generator: one process, a
// fixed number of keep-alive connections (one goroutine each), and a
// dispatcher that releases requests on a fixed-interval schedule no matter
// how far behind the server is.
type generator struct {
	base    string
	clients []*http.Client
	// seen holds, per connection, the first answer to each pooled trace.
	// A pooled trace always travels on the same connection, so later
	// identical answers are counted without being retained.
	seen   []map[int][]byte
	tracer *telemetry.Tracer // nil outside the traced run
}

func newGenerator(base string, conns int) *generator {
	g := &generator{base: base}
	for i := 0; i < conns; i++ {
		g.clients = append(g.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}})
		g.seen = append(g.seen, map[int][]byte{})
	}
	return g
}

func (g *generator) close() {
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

// run offers reqs, whose rendered bodies are bodies, at rate requests per
// second and returns one outcome per request, in schedule order.
func (g *generator) run(reqs []request, bodies [][]byte, rate float64) []outcome {
	out := make([]outcome, len(reqs))
	queues := make([]chan int, len(g.clients))
	var wg sync.WaitGroup
	for c := range queues {
		// Sized to the whole schedule: the dispatcher must never block
		// on a busy connection, or the loop would close.
		queues[c] = make(chan int, len(reqs))
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range queues[c] {
				g.send(g.clients[c], &reqs[i], bodies[i], &out[i], i)
				if r, o := &reqs[i], &out[i]; o.err == nil && !r.ingest && r.trace >= 0 {
					if f, ok := g.seen[c][r.trace]; !ok {
						g.seen[c][r.trace] = o.body
					} else if bytes.Equal(f, o.body) {
						o.body, o.dup = nil, true
					}
				}
			}
		}(c)
	}
	// The dispatcher owns its OS thread and waits with nanosleep: a
	// runtime timer wakes through the network poller at millisecond
	// resolution, which would make the generator itself late by up to a
	// millisecond per send.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	// Linux lets a nanosleep overshoot by the thread's timer slack, 50 µs
	// by default: a sixth of a cache hit's latency. Ask for 1 ns on this
	// thread, and restore the old slack before the thread is unlocked.
	slack, _, _ := syscall.RawSyscall(syscall.SYS_PRCTL, prGetTimerSlack, 0, 0)
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	defer syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, slack, 0)
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(2 * time.Millisecond)
	for i := range reqs {
		due := start.Add(time.Duration(i) * interval)
		for d := time.Until(due); d > 0; d = time.Until(due) {
			ts := syscall.NsecToTimespec(int64(d))
			_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
		}
		out[i].due = due
		out[i].dispatched = time.Now()
		queues[reqs[i].conn] <- i
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	return out
}

// prctl options (linux/prctl.h) for the calling thread's timer slack.
const (
	prSetTimerSlack = 29
	prGetTimerSlack = 30
)

// send performs one request and records its outcome. In the traced run the
// request gets its own trace: a root span per request ID.
func (g *generator) send(c *http.Client, r *request, body []byte, o *outcome, id int) {
	path := "/v1/advise?arch=" + arch
	name := "gen.advise"
	if r.ingest {
		path = "/v1/profiles?arch=" + arch
		name = "gen.ingest"
	}
	_, sp := g.tracer.Start(context.Background(), name)
	sp.SetInt("request", int64(id))
	defer sp.End()
	req, err := http.NewRequest(http.MethodPost, g.base+path, bytes.NewReader(body))
	if err != nil {
		o.err, o.done = err, time.Now()
		return
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := c.Do(req)
	if err != nil {
		o.err, o.done = err, time.Now()
		return
	}
	o.body, o.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	o.done = time.Now()
	if o.err == nil && resp.StatusCode != http.StatusOK {
		o.err = fmt.Errorf("%s: %s", path, resp.Status)
	}
}

// phaseStats summarizes one open-loop phase.
type phaseStats struct {
	sent           int
	failed         int
	advise, ingest []float64 // latencies, ms
	lateness       []float64 // ms
	drain          time.Duration
	steal          float64 // share of the machine's busy CPU stolen by the hypervisor
}

func summarize(reqs []request, outs []outcome) phaseStats {
	st := phaseStats{sent: len(outs)}
	var lastDue, lastDone time.Time
	for i := range outs {
		o := &outs[i]
		if o.err != nil {
			st.failed++
		}
		l := ms(o.latency())
		if reqs[i].ingest {
			st.ingest = append(st.ingest, l)
		} else {
			st.advise = append(st.advise, l)
		}
		st.lateness = append(st.lateness, ms(lateness(o.due, o.dispatched)))
		if o.due.After(lastDue) {
			lastDue = o.due
		}
		if o.done.After(lastDone) {
			lastDone = o.done
		}
	}
	if len(outs) > 0 {
		st.drain = lastDone.Sub(lastDue)
	}
	return st
}

// merge pools two phases' samples; steal adds up and is averaged by the
// caller.
func (st phaseStats) merge(o phaseStats) phaseStats {
	st.sent += o.sent
	st.failed += o.failed
	st.advise = append(st.advise, o.advise...)
	st.ingest = append(st.ingest, o.ingest...)
	st.lateness = append(st.lateness, o.lateness...)
	st.drain = max(st.drain, o.drain)
	st.steal += o.steal
	return st
}

// Chunk sizes for windowedPercentile: reported tails need ten samples
// beyond the p99 of every chunk; a ladder rung's verdict may use half that.
const (
	reportChunk = 1000
	ladderChunk = 500
)

// meets reports whether a phase satisfies the goodput rule: no failures,
// advise p99 within the limit, and no growing backlog — the last response
// arrives within one latency limit of the last scheduled send.
func (st phaseStats) meets(limitMS float64) bool {
	return st.failed == 0 &&
		st.ladderP99() <= limitMS &&
		ms(st.drain) <= limitMS
}

// Generator lateness a fixed-rate segment may show before its latency
// numbers are void. Latency is timed from each request's due time, so a
// late dispatcher adds its delay to every latency it reports. Its median
// lateness may be at most a tenth of the segment's advise median, which
// bounds its share of the gated medians. Its lateness p99 may be at most a
// fifth of the ladder's latency limit: on a 2-vCPU VM, heavy host steal
// alone pushed it to 7 ms on advise-hot, and a stall beyond that is the
// generator's, not the server's.
const (
	maxLatenessShare = 0.1
	maxLatenessP99MS = limitP99MS / 5
)

// onTime reports whether the generator kept to its schedule closely enough
// for the phase's latencies to describe the server.
func (st phaseStats) onTime() bool {
	return percentile(st.lateness, 0.5) <= maxLatenessShare*median(st.advise) &&
		percentile(st.lateness, 0.99) <= maxLatenessP99MS
}

func (st phaseStats) ladderP99() float64 { return windowedPercentile(st.advise, 0.99, ladderChunk) }

// p99 is the reported tail of a fixed-rate phase's latencies.
func (st phaseStats) p99(xs []float64) float64 { return windowedPercentile(xs, 0.99, reportChunk) }
