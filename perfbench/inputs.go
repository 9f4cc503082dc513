package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/adt"
	"repro/internal/appgen"
	"repro/internal/loadgen"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/telemetry"
	"repro/internal/workloads/phases"
)

// arch is the architecture every generated profile was simulated on and
// every request names.
const arch = "Core2"

const (
	// maxRecords bounds the records of one advise trace: small real
	// traces of 1 to maxRecords containers.
	maxRecords = 8
	// baseApps is how many synthetic applications are simulated to seed
	// the advise key universe. Keys beyond it are variants of these.
	baseApps = 64
	// streamTemplates is how many phase-changing window streams are
	// simulated; instances replay them under their own identity.
	streamTemplates = 32
)

// Inputs is everything one run sends, derived from the seed alone: advise
// records are profiles of simulated containers, ingest windows are snapshot
// windows of simulated phase-changing (or steady) containers. Building it
// costs time linear in the key universe, and the same seed yields
// byte-identical request bodies.
type Inputs struct {
	seed int64
	w    WorkloadSpec

	bases   []profile.Profile
	zipf    *loadgen.Zipf
	pool    [][]int32 // pre-drawn advise traces (TracePool > 0)
	streams [][]profile.WindowRecord
	cursor  ingestCursor
	phase   int64
}

// request is one scheduled call: an advise trace or an ingest batch.
type request struct {
	ingest bool
	conn   int // connection that must carry it (keeps each instance in order)
	// trace identifies a pooled advise trace, so identical responses are
	// checked once; -1 marks a fresh trace.
	trace   int
	keys    []int32
	windows []profile.WindowRecord
}

// newInputs simulates the base profiles and window streams for a workload.
// Spans around appgen.Generate land on tracer when it is enabled.
func newInputs(seed int64, w WorkloadSpec, tracer *telemetry.Tracer) (*Inputs, error) {
	in := &Inputs{seed: seed, w: w}
	rng := rand.New(rand.NewSource(seed))

	cfg := appgen.DefaultConfig()
	cfg.TotalInterfCalls = 200
	cfg.MaxPrepopulate = 800
	cfg.MaxIterCount = 800
	targets := adt.Targets()
	for i := 0; i < baseApps; i++ {
		tgt := targets[i%len(targets)]
		_, sp := tracer.Start(context.Background(), "appgen.generate")
		app := appgen.Generate(cfg, tgt, rng.Int63())
		sp.End()
		res := app.Run(cfg, tgt.Kind, machine.New(machine.Core2()))
		in.bases = append(in.bases, res.Profile)
	}

	if w.Zipf > 0 {
		z, err := loadgen.NewZipf(w.Keys, w.Zipf)
		if err != nil {
			return nil, err
		}
		in.zipf = z
	}
	for i := 0; i < w.TracePool; i++ {
		in.pool = append(in.pool, in.drawTrace(rng))
	}

	for i := 0; i < streamTemplates; i++ {
		in.streams = append(in.streams, simulateStream(phases.Config{Keys: 128 + rng.Intn(384)}, w.Steady))
	}
	in.cursor = newIngestCursor(w.Instances, len(in.streams), w.Steady)
	return in, nil
}

// simulateStream drives one phases workload on a profiled container with
// snapshot windows on. A steady stream keeps only the final query-phase
// window, which instances then replay indefinitely.
func simulateStream(pc phases.Config, steady bool) []profile.WindowRecord {
	ring := profile.NewWindowRing(64)
	m := machine.New(machine.Core2())
	c := profile.NewContainer(phases.Original, m, 8, phases.Context, false)
	c.EnableWindows(pc.Ops()/16, 0, ring)
	phases.Drive(c, pc)
	c.FlushWindow()
	recs := ring.Records()
	if steady {
		return recs[len(recs)-2 : len(recs)-1] // last full window
	}
	return recs
}

// drawTrace draws the key list of one advise trace.
func (in *Inputs) drawTrace(rng *rand.Rand) []int32 {
	n := 1 + rng.Intn(maxRecords)
	keys := make([]int32, n)
	for i := range keys {
		if in.zipf != nil {
			keys[i] = int32(in.zipf.Next(rng))
		} else {
			keys[i] = int32(rng.Intn(in.w.Keys))
		}
	}
	return keys
}

// next returns the following n scheduled requests. Every call draws from
// its own seeded stream, and the ingest cursor carries instance progress
// across calls, so a run's request sequence depends only on the seed and
// the sizes of the phases asked for.
func (in *Inputs) next(n, conns int) []request {
	in.phase++
	rng := rand.New(rand.NewSource(in.seed*1_000_003 + in.phase))
	reqs := make([]request, n)
	for j := range reqs {
		r := &reqs[j]
		if j%(in.w.AdvisePerIngest+1) == in.w.AdvisePerIngest {
			slot, wins := in.cursor.nextBatch(in.streams, 1+rng.Intn(in.w.MaxBatch), rng)
			r.ingest, r.windows, r.conn = true, wins, slot%conns
			continue
		}
		if len(in.pool) > 0 {
			r.trace = rng.Intn(len(in.pool))
			r.keys = in.pool[r.trace]
			r.conn = r.trace % conns
		} else {
			r.trace = -1
			r.keys = in.drawTrace(rng)
			r.conn = j % conns
		}
	}
	return reqs
}

// record materializes advise key k: a variant of a simulated base profile
// under its own construction site, with its cycle count offset so every key
// has a distinct feature vector and therefore a distinct cache entry.
func (in *Inputs) record(k int32) profile.Profile {
	p := in.bases[int(k)%len(in.bases)]
	p.Context = "bench/site-" + strconv.Itoa(int(k))
	p.Cycles += float64(int(k) / len(in.bases))
	return p
}

// body renders a request as the JSON-lines payload the server receives.
func (in *Inputs) body(r *request) ([]byte, error) {
	var out []byte
	line := func(v any) error {
		b, err := json.Marshal(v)
		out = append(append(out, b...), '\n')
		return err
	}
	if r.ingest {
		for i := range r.windows {
			if err := line(&r.windows[i]); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	for _, k := range r.keys {
		p := in.record(k)
		if err := line(&p); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// bodies renders every request of a phase before it starts, so the
// generator's own encoding never runs while it is timing the server.
func (in *Inputs) bodies(reqs []request) ([][]byte, error) {
	out := make([][]byte, len(reqs))
	for i := range reqs {
		b, err := in.body(&reqs[i])
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// ingestCursor walks a fixed set of instance slots round-robin. Each slot
// streams one instance's windows in order in small batches; a finished
// phase-changing instance is replaced by a fresh one on another template.
type ingestCursor struct {
	steady       bool
	slots        []ingestSlot
	rr           int
	nextInstance int
}

type ingestSlot struct {
	tmpl, instance, pos int
}

func newIngestCursor(instances, templates int, steady bool) ingestCursor {
	c := ingestCursor{steady: steady}
	for i := 0; i < instances; i++ {
		c.slots = append(c.slots, ingestSlot{tmpl: i % templates, instance: i})
	}
	c.nextInstance = instances
	return c
}

// nextBatch returns the slot index and up to n consecutive windows of the
// slot's instance.
func (c *ingestCursor) nextBatch(streams [][]profile.WindowRecord, n int, rng *rand.Rand) (int, []profile.WindowRecord) {
	si := c.rr
	c.rr = (c.rr + 1) % len(c.slots)
	s := &c.slots[si]
	if !c.steady && s.pos >= len(streams[s.tmpl]) {
		*s = ingestSlot{tmpl: rng.Intn(len(streams)), instance: c.nextInstance}
		c.nextInstance++
	}
	out := make([]profile.WindowRecord, 0, n)
	for len(out) < n {
		var w profile.WindowRecord
		if c.steady {
			w = streams[s.tmpl][0]
			ops := w.EndOp - w.StartOp
			w.Seq = s.pos
			w.StartOp = uint64(s.pos) * ops
			w.EndOp = w.StartOp + ops
		} else {
			if s.pos >= len(streams[s.tmpl]) {
				break
			}
			w = streams[s.tmpl][s.pos]
		}
		w.Context = fmt.Sprintf("bench/instance-site-%d", s.tmpl)
		w.Instance = s.instance
		// Instances replaying one template differ by a few cycles per
		// window, as real instances do, so their drift blends are distinct
		// inference-cache entries.
		w.HW.Cycles += float64(s.instance)
		w.Cycles = w.HW.Cycles
		out = append(out, w)
		s.pos++
	}
	return si, out
}
