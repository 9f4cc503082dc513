package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"

	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/serve"
)

// checker verifies every answer the server gives. Advise responses must
// equal, as decoded JSON values, the response core.Brainy.Analyze implies
// for the same request body and registry; ingest responses must account
// for every window sent; and at the end GET /v1/rollup must reconcile
// exactly with everything sent. Identical response bytes for a pooled
// trace are checked once.
type checker struct {
	in     *Inputs
	brainy *core.Brainy

	attempted, failed int
	firstErr          error

	first   map[int][]byte // pooled trace → first response body
	counts  map[int]int    // pooled trace → responses equal to first
	pending []adviseAnswer // answers needing their own check

	// What the server's rollup must show, by container kind.
	windows                      uint64
	kindWindows, kindOps, advise map[string]uint64
	advised                      map[string]map[string]uint64
}

type adviseAnswer struct {
	req  *request
	body []byte
}

func newChecker(in *Inputs, brainy *core.Brainy) *checker {
	return &checker{
		in: in, brainy: brainy,
		first: map[int][]byte{}, counts: map[int]int{},
		kindWindows: map[string]uint64{}, kindOps: map[string]uint64{},
		advise: map[string]uint64{}, advised: map[string]map[string]uint64{},
	}
}

func (c *checker) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// observe books one phase's outcomes. Transport errors and non-2xx answers
// fail immediately; advise bodies are queued for verify.
func (c *checker) observe(reqs []request, outs []outcome) {
	for i := range outs {
		r, o := &reqs[i], &outs[i]
		c.attempted++
		if o.err != nil {
			c.fail(o.err)
			continue
		}
		if r.ingest {
			c.checkIngest(r, o.body)
			continue
		}
		if r.trace < 0 {
			c.pending = append(c.pending, adviseAnswer{r, o.body})
			continue
		}
		switch f, ok := c.first[r.trace]; {
		case o.dup:
			// Equal to the first answer on its connection, which is
			// c.first[r.trace]: pooled traces never change connection.
			c.counts[r.trace]++
		case !ok:
			c.first[r.trace] = o.body
			c.counts[r.trace]++
		case bytes.Equal(f, o.body):
			c.counts[r.trace]++
		default:
			c.pending = append(c.pending, adviseAnswer{r, o.body})
		}
	}
}

func (c *checker) checkIngest(r *request, body []byte) {
	var resp serve.ProfilesResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		c.fail(fmt.Errorf("ingest response: %w", err))
		return
	}
	if resp.Accepted != len(r.windows) || resp.OutOfOrder != 0 || resp.Unadvised != 0 {
		c.fail(fmt.Errorf("ingest of %d windows answered accepted=%d out_of_order=%d unadvised=%d",
			len(r.windows), resp.Accepted, resp.OutOfOrder, resp.Unadvised))
		return
	}
	for i := range r.windows {
		w := &r.windows[i]
		k := w.Kind.String()
		c.windows++
		c.kindWindows[k]++
		c.kindOps[k] += w.Ops()
	}
}

// expected is the response the server must give for a request body: the
// in-process analysis of the same records, shaped as the handler shapes it.
func (c *checker) expected(body []byte) (serve.AdviseResponse, error) {
	var profiles []profile.Profile
	err := profile.DecodeRecords(bytes.NewReader(body), func(p *profile.Profile) error {
		profiles = append(profiles, *p)
		return nil
	})
	if err != nil {
		return serve.AdviseResponse{}, err
	}
	rep := c.brainy.Analyze(profiles, arch)
	resp := serve.AdviseResponse{
		Arch: rep.Arch, Profiles: len(profiles),
		Suggestions: rep.Suggestions, Skipped: rep.Skipped, Plan: rep.Plan(),
	}
	if resp.Suggestions == nil {
		resp.Suggestions = []core.Suggestion{}
	}
	if resp.Plan == nil {
		resp.Plan = []core.PlanEntry{}
	}
	return resp, nil
}

// sameValue reports whether two JSON documents decode to equal values.
func sameValue(a, b []byte) (bool, error) {
	var va, vb any
	if err := json.Unmarshal(a, &va); err != nil {
		return false, err
	}
	if err := json.Unmarshal(b, &vb); err != nil {
		return false, err
	}
	return reflect.DeepEqual(va, vb), nil
}

// checkAdvise verifies one advise body and books its decisions n times.
func (c *checker) checkAdvise(r *request, body []byte, n int) {
	reqBody, err := c.in.body(r)
	if err != nil {
		c.fail(err)
		return
	}
	want, err := c.expected(reqBody)
	if err != nil {
		c.fail(err)
		return
	}
	wb, err := json.Marshal(want)
	if err != nil {
		c.fail(err)
		return
	}
	for _, s := range want.Suggestions {
		o := s.Original.String()
		c.advise[o] += uint64(n)
		if c.advised[o] == nil {
			c.advised[o] = map[string]uint64{}
		}
		c.advised[o][s.Suggested.String()] += uint64(n)
	}
	ok, err := sameValue(wb, body)
	if err != nil || !ok {
		for i := 0; i < n; i++ {
			c.fail(fmt.Errorf("advise answer differs from in-process Analyze for %d-record trace: %s", len(r.keys), truncate(body)))
		}
	}
}

// verify checks every queued advise answer. Call it after the traffic, so
// the in-process analysis never competes with the server for CPU.
func (c *checker) verify() {
	traces := make([]int, 0, len(c.first))
	for t := range c.first {
		traces = append(traces, t)
	}
	sort.Ints(traces)
	for _, t := range traces {
		r := request{trace: t, keys: c.in.pool[t]}
		c.checkAdvise(&r, c.first[t], c.counts[t])
	}
	for _, a := range c.pending {
		c.checkAdvise(a.req, a.body, 1)
	}
	c.first, c.counts, c.pending = map[int][]byte{}, map[int]int{}, nil
}

// reconcile compares GET /v1/rollup with everything the checker booked.
func (c *checker) reconcile(body []byte) {
	var roll serve.RollupResponse
	if err := json.Unmarshal(body, &roll); err != nil {
		c.fail(fmt.Errorf("rollup: %w", err))
		return
	}
	if roll.Windows != c.windows {
		c.fail(fmt.Errorf("rollup windows = %d, sent %d", roll.Windows, c.windows))
	}
	seen := map[string]bool{}
	for _, k := range roll.Kinds {
		seen[k.Kind] = true
		advised := k.Advised
		if advised == nil {
			advised = map[string]uint64{}
		}
		want := c.advised[k.Kind]
		if want == nil {
			want = map[string]uint64{}
		}
		if k.Windows != c.kindWindows[k.Kind] || k.Ops != c.kindOps[k.Kind] ||
			k.AdviseDecisions != c.advise[k.Kind] || !reflect.DeepEqual(advised, want) {
			c.fail(fmt.Errorf("rollup %s: windows=%d ops=%d advise=%d advised=%v; sent windows=%d ops=%d advise=%d advised=%v",
				k.Kind, k.Windows, k.Ops, k.AdviseDecisions, advised,
				c.kindWindows[k.Kind], c.kindOps[k.Kind], c.advise[k.Kind], want))
		}
	}
	for _, m := range []map[string]uint64{c.kindWindows, c.advise} {
		for k, n := range m {
			if n > 0 && !seen[k] {
				c.fail(fmt.Errorf("rollup has no %s row", k))
			}
		}
	}
}

func truncate(b []byte) string {
	if len(b) > 300 {
		return string(b[:300]) + "…"
	}
	return string(b)
}
