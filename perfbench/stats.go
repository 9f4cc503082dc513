package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by the nearest-rank
// rule: the smallest sample with at least q·n samples at or below it. The
// input is not modified. An empty sample has no percentile and yields NaN.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// windowedPercentile estimates a tail percentile so that one brief stall of
// the host does not decide it: the samples, in schedule order, are cut into
// consecutive chunks of at least minChunk samples, and the result is the
// median of the chunks' q-percentiles. With fewer than two chunks' worth of
// samples it is the plain percentile.
func windowedPercentile(xs []float64, q float64, minChunk int) float64 {
	k := len(xs) / minChunk
	if k < 2 {
		return percentile(xs, q)
	}
	per := make([]float64, k)
	for i := range per {
		per[i] = percentile(xs[i*len(xs)/k:(i+1)*len(xs)/k], q)
	}
	return median(per)
}

// median is the 0.5 percentile.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// lateness is how far behind its schedule an open-loop send happened: the
// delay from the instant a request was due to the instant the generator
// handed it to a connection. A generator that falls behind hides the
// system's queueing from the latency it reports, so a run whose lateness
// tail is large is not a valid latency measurement.
func lateness(due, dispatched time.Time) time.Duration {
	if d := dispatched.Sub(due); d > 0 {
		return d
	}
	return 0
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// hostCPU reads the machine-wide busy and stolen CPU time from /proc/stat,
// in clock ticks. Steal is time the hypervisor ran someone else while this
// machine had work; a run with heavy steal measured the host, not Brainy.
func hostCPU() (busy, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	v := func(i int) float64 { x, _ := strconv.ParseFloat(f[i], 64); return x }
	return v(1) + v(2) + v(3) + v(6) + v(7), v(8)
}
