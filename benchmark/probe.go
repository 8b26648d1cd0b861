package main

import (
	"runtime"
	"time"
)

// Host timings on a shared host move with the load other tenants put on
// it. A busy spell of seconds to minutes slows the serve loop by 15-100%,
// and the fastest of a run's repetitions cannot see past a spell that
// outlasts the run. So the benchmark runs a fixed probe just before and just
// after every host-timed call, and divides the call's wall time by the mean
// of the two probes. The probe is code of this package, so no change to the
// repository changes its cost. It mimics the serve loop's memory traffic,
// which a spell slows most: a stream of small short-lived allocations (two
// 32-float rows per draw, as KernelRouter.Route makes) cycling through a live
// heap of about 17 MB, the serve loop's live heap between collections.

// refProbeSeconds is the probe's time on the host the README's baselines
// come from, in a quiet moment. Scaled host times read as seconds on that
// host.
const refProbeSeconds = 0.075

const (
	probeDraws   = 300_000
	probeRows    = 64
	probeExperts = 32
	probeLive    = 1 << 16
)

// probe runs the fixed work once, from a collected heap, and returns its
// host seconds.
func probe() float64 {
	runtime.GC()
	t0 := time.Now()
	x := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	rows := make([][]float64, probeRows)
	for i := range rows {
		rows[i] = make([]float64, probeExperts)
		for j := range rows[i] {
			rows[i][j] = float64(next()%1000+1) / 1000
		}
	}
	live := make([][]float64, probeLive)
	for i := range probeDraws {
		r := next()
		tilted := make([]float64, probeExperts)
		for j, v := range rows[r%probeRows] {
			tilted[j] = v * float64(1+(r>>j)&7)
		}
		masked := append([]float64(nil), tilted...)
		masked[r%probeExperts] = 0
		total := 0.0
		for _, v := range masked {
			total += v
		}
		u := float64(next()>>11) / (1 << 53) * total
		pick := 0
		for j, v := range masked {
			if u -= v; u <= 0 {
				pick = j
				break
			}
		}
		tilted[0] = float64(pick)
		live[i%probeLive] = tilted
	}
	runtime.KeepAlive(live)
	return time.Since(t0).Seconds()
}

// hostClock times calls on the host between probes. Every timed call must
// follow a probe, and its scaled time needs the probe that follows it.
type hostClock struct {
	probes []float64
	calls  []timedCall
	// probed reports whether a probe ran since the last timed call.
	probed bool
}

type timedCall struct {
	wall   float64 // wall seconds
	before int     // index of the probe just before the call
}

// newHostClock warms the probe up, so that the first probe counted does not
// pay for growing the heap.
func newHostClock() *hostClock {
	probe()
	return &hostClock{}
}

// probe times the probe once. Whatever the caller does between probe and
// time, such as collecting the heap, is not timed.
func (c *hostClock) probe() {
	c.probes = append(c.probes, probe())
	c.probed = true
}

// time runs f, records its wall seconds, and returns its index for scaled.
func (c *hostClock) time(f func()) int {
	if !c.probed {
		panic("hostClock: timed call without a probe before it")
	}
	t0 := time.Now()
	f()
	c.calls = append(c.calls, timedCall{time.Since(t0).Seconds(), len(c.probes) - 1})
	c.probed = false
	return len(c.calls) - 1
}

// wall is call i's wall seconds as measured.
func (c *hostClock) wall(i int) float64 { return c.calls[i].wall }

// scaled is call i's wall time at the reference host's speed: divided by
// the mean of the probes just before and just after it, and multiplied by
// refProbeSeconds.
func (c *hostClock) scaled(i int) float64 {
	b := c.calls[i].before
	return c.calls[i].wall * refProbeSeconds / ((c.probes[b] + c.probes[b+1]) / 2)
}

// medianScaled is the median scaled time of the calls idx.
func (c *hostClock) medianScaled(idx []int) float64 {
	xs := make([]float64, len(idx))
	for j, i := range idx {
		xs[j] = c.scaled(i)
	}
	return median(xs)
}

// scale brings a host time measured anywhere in the run to the reference
// host's speed, by the median of all probes. It serves the traced run's
// replays, whose calls are too short to bracket one by one.
func (c *hostClock) scale() float64 { return refProbeSeconds / median(c.probes) }
