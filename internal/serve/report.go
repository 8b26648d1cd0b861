package serve

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/chaos"
	"repro/internal/expertmem"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/stats"
)

// PhaseStats summarizes the requests that *arrived* during one time span —
// attributing latency to the traffic era that caused it, not the era it
// happened to finish in.
type PhaseStats struct {
	Name       string
	Start, End float64
	Requests   int
	Mean       float64
	P50        float64
	P95        float64
	P99        float64
	// Throughput is decode tokens per second completed inside [Start, End).
	Throughput float64
}

// Report is the outcome of a serving run.
type Report struct {
	// Phases aligns with Options.Phases; Overall spans the whole run.
	Phases  []PhaseStats
	Overall PhaseStats
	// LatencyP95 buckets completed requests by finish time: x is the bucket
	// midpoint (simulated seconds), y the bucket's P95 latency. Migration
	// pauses appear as spikes here.
	LatencyP95 *stats.Series
	// Throughput is decoded tokens/second per bucket.
	Throughput *stats.Series
	// Drift is the detector score over time.
	Drift *stats.Series
	// CrossFrac is the cross-node dispatch fraction over time (bucket-mean
	// of the per-iteration values) — the quantity the live re-placement
	// exists to pull back down.
	CrossFrac *stats.Series
	// QueueDepth is the fleet-wide queued+active request count over time.
	QueueDepth *stats.Series
	// Migrations lists every applied re-placement.
	Migrations []MigrationEvent
	// Solves counts background re-solves launched by the controller;
	// DiscardedSolves counts those whose result was thrown away by the
	// staleness guard (routing drifted past threshold again while the solve
	// ran). Solves also includes re-solves rejected by the minimum-gain gate.
	Solves          int
	DiscardedSolves int
	// ExpertMem aggregates tiered expert-weight memory activity across the
	// fleet (nil when Options.Oversubscription is zero). Its StallSeconds
	// sums every access's wait even when accesses stall in parallel across
	// GPUs; MemStallSeconds below is the wall-clock-consistent figure.
	ExpertMem *expertmem.Stats
	// MemStallSeconds is the expert-miss stall actually charged to the
	// fleet's iteration clocks (per layer, the slowest GPU's wait — the
	// others overlap). Compare against Makespan; zero when the memory
	// layer is off or nothing missed.
	MemStallSeconds float64
	// Makespan, Iterations, MeanBatch, Requests, Tokens summarize the run.
	Makespan   float64
	Iterations int
	MeanBatch  float64
	Requests   int
	Tokens     int
	// Saturated reports whether the fleet-wide queue was still growing at
	// the end of the run (offered load above capacity).
	Saturated bool
	// Fleet is the fleet tier's run summary — offered arrivals, autoscaler
	// activity, shared host-cache stats (nil when Options.Fleet is nil).
	Fleet *fleet.Report
	// Faults is the fault-injection ledger — crash outcomes with recovery
	// times, accumulated downtime, re-dispatched requests, degraded-link
	// windows, fetch retry/timeout/exhaustion counts, and retry-exhausted
	// sheds (nil when Options.Chaos is nil or empty).
	Faults *chaos.Report
	// Metrics is the end-of-run snapshot of Options.Metrics (nil when no
	// registry was attached). Its mem_stall_seconds counter equals
	// MemStallSeconds exactly: both accumulate the same float additions in
	// the same order.
	Metrics *obs.Snapshot

	// arrivals/latencies (sorted by arrival) back WindowStats.
	arrivalTimes []float64
	latencies    []float64
	finishTimes  []float64
}

// WindowStats computes request statistics over the requests arriving in
// [t0, t1) — the primitive behind per-phase and post-recovery comparisons.
func (r *Report) WindowStats(t0, t1 float64) PhaseStats {
	ps := PhaseStats{Name: fmt.Sprintf("[%.1f,%.1f)", t0, t1), Start: t0, End: t1}
	// The arrival times are sorted, so the requests with t0 <= at < t1 are
	// the run [lo, hi) of them. A NaN t0 puts lo at the end and a NaN t1
	// puts hi at the start, so a NaN bound selects nothing, as an inverted
	// window does.
	n := len(r.arrivalTimes)
	lo := sort.Search(n, func(i int) bool { return r.arrivalTimes[i] >= t0 })
	hi := sort.Search(n, func(i int) bool { return !(r.arrivalTimes[i] < t1) })
	if lo >= hi {
		return ps
	}
	lat := slices.Clone(r.latencies[lo:hi])
	ps.Requests = len(lat)
	ps.Mean = stats.Mean(lat)
	// One sort serves all three percentile queries (lat is local scratch);
	// stats.Percentile would copy and re-sort per query.
	sort.Float64s(lat)
	ps.P50 = stats.SortedPercentile(lat, 50)
	ps.P95 = stats.SortedPercentile(lat, 95)
	ps.P99 = stats.SortedPercentile(lat, 99)
	return ps
}

// String renders a compact human-readable summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "served %d requests (%d tokens) in %.2fs sim, mean batch %.1f, %d migrations\n",
		r.Requests, r.Tokens, r.Makespan, r.MeanBatch, len(r.Migrations))
	for _, p := range r.Phases {
		fmt.Fprintf(&b, "  phase %-10s [%6.1fs,%6.1fs) %6d req  P50 %.3fs  P95 %.3fs  P99 %.3fs  %.0f tok/s\n",
			p.Name, p.Start, p.End, p.Requests, p.P50, p.P95, p.P99, p.Throughput)
	}
	for _, m := range r.Migrations {
		fmt.Fprintf(&b, "  migration @%.2fs: score %.4f, %d moves (%d cross-node), %.1fms pause/replica, predicted gain %.1f%%",
			m.Time, m.Score, m.Moves, m.CrossNodeMoves, m.Seconds*1e3, m.PredictedGain*100)
		if m.SolveSeconds > 0 {
			fmt.Fprintf(&b, ", solved in %.0fms overlap", m.SolveSeconds*1e3)
		}
		if m.ResidencyChurn > 0 {
			fmt.Fprintf(&b, ", %d resident copies churned (%.1fms refetch)", m.ResidencyChurn, m.ChurnSeconds*1e3)
		}
		if m.PredictedStallDelta != 0 || m.RealizedStallDelta != 0 {
			fmt.Fprintf(&b, ", stall/token predicted %+.3fms realized %+.3fms",
				m.PredictedStallDelta*1e3, m.RealizedStallDelta*1e3)
		}
		b.WriteByte('\n')
	}
	if r.ExpertMem != nil {
		fmt.Fprintf(&b, "  %s\n", r.ExpertMem)
	}
	if r.Faults != nil {
		fmt.Fprintf(&b, "  %s\n", r.Faults)
	}
	return b.String()
}

// buildReport aggregates the run state.
func (s *server) buildReport() *Report {
	// Requests shed on a retry-exhausted fetch never finish; every
	// latency/throughput figure below is over the rest (all arrivals unless
	// a chaos fetch timeout is armed).
	finished := 0
	for i := range s.arrivals {
		if !s.arrivals[i].shed {
			finished++
		}
	}
	rep := &Report{
		Migrations:      s.migrations,
		Solves:          s.ctrl.solves,
		DiscardedSolves: s.ctrl.discards,
		Iterations:      s.iterations,
		Requests:        finished,
		Tokens:          finished * s.opts.DecodeTokens,
	}
	if s.mems != nil {
		mst := expertmem.Stats{}
		for _, mem := range s.mems {
			if mem == nil {
				continue // dark fleet slot, never activated
			}
			mst.Add(mem.Stats())
		}
		if s.fl != nil {
			mst.Add(s.fl.retiredStats)
		}
		if s.ch != nil {
			mst.Add(s.ch.retiredStats)
		}
		rep.ExpertMem = &mst
		rep.MemStallSeconds = s.memStall
	}
	if s.ch != nil {
		rep.Faults = s.faultReport(rep.ExpertMem)
	}
	if s.iterations > 0 {
		rep.MeanBatch = float64(s.batchTotal) / float64(s.iterations)
	}

	// Requests are already sorted by arrival (generated in time order).
	rep.arrivalTimes = make([]float64, 0, finished)
	rep.latencies = make([]float64, 0, finished)
	rep.finishTimes = make([]float64, 0, finished)
	for i := range s.arrivals {
		rq := &s.arrivals[i]
		if rq.shed {
			continue
		}
		rep.arrivalTimes = append(rep.arrivalTimes, rq.arrival)
		rep.latencies = append(rep.latencies, rq.finish-rq.arrival)
		rep.finishTimes = append(rep.finishTimes, rq.finish)
		if rq.finish > rep.Makespan {
			rep.Makespan = rq.finish
		}
	}

	// Realize each migration's stall delta: charged stall per token over the
	// traffic between the previous migration (or start) and the decision,
	// minus the same over the traffic between completion and the next
	// migration (or end). Left at zero when either window saw no tokens.
	for i := range rep.Migrations {
		m := &rep.Migrations[i]
		t0 := 0.0
		if i > 0 {
			t0 = rep.Migrations[i-1].Completed
		}
		t1 := rep.Makespan + 1
		if i+1 < len(rep.Migrations) {
			t1 = rep.Migrations[i+1].Time
		}
		before, okB := s.stallPerToken(t0, m.Time)
		after, okA := s.stallPerToken(m.Completed, t1)
		if okB && okA {
			m.RealizedStallDelta = before - after
		}
	}

	// Per-phase and overall stats.
	start := 0.0
	for _, p := range s.opts.Phases {
		ps := rep.WindowStats(start, start+p.Duration)
		ps.Name = p.Name // WithDefaults named every phase
		ps.Throughput = s.tokensIn(start, start+p.Duration) / p.Duration
		rep.Phases = append(rep.Phases, ps)
		start += p.Duration
	}
	rep.Overall = rep.WindowStats(0, rep.Makespan+1)
	rep.Overall.Name = "overall"
	if rep.Makespan > 0 {
		rep.Overall.Throughput = float64(rep.Tokens) / rep.Makespan
	}

	// Time-bucketed series.
	bucket := s.reportBucket(rep.Makespan)
	if bucket > 0 {
		rep.LatencyP95 = bucketedP95(rep.finishTimes, rep.latencies, bucket)
		rep.LatencyP95.Name = "p95-latency"
		rep.Throughput = s.throughputSeries(bucket)
	}
	rep.Drift = &stats.Series{Name: "drift-score", X: s.driftT, Y: s.driftY}
	rep.CrossFrac = bucketedMean(s.fracT, s.fracY, bucket)
	rep.CrossFrac.Name = "cross-frac"
	rep.QueueDepth = &stats.Series{Name: "queue-depth", X: s.queueT, Y: s.queueY}
	if n := len(s.queueY); n >= 8 {
		early := stats.Max(s.queueY[:n/2])
		late := stats.Max(s.queueY[n/2:])
		rep.Saturated = late > 4*early+8
	}
	if s.fl != nil {
		rep.Fleet = s.fleetReport()
	}
	if s.opts.Metrics != nil {
		rep.Metrics = s.opts.Metrics.Snapshot()
	}
	return rep
}

// maxReportBuckets caps how many buckets a time-bucketed report series may
// hold. The series loops step once per bucket, so their cost grows with the
// span over the bucket width; a width that would exceed the cap is widened
// instead. Checked-in runs ask for at most a few hundred buckets.
const maxReportBuckets = 1 << 16

// reportBucket is the series bucket width: LatencyBucket, or the makespan
// over 80 by default, widened so no series spans more than maxReportBuckets
// buckets. Zero (no bucketing) when either is zero or the run's time span
// is not finite.
func (s *server) reportBucket(makespan float64) float64 {
	bucket := s.opts.LatencyBucket
	if bucket <= 0 {
		bucket = makespan / 80
	}
	if !(bucket > 0) {
		return 0
	}
	// Iteration starts and ends can outlast the last finished request (an
	// iteration whose requests were all shed still runs), so the span
	// covers every bucketed series.
	span := makespan
	if n := len(s.decoded); n > 0 {
		span = max(span, s.decoded[n-1].t)
	}
	if n := len(s.fracT); n > 0 {
		span = max(span, s.fracT[n-1])
	}
	if math.IsInf(span, 0) || math.IsNaN(span) {
		return 0
	}
	if span/bucket > maxReportBuckets {
		bucket = span / maxReportBuckets
	}
	return bucket
}

// stallPerToken is the charged expert-stall per decoded token over the
// iterations starting in [t0, t1); ok is false when no tokens were decoded.
func (s *server) stallPerToken(t0, t1 float64) (float64, bool) {
	stall, tokens := 0.0, 0
	for _, ms := range s.memSamples {
		if ms.t >= t0 && ms.t < t1 {
			stall += ms.stall
			tokens += ms.tokens
		}
	}
	if tokens == 0 {
		return 0, false
	}
	return stall / float64(tokens), true
}

// tokensIn sums decoded tokens inside a time span.
func (s *server) tokensIn(t0, t1 float64) float64 {
	n := 0
	for _, tk := range s.decoded {
		if tk.t >= t0 && tk.t < t1 {
			n += tk.n
		}
	}
	return float64(n)
}

// throughputSeries buckets decoded tokens over time. The decoded ticks are
// in event order (nondecreasing time), so one advancing pair of cursors
// replaces a full tokensIn scan per bucket — O(iterations + buckets)
// instead of O(iterations x buckets).
func (s *server) throughputSeries(bucket float64) *stats.Series {
	out := &stats.Series{Name: "tokens-per-sec"}
	if len(s.decoded) == 0 {
		return out
	}
	end := s.decoded[len(s.decoded)-1].t
	i := 0
	for t0 := 0.0; t0 < end; t0 += bucket {
		t1 := t0 + bucket
		n := 0
		for ; i < len(s.decoded) && s.decoded[i].t < t1; i++ {
			n += s.decoded[i].n
		}
		out.Add(t0+bucket/2, float64(n)/bucket)
	}
	return out
}

// bucketedMean averages time-ordered samples per time bucket.
func bucketedMean(times, vals []float64, bucket float64) *stats.Series {
	if bucket <= 0 {
		return &stats.Series{X: append([]float64(nil), times...), Y: append([]float64(nil), vals...)}
	}
	out := &stats.Series{}
	edge := bucket
	sum, n := 0.0, 0
	flush := func() {
		if n > 0 {
			out.Add(edge-bucket/2, sum/float64(n))
			sum, n = 0, 0
		}
	}
	for i, t := range times {
		for t >= edge {
			flush()
			edge += bucket
		}
		sum += vals[i]
		n++
	}
	flush()
	return out
}

// bucketedP95 computes the P95 of latencies grouped by finish-time bucket.
func bucketedP95(times, lats []float64, bucket float64) *stats.Series {
	type idx struct{ t, l float64 }
	pairs := make([]idx, len(times))
	for i := range times {
		pairs[i] = idx{times[i], lats[i]}
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].t < pairs[b].t })
	out := &stats.Series{}
	var cur []float64
	edge := bucket
	flush := func() {
		if len(cur) > 0 {
			// Sort the reused scratch in place: stats.Percentile would copy
			// (and allocate) per bucket for its own sort.
			sort.Float64s(cur)
			out.Add(edge-bucket/2, stats.SortedPercentile(cur, 95))
			cur = cur[:0]
		}
	}
	for _, p := range pairs {
		for p.t >= edge {
			flush()
			edge += bucket
		}
		cur = append(cur, p.l)
	}
	flush()
	return out
}
