package serve

import (
	"repro/internal/expertmem"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/topo"
)

// MigrationEvent records one live re-placement: when the controller fired,
// what it cost, and what it predicted the new placement would buy.
type MigrationEvent struct {
	// SolveStarted is the simulated second the drift detector fired and the
	// background re-solve began; SolveSeconds is how long the solve
	// overlapped serving on the simulated clock (Options.SolveSeconds).
	// The fleet keeps decoding throughout — solve time is overlap, never
	// pause, and is deliberately not part of Seconds below.
	SolveStarted float64
	SolveSeconds float64
	// Time is the simulated second the controller decided to migrate (the
	// background solve finished and cleared the staleness and minimum-gain
	// gates).
	Time float64
	// Completed is when the last replica finished its parameter copy.
	Completed float64
	// Score is the drift divergence that triggered the re-solve.
	Score float64
	// Moves / CrossNodeMoves count relocated experts (after canonicalization).
	Moves, CrossNodeMoves int
	// Seconds is the per-replica serving pause charged to the simulated
	// clock while that replica's expert parameters are copied: the copy
	// phase, priced as one concurrent exchange in which every GPU sends one
	// expert at a time and receives one at a time (placement.MigrationPlan.
	// Seconds), plus the re-warm phase ChurnSeconds when tiered expert
	// memory is on. Solve time is never included — see SolveSeconds.
	Seconds float64
	// PredictedGain is the fractional reduction in live-window crossings the
	// re-solved placement promises (1 - fresh/stale).
	PredictedGain float64
	// PredictedStallDelta is the memory-aware objective's predicted
	// reduction in expert-stall seconds per token (stale minus fresh
	// placement, positive = improvement); zero unless Options.MemoryAware
	// priced the re-solve. RealizedStallDelta is the measured counterpart —
	// charged stall per token before the migration began minus after it
	// completed — filled into the report once post-migration traffic has
	// been observed.
	PredictedStallDelta float64
	RealizedStallDelta  float64
	// ResidencyChurn counts HBM-resident expert copies the migration
	// invalidates under tiered expert memory; ChurnSeconds is the re-warm
	// that restores them, priced into Seconds. Each destination GPU
	// refetches its arrivals over its own host link and all GPUs refill at
	// once, so ChurnSeconds is the busiest GPU's refetch time, not the
	// cluster total. Both zero when the memory layer is off.
	ResidencyChurn int
	ChurnSeconds   float64
}

// pendingMigration sequences a rolling re-placement across replicas: only
// the replica whose index equals next is stalled at any time, so the rest of
// the fleet keeps serving while parameters move.
type pendingMigration struct {
	newPl *placement.Placement
	event *MigrationEvent
	next  int
	// invalidated marks that the node-level shared host cache has already
	// dropped the moved experts' master copies (done once, on the first
	// replica's install — the canonical weights changed for the whole node).
	invalidated bool
}

// pendingSolve is a background re-solve in flight: the controller snapshots
// the live window, hands the solve to a goroutine, and the server charges
// Options.SolveSeconds to the simulated clock as overlap — the fleet keeps
// serving while the solver runs, exactly as a production control plane
// would re-solve off the serving path.
type pendingSolve struct {
	// started / score are the drift observation that launched the solve.
	started float64
	score   float64
	// pooled is the window's pooled transition distribution at solve start:
	// the staleness reference. If the live distribution drifts past the
	// detector threshold again while the solve runs, the solution answers a
	// stale question and is discarded.
	pooled [][]float64
	// counts is the deep-copied window snapshot the solve runs on.
	counts [][][]float64
	// mo is the memory objective priced into the solve (nil when off).
	mo *placement.MemoryObjective
	// wall is the host wall-clock seconds the solve actually took, measured
	// by the solver goroutine via Metrics.Now (0 when no registry). Written
	// before the result send, read after the receive.
	wall float64
	// result delivers the solved placement; the channel is buffered so the
	// solver goroutine never blocks on a consumer.
	result chan *placement.Placement
}

// controller is the background re-placement loop: it watches the live
// TraceWindow through a drift Detector and, when drift persists, snapshots
// the window, re-solves the placement on the snapshot in a background
// goroutine (observe), and — once the solve's simulated latency has elapsed
// — prices the migration and hands the server a rolling migration plan
// (complete). The FPTAS-for-ISSP lineage motivates treating this as an
// incremental budgeted step — canonicalization keeps the move set
// near-minimal and the minimum-gain gate rejects re-solves that would churn
// parameters for marginal benefit.
type controller struct {
	opts   *runConfig
	window *TraceWindow
	det    *Detector

	// churn, when set (tiered expert memory on), prices the HBM residency a
	// move set would invalidate: count and refetch seconds.
	churn func([]placement.Move) (int, float64)

	// met caches the controller's metric handles (zero value when metrics
	// are off).
	met serveMetrics
	// minGain is the minimum fractional per-token cost reduction worth
	// migrating for: defaultMinGain, raised by tests to force rejections.
	minGain float64

	// pooled is the drift checks' scratch: observe scores the pooled window
	// in it and complete's staleness check reuses it. A launched solve takes
	// the matrix over as its staleness reference, and the next check pools
	// into a new one.
	pooled [][]float64

	cooldownUntil float64
	solves        int
	discards      int
}

func newController(opts *runConfig, window *TraceWindow, baseline [][]float64) *controller {
	return &controller{
		opts:    opts,
		window:  window,
		det:     NewDetector(JS, opts.threshold, patience, baseline),
		met:     newServeMetrics(opts.Metrics),
		minGain: defaultMinGain,
	}
}

// observe scores the live window and, when the detector fires under the
// controller's gating conditions, snapshots the window and launches a
// background re-solve, returning its handle (nil otherwise). busy indicates
// a migration or another solve is already in flight.
func (c *controller) observe(now float64, cur *placement.Placement, busy bool) (float64, *pendingSolve) {
	// One pooling serves both the detector score and (below) the staleness
	// snapshot; Observe does not retain the matrix.
	c.pooled = c.window.PooledInto(c.pooled)
	score, fired := c.det.Observe(c.pooled)
	dl := c.opts.Decisions
	if !c.opts.Adaptive {
		return score, nil
	}
	switch {
	case busy:
		dl.Logf(now, "skip-busy drift=%.4f (solve or migration in flight)", score)
		return score, nil
	case !fired:
		dl.Logf(now, "observe drift=%.4f threshold=%.4f fired=false", score, c.opts.threshold)
		return score, nil
	}
	if fill := c.window.Fill(); fill < minFill {
		dl.Logf(now, "skip-fill drift=%.4f fill=%.2f<%.2f", score, fill, minFill)
		return score, nil
	}
	if now < c.cooldownUntil {
		dl.Logf(now, "skip-cooldown drift=%.4f cooldown-until=%.3fs", score, c.cooldownUntil)
		return score, nil
	}
	counts := c.window.Snapshot()
	c.solves++
	c.met.solves.Inc()
	// Under memory-aware re-placement the solver prices expected expert
	// stall alongside crossings, with the live window as the demand oracle —
	// the once-optimal hot-set split decays with routing drift exactly like
	// the crossing structure does.
	mo := c.memObjective(cur, counts)
	ps := &pendingSolve{
		started: now,
		score:   score,
		pooled:  c.pooled,
		counts:  counts,
		mo:      mo,
		result:  make(chan *placement.Placement, 1),
	}
	c.pooled = nil // the pending solve keeps the matrix
	seed := c.opts.Seed + uint64(c.solves)*0x51ED
	layers, experts := cur.Layers, cur.Experts
	tp, workers := c.opts.topo, c.opts.SolveWorkers
	reg := c.opts.Metrics
	if tr := c.opts.Trace; tr != nil {
		tr.Emit(obs.Event{Kind: obs.EvSolveStart, Rep: -1, GPU: -1, Layer: -1, Expert: -1, T: now, Value: score})
	}
	dl.Logf(now, "solve-launch drift=%.4f window-fill=%.2f workers=%d memory-aware=%v",
		score, c.window.Fill(), workers, mo.Active())
	go func() {
		t0 := reg.Now()
		pl := placement.StagedOpt(counts, layers, experts, tp, seed,
			placement.StagedOptions{Memory: mo, Workers: workers, Obs: reg})
		ps.wall = reg.Now() - t0
		ps.result <- pl
	}()
	return score, ps
}

// complete collects a finished background solve: it applies the staleness
// guard, prices the candidate placement against the snapshot it was solved
// on, and returns a migration plan — or nil when the solve is discarded
// (stale) or rejected (below the minimum gain).
func (c *controller) complete(now float64, cur *placement.Placement, ps *pendingSolve) *pendingMigration {
	fresh := <-ps.result
	c.met.solverWall.Observe(ps.wall)
	dl := c.opts.Decisions
	tr := c.opts.Trace
	// Staleness guard: if routing drifted past the detector threshold again
	// while the solve ran, the solution optimizes a distribution that no
	// longer exists. Discard it — the detector streak is still hot, so the
	// next drift check launches a new solve on the fresher window.
	c.pooled = c.window.PooledInto(c.pooled)
	if div := Divergence(JS, ps.pooled, c.pooled); div > c.opts.threshold {
		c.discards++
		c.met.discards.Inc()
		if tr != nil {
			tr.Emit(obs.Event{Kind: obs.EvSolveDiscard, Rep: -1, GPU: -1, Layer: -1, Expert: -1, T: now, Value: div})
		}
		dl.Logf(now, "solve-discard staleness=%.4f>threshold=%.4f (window moved while solving; overlap=%.3fs)",
			div, c.opts.threshold, now-ps.started)
		return nil
	}
	canon := placement.CanonicalizeTopo(cur, fresh, c.opts.topo.GPUsPerNode)
	// Gain is measured in modeled per-token service time, the quantity the
	// queue actually feels — not raw crossings, which weight an NVLink hop
	// the same as an IB hop. The memory-aware term adds each placement's
	// predicted stall per token on top of the hop cost.
	gain := 0.0
	staleStall, freshStall := ps.mo.StallPerToken(cur), ps.mo.StallPerToken(canon)
	staleCost := c.perTokenCost(ps.counts, cur) + staleStall
	freshCost := c.perTokenCost(ps.counts, canon) + freshStall
	if staleCost > 0 {
		gain = 1 - freshCost/staleCost
	}
	if gain < c.minGain {
		// Not worth the parameter traffic; back off before re-solving again.
		c.cooldownUntil = now + cooldown
		c.det.Rebase(c.det.baseline) // clear the hot streak, keep the baseline
		c.met.rejects.Inc()
		if tr != nil {
			tr.Emit(obs.Event{Kind: obs.EvSolveReject, Rep: -1, GPU: -1, Layer: -1, Expert: -1, T: now, Value: gain})
		}
		dl.Logf(now, "solve-reject gain=%.4f<mingain=%.4f (stale=%.6fs/token fresh=%.6fs/token) cooldown-until=%.3fs",
			gain, c.minGain, staleCost, freshCost, c.cooldownUntil)
		return nil
	}
	// Price exactly the placement being installed (PriceMigration would
	// re-canonicalize and could plan for a different relabeling).
	plan := placement.PriceMoves(placement.Diff(cur, canon), c.opts.topo, c.opts.expertBytes)
	ev := &MigrationEvent{
		SolveStarted:        ps.started,
		SolveSeconds:        now - ps.started,
		Time:                now,
		Score:               ps.score,
		Moves:               len(plan.Moves),
		CrossNodeMoves:      plan.CrossNodeMoves,
		Seconds:             plan.Seconds,
		PredictedGain:       gain,
		PredictedStallDelta: staleStall - freshStall,
	}
	if c.churn != nil {
		// Under oversubscription the migration does not just copy
		// parameters: it destroys the HBM residency of every moved expert,
		// and each replica refills that hot set before serving at speed
		// again. Charge the refetch to the pause so the event prices the
		// full cost of churn.
		ev.ResidencyChurn, ev.ChurnSeconds = c.churn(plan.Moves)
		if ps.mo.Active() {
			// Warm-set re-warm: the flat resident-count hook above charges
			// a full refetch for every moved expert that happened to be
			// resident, but an expert outside the destination's warm set
			// re-warms for free — its misses are already priced into the
			// steady-state stall. Charge each
			// arrival's fetch only when it lands in the destination's warm
			// set; keep the hook's churn count as the invalidation tally.
			ev.ChurnSeconds = ps.mo.RewarmSeconds(canon, plan.Moves)
		}
		ev.Seconds += ev.ChurnSeconds
	}
	if tr != nil {
		// The solve span covers the whole overlap window (launch to accept) on
		// the controller track; Value carries the predicted gain, Aux the move
		// count of the plan being installed.
		tr.Emit(obs.Event{Kind: obs.EvSolve, Rep: -1, GPU: -1, Layer: -1, Expert: -1,
			T: ps.started, Dur: now - ps.started, Value: gain, Aux: int64(ev.Moves)})
	}
	c.met.predStallDelta.Set(ev.PredictedStallDelta)
	dl.Logf(now, "solve-accept gain=%.4f>=mingain=%.4f moves=%d cross-node=%d pause/replica=%.3fms pred-stall-delta=%.6fs/token churn=%d",
		gain, c.minGain, ev.Moves, ev.CrossNodeMoves, ev.Seconds*1e3, ev.PredictedStallDelta, ev.ResidencyChurn)
	return &pendingMigration{newPl: canon, event: ev}
}

// memObjective builds the memory-aware placement objective over the live
// window counts, or nil when memory-aware re-placement is off. At
// oversubscription 1 the objective is built but inactive, keeping the
// re-solve bit-identical to the crossing-only path. Both the solve and the
// migration's PredictedStallDelta price residency with this objective.
func (c *controller) memObjective(cur *placement.Placement, counts [][][]float64) *placement.MemoryObjective {
	if !c.opts.MemoryAware || c.opts.Oversubscription == 0 {
		return nil
	}
	return residencyObjective(c.opts, cur.Layers, cur.Experts, counts)
}

// residencyObjective builds the residency-pricing oracle shared by the
// controller's memory-aware re-solves and the fleet tier's stall estimate
// (the autoscaler's capacity input), with the given transition counts as
// the demand oracle.
func residencyObjective(o *runConfig, layers, experts int, counts [][][]float64) *placement.MemoryObjective {
	if o.Oversubscription == 0 {
		return nil
	}
	pol, err := expertmem.ParsePolicy(o.CachePolicy)
	if err != nil {
		return nil // Validate already rejected this; belt and braces
	}
	cfg := expertmem.ConfigFor(o.topo, layers, experts, o.expertBytes,
		o.Oversubscription, pol, expertmem.DefaultPrefetchK, o.HostSlots, counts)
	mo := placement.NewMemoryObjective(cfg, o.cost.PerCrossHop)
	// Serving is bulk-synchronous over MaxBatch-token iterations: a batch
	// demands each expert at most once per layer, so the per-token demand
	// oracle overstates residency churn by up to the batch size. Deflate it
	// so the objective prices what the residency table actually sees.
	mo.DeflateBatch(o.MaxBatch)
	return mo
}

// perTokenCost evaluates the cost model's per-token service time for a
// placement against a transition-count tensor: the count-weighted same-node
// and cross-node transition fractions plugged into the fitted coefficients.
func (c *controller) perTokenCost(counts [][][]float64, pl *placement.Placement) float64 {
	var node, cross, total float64
	for j := range counts {
		for from := range counts[j] {
			gFrom := pl.GPUOf(j, from)
			for to, w := range counts[j][from] {
				if w == 0 {
					continue
				}
				total += w
				switch c.opts.topo.Classify(gFrom, pl.GPUOf(j+1, to)) {
				case topo.SameNode:
					node += w
				case topo.CrossNode:
					cross += w
				}
			}
		}
	}
	if total == 0 {
		return 0
	}
	m := c.opts.cost
	return m.PerToken + m.PerNodeHop*node/total + m.PerCrossHop*cross/total
}

// finish is called when the last replica adopted the new placement: the live
// distribution becomes the new baseline and the cooldown window opens.
func (c *controller) finish(now float64) {
	// The detector retains its baseline, so it gets a fresh matrix.
	c.det.Rebase(c.window.Pooled())
	c.cooldownUntil = now + cooldown
}
