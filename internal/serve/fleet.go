package serve

import (
	"repro/internal/expertmem"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/stats"
)

// fleetState is the server's fleet-tier bookkeeping (nil when Options.Fleet
// is nil): the normalized spec, the shared host cache and autoscaler, the
// autoscaler's capacity inputs, and the run counters behind fleet.Report.
// The serve event loop drives everything; the fleet package holds only
// policy.
type fleetState struct {
	spec   fleet.Spec
	cache  *fleet.HostCache
	scaler *fleet.Autoscaler
	met    fleetMetrics

	// warmup is the simulated seconds a scale-up spends copying parameters
	// and filling its HBM working set before serving.
	warmup float64
	// stallEst is the predicted expert-stall seconds per full-batch-token
	// under the current placement (refreshed on the drift-check cadence);
	// fn/fc are the last iteration's dispatch fractions. Together they price
	// the fleet's decode capacity for the autoscaler.
	//
	// The raw oracle prices each token's expected miss independently, but an
	// iteration fetches each missing expert once for the whole batch, so
	// stall is really a per-iteration quantity: raw*MaxBatch runs a roughly
	// constant factor hot. calib is that factor, learned as an EWMA of
	// realized-per-iteration / predicted-per-iteration over the run: the
	// oracle stays the predictive signal (it jumps the instant the routing
	// mix shifts, before any stall is charged), the charged stall sets its
	// scale. Until the first calibration sample lands, stallEst stays zero —
	// optimistic capacity never triggers a spurious scale-up, and the first
	// drift check fixes it.
	stallEst  float64
	calib     float64
	haveCalib bool
	fn, fc    float64

	lastReconcile float64
	warming       int

	arrivals             int
	scaleUps, scaleDowns int
	maxLive              int

	repT, repY []float64

	// retiredStats accumulates memory-manager counters of replicas whose
	// manager was replaced on re-activation, so Report.ExpertMem still sums
	// the whole run.
	retiredStats expertmem.Stats
}

func newFleetState(o *runConfig) *fleetState {
	spec := o.Fleet.WithDefaults()
	return &fleetState{
		spec:   spec,
		scaler: fleet.NewAutoscaler(spec),
		met:    newFleetMetrics(o.Metrics),
	}
}

// newMem builds one replica's tiered memory: fresh residency tables warmed
// on the given assignment, wired to the shared host tier when one exists
// (before Warm, so the preload registers its master references).
func (s *server) newMem(r int, assign [][]int) *expertmem.Manager {
	mem := expertmem.New(s.memCfg)
	if s.fl != nil && s.fl.cache != nil {
		mem.SetHostTier(s.fl.cache, r)
	}
	s.applyChaosHooks(mem)
	mem.Warm(assign)
	mem.Instrument(s.opts.Trace, s.opts.Metrics, r)
	return mem
}

// liveCounts returns the serving replica count (live, not draining) and the
// committed count the autoscaler reconciles against (serving + warming;
// draining replicas are already leaving and do not count).
func (s *server) liveCounts() (live, committed int) {
	for _, r := range s.replicas {
		if r.warming {
			committed++
		}
		if r.live && !r.draining {
			live++
			committed++
		}
	}
	return live, committed
}

// sampleFleet records the committed replica count on the report series, the
// gauge, and the trace counter track.
func (s *server) sampleFleet(now float64) {
	fl := s.fl
	live, committed := s.liveCounts()
	if live > fl.maxLive {
		fl.maxLive = live
	}
	if n := len(fl.repT); n > 0 && fl.repT[n-1] == now {
		fl.repY[n-1] = float64(committed)
	} else {
		fl.repT = append(fl.repT, now)
		fl.repY = append(fl.repY, float64(committed))
	}
	fl.met.committed.Set(float64(committed))
	if s.tr != nil {
		s.tr.Emit(obs.Event{Kind: obs.EvFleetSize, Rep: -1, GPU: -1, Layer: -1, Expert: -1,
			T: now, Value: float64(committed)})
	}
}

// refreshFleetPricing rebuilds the autoscaler's capacity inputs on the
// drift-check cadence: the warm-set model's predicted stall per token over
// the live window under the current placement — the same oracle the
// solver's memory objective prices re-solves with, here pricing capacity
// instead — rescaled by the learned predicted-to-realized calibration
// factor (batch amortization the per-token oracle cannot see).
func (s *server) refreshFleetPricing(now float64) {
	fl := s.fl
	if !fl.spec.Autoscaling() {
		return
	}
	fl.stallEst = 0
	if s.mems == nil || !s.mems[0].Oversubscribed() {
		return
	}
	mo := residencyObjective(&s.opts, s.opts.placement.Layers, s.opts.placement.Experts, s.window.Snapshot())
	if mo == nil {
		return
	}
	raw := mo.StallPerToken(s.replicas[0].pl)
	if raw > 0 {
		// Realized stall per iteration over the recent window: the fetch
		// bill depends on the distinct experts an iteration touches, not on
		// how many tokens shared them, so per-iteration (normalized to full
		// batch) is the stable realized quantity — per-token would read
		// inflated exactly when the fleet idles on small batches.
		if sum, n := s.iterStallWindow(now - 4*checkInterval); n > 0 {
			r := sum / float64(n) / (raw * float64(s.opts.MaxBatch))
			if !fl.haveCalib {
				fl.calib, fl.haveCalib = r, true
			} else {
				fl.calib += 0.25 * (r - fl.calib)
			}
		}
	}
	if fl.haveCalib {
		fl.stallEst = fl.calib * raw
	}
	fl.met.stallEst.Set(fl.stallEst)
}

// iterStallWindow sums the charged expert-stall seconds and counts the
// iterations since t0.
func (s *server) iterStallWindow(t0 float64) (sum float64, n int) {
	for i := len(s.memSamples) - 1; i >= 0 && s.memSamples[i].t >= t0; i-- {
		sum += s.memSamples[i].stall
		n++
	}
	return sum, n
}

// replicaTokensPerSec estimates one replica's decode capacity at full
// batch: the locality model's iteration time at the last observed dispatch
// fractions, inflated by the calibrated paging stall per token.
func (s *server) replicaTokensPerSec() float64 {
	b := s.opts.MaxBatch
	iter := s.opts.cost.Time(b, s.fl.fn, s.fl.fc) + float64(b)*s.fl.stallEst
	if iter <= 0 {
		return 0
	}
	return float64(b) / iter
}

// maybeReconcile runs the autoscaler's reconciliation step on its own
// cadence, piggybacked on arrivals and iteration ends — no self-perpetuating
// clock events, so an idle run drains exactly as before.
func (s *server) maybeReconcile(now float64) {
	fl := s.fl
	if now-fl.lastReconcile < fl.spec.ReconcileInterval {
		return
	}
	fl.lastReconcile = now
	s.sampleFleet(now)
	if !fl.spec.Autoscaling() {
		return
	}
	if s.pending != nil {
		// Never resize the replica set under a rolling migration — the baton
		// hand-off assumes a stable live set. Keep the forecast warm so the
		// next reconcile acts on fresh demand.
		fl.scaler.Hold(now)
		return
	}
	_, committed := s.liveCounts()
	dec, ok := fl.scaler.Reconcile(now, committed, s.replicaTokensPerSec(), s.opts.DecodeTokens)
	if !ok {
		return
	}
	if dec.Delta > 0 {
		for i := 0; i < dec.Delta; i++ {
			s.scaleUp(now, dec)
		}
	} else {
		s.scaleDown(now, dec)
	}
}

// scaleUp marks a free replica slot warming and schedules its activation
// after the warm-up window (parameter copy + HBM cache fill over the host
// link), charged to the simulated clock like every other transfer.
func (s *server) scaleUp(now float64, dec fleet.Decision) {
	var slot *replica
	for _, r := range s.replicas {
		// Crashed slots with a scheduled recovery are reserved — the chaos
		// layer will bring them back itself.
		if !r.live && !r.warming && !r.crashed {
			slot = r
			break
		}
	}
	if slot == nil {
		return // MaxReplicas sized the slice; every slot live means at max
	}
	slot.warming = true
	s.fl.warming++
	s.fl.scaleUps++
	s.fl.met.scaleUps.Inc()
	if s.tr != nil {
		s.tr.Emit(obs.Event{Kind: obs.EvScaleUp, Rep: -1, GPU: -1, Layer: -1, Expert: -1,
			T: now, Dur: s.fl.warmup, Aux: int64(slot.id)})
	}
	s.opts.Decisions.Logf(now, "scale-up replica=%d rate=%.2freq/s desired=%d warmup=%.3fs",
		slot.id, dec.Rate, dec.Desired, s.fl.warmup)
	s.seq++
	s.events.push(event{t: now + s.fl.warmup, kind: evScaleUp, rep: slot.id, seq: s.seq, gen: slot.gen})
	s.sampleFleet(now)
}

// onScaleUp activates a warmed replica. It adopts the fleet's current
// placement lineage — the migrated placement when the rollout already passed
// its id, the pre-migration one otherwise (the rolling baton will reach it
// like any live replica) — and a fresh memory manager warmed on it.
func (s *server) onScaleUp(now float64, r *replica) {
	r.warming = false
	r.live = true
	s.fl.warming--
	pl := s.curPl
	if s.pending != nil && r.id < s.pending.next {
		pl = s.pending.newPl
	}
	r.pl = pl.Clone()
	if s.mems != nil {
		if old := s.mems[r.id]; old != nil {
			// A re-activated slot gets a cold manager (a new replica, not a
			// resurrected one); keep the old counters for the run totals.
			s.fl.retiredStats.Add(old.Stats())
		}
		s.mems[r.id] = s.newMem(r.id, r.pl.Assign)
	}
	s.opts.Decisions.Logf(now, "scale-up-complete replica=%d", r.id)
	s.sampleFleet(now)
	s.start(now, r)
}

// scaleDown drains one replica: it stops receiving arrivals and retires once
// its queue and batch are empty. Replica 0 is the anchor — drift scoring and
// churn pricing read it — and is never drained.
func (s *server) scaleDown(now float64, dec fleet.Decision) {
	var victim *replica
	for _, r := range s.replicas[1:] {
		if !r.live || r.draining {
			continue
		}
		if victim == nil || r.load() < victim.load() ||
			(r.load() == victim.load() && r.id > victim.id) {
			victim = r
		}
	}
	if victim == nil {
		return
	}
	victim.draining = true
	s.fl.scaleDowns++
	s.fl.met.scaleDowns.Inc()
	if s.tr != nil {
		s.tr.Emit(obs.Event{Kind: obs.EvScaleDown, Rep: -1, GPU: -1, Layer: -1, Expert: -1,
			T: now, Aux: int64(victim.id)})
	}
	// Graceful drain: queued requests never started decoding here — hand them
	// to the survivors immediately instead of making them wait out the drain
	// behind a retiring replica. In-flight actives finish in place.
	moved := victim.takeQueue()
	s.opts.Decisions.Logf(now, "scale-down replica=%d rate=%.2freq/s desired=%d streak=%d redispatched=%d draining-active=%d",
		victim.id, dec.Rate, dec.Desired, dec.Streak, len(moved), len(victim.active))
	if victim.load() == 0 && !victim.running && !victim.stalled {
		s.retireReplica(now, victim)
	} else {
		s.sampleFleet(now)
	}
	s.redispatch(now, moved)
}

// redispatch hands orphaned requests — a draining or crashed replica's — to
// the least-loaded serving replicas, then kicks every idle recipient.
func (s *server) redispatch(now float64, reqs []*request) {
	if len(reqs) == 0 {
		return
	}
	for _, rq := range reqs {
		var best *replica
		for _, t := range s.replicas {
			if !t.live || t.draining {
				continue
			}
			if best == nil || t.load() < best.load() {
				best = t
			}
		}
		// best is never nil: replica 0 anchors the fleet — it is never
		// drained, and chaos.Validate refuses to crash it.
		rq.replica = best.id
		best.queue = append(best.queue, rq)
	}
	for _, t := range s.replicas {
		if t.live && !t.draining {
			s.start(now, t)
		}
	}
}

// retireReplica removes a drained replica from the serving set and drops its
// shared-cache references so they stop pinning masters.
func (s *server) retireReplica(now float64, r *replica) {
	r.draining = false
	r.live = false
	if s.fl.cache != nil {
		s.fl.cache.ReleaseReplica(r.id)
	}
	s.opts.Decisions.Logf(now, "scale-down-complete replica=%d", r.id)
	s.sampleFleet(now)
	if s.pending != nil && s.pending.next == r.id {
		// The retiring replica held the rollout baton; pass it on.
		s.advanceRollout(now)
	}
}

// fleetReport builds the report's fleet section.
func (s *server) fleetReport() *fleet.Report {
	fl := s.fl
	live, _ := s.liveCounts()
	rep := &fleet.Report{
		Arrivals: fl.arrivals, ScaleUps: fl.scaleUps, ScaleDowns: fl.scaleDowns,
		MaxLive: fl.maxLive, FinalLive: live,
		Replicas: &stats.Series{Name: "fleet-replicas", X: fl.repT, Y: fl.repY},
	}
	if fl.cache != nil {
		cs := fl.cache.Stats()
		rep.HostCache = &cs
	}
	return rep
}
