package serve

import (
	"repro/internal/chaos"
	"repro/internal/expertmem"
	"repro/internal/obs"
)

// chaosState is the server's fault-injection bookkeeping (nil when
// Options.Chaos is nil or empty). The chaos package holds the declarative
// schedule and its arithmetic; this file injects the faults into the event
// loop and ledgers their outcomes for Report.Faults.
type chaosState struct {
	sched  chaos.Schedule // WithDefaults-normalized copy
	met    chaosMetrics
	warmup float64 // parameter re-copy seconds a recovery charges

	// crashes indexes the schedule's crash faults (evCrash.seq); outcomeIdx
	// maps a dead replica to its open ledger row so the recovery can close
	// it.
	crashes    []chaos.Fault
	outcomes   []chaos.CrashOutcome
	outcomeIdx map[int]int

	// quietUntil suppresses solve launches while the fleet absorbs a crash
	// or recovery transient — redispatch spikes are capacity loss, not
	// routing drift.
	quietUntil float64

	recoveries   int
	downtime     float64
	redispatched int
	lostIters    int
	shed         int // requests shed on retry-exhausted fetches

	// retiredStats accumulates the memory-manager counters of crashed
	// replicas (their manager dies with them), so Report.ExpertMem still
	// sums the whole run.
	retiredStats expertmem.Stats
}

func newChaosState(o *runConfig) *chaosState {
	return &chaosState{
		sched:      o.Chaos.WithDefaults(),
		met:        newChaosMetrics(o.Metrics),
		outcomeIdx: make(map[int]int),
	}
}

// scheduleChaos seeds the event heap with the schedule's crash faults and
// records the degraded-link windows (the per-fetch slowdown itself is
// applied inside expertmem via the LinkFactor hook).
func (s *server) scheduleChaos() {
	ch := s.ch
	ch.crashes = ch.sched.Crashes()
	for i, f := range ch.crashes {
		s.events.push(event{t: f.At, kind: evCrash, seq: i})
	}
	for _, f := range ch.sched.Faults {
		if f.Kind != chaos.FaultLinkDegrade {
			continue
		}
		ch.met.degrades.Inc()
		if s.tr != nil {
			s.tr.Emit(obs.Event{Kind: obs.EvLinkDegrade, Rep: -1, GPU: -1, Layer: -1, Expert: -1,
				T: f.At, Dur: f.Duration, Value: f.Factor})
		}
	}
}

// applyChaosHooks installs the schedule's fetch-model hooks on one memory
// manager (no-op without a chaos layer). Called before Warm and Instrument.
func (s *server) applyChaosHooks(mem *expertmem.Manager) {
	if s.ch == nil {
		return
	}
	sc := &s.ch.sched
	if sc.Degraded() {
		mem.SetLinkScale(sc.LinkFactor)
	}
	if sc.FetchTimeout > 0 {
		mem.SetFetchRetry(sc.FetchTimeout, sc.FetchRetries, sc.FetchBackoff)
	}
	if sc.PreemptibleDMA {
		mem.SetPreemptibleDMA(true)
	}
}

// chaosQuiet extends the post-fault quiet window on the controller.
func (s *server) chaosQuiet(now float64) {
	s.ch.quietUntil = max(s.ch.quietUntil, now+2*checkInterval)
}

// onCrash kills a replica: its residency tables and in-flight iteration are
// lost, its queued and active requests re-dispatch to the survivors, and its
// shared-cache references are released. A fault with a recovery schedules it
// (parameter re-copy charged on the clock); one without leaves the slot free
// for the autoscaler to re-commission.
func (s *server) onCrash(now float64, idx int) {
	ch := s.ch
	f := ch.crashes[idx]
	r := s.replicas[f.Replica]
	if !r.live && !r.warming {
		return // dark or already-dead slot: nothing to kill
	}
	wasWarming := r.warming
	// Bump the incarnation: every event the dead replica still has in
	// flight (iteration end, migration stall, warm-up, recovery) is stale.
	r.gen++
	r.live = false
	r.warming = false
	r.draining = false
	r.stalled = false
	lost := 0
	if r.running {
		lost = 1
		r.running = false
	}
	if wasWarming && s.fl != nil {
		s.fl.warming--
	}
	moved := append(r.takeQueue(), r.active...)
	r.active = nil
	ch.redispatched += len(moved)
	ch.lostIters += lost
	ch.met.crashes.Inc()
	ch.met.redispatch.Add(float64(len(moved)))
	ch.met.lostIters.Add(float64(lost))
	ch.outcomeIdx[f.Replica] = len(ch.outcomes)
	ch.outcomes = append(ch.outcomes, chaos.CrashOutcome{Replica: f.Replica, At: now, Redispatched: len(moved)})
	if s.mems != nil && s.mems[r.id] != nil {
		// The crash destroys the replica's residency tables; keep the dead
		// manager's counters for the run totals.
		ch.retiredStats.Add(s.mems[r.id].Stats())
		s.mems[r.id] = nil
	}
	if s.fl != nil && s.fl.cache != nil {
		s.fl.cache.ReleaseReplica(r.id)
	}
	if s.tr != nil {
		s.tr.Emit(obs.Event{Kind: obs.EvCrash, Rep: int32(r.id), GPU: -1, Layer: -1, Expert: -1,
			T: now, Value: float64(len(moved)), Aux: int64(r.id)})
	}
	s.opts.Decisions.Logf(now, "chaos-crash replica=%d redispatched=%d lost-iterations=%d recovery=%v",
		r.id, len(moved), lost, f.Recovers())
	s.chaosQuiet(now)
	if s.pending != nil && s.pending.next == r.id {
		// The dead replica held the rollout baton; pass it on.
		s.advanceRollout(now)
	}
	if f.Recovers() {
		r.crashed = true
		r.crashedAt = now
		s.seq++
		s.events.push(event{t: now + f.RecoverAfter + ch.warmup, kind: evRecover,
			rep: r.id, seq: s.seq, gen: r.gen})
	}
	if s.fl != nil {
		s.sampleFleet(now)
	}
	// Hand the dead replica's work to the survivors and kick any idle ones —
	// they may have no event of their own coming.
	s.redispatch(now, moved)
}

// onRecover brings a crashed replica back. Two phases share the event kind:
// the first landing (no memory manager yet) adopts the fleet's placement
// lineage and rebuilds the residency tables with the re-warm surcharge
// charged to the clock (masters the crash dropped from the host cache come
// back from NVMe); once nothing more is owed the replica goes live.
func (s *server) onRecover(now float64, r *replica) {
	ch := s.ch
	pl := s.curPl
	if s.pending != nil && r.id < s.pending.next {
		pl = s.pending.newPl
	}
	if s.mems != nil && s.mems[r.id] == nil {
		r.pl = pl.Clone()
		mem := expertmem.New(s.memCfg)
		if s.fl != nil && s.fl.cache != nil {
			mem.SetHostTier(s.fl.cache, r.id)
		}
		s.applyChaosHooks(mem)
		extra := mem.WarmCharged(r.pl.Assign, now)
		mem.Instrument(s.opts.Trace, s.opts.Metrics, r.id)
		s.mems[r.id] = mem
		if extra > 0 {
			s.seq++
			s.events.push(event{t: now + extra, kind: evRecover, rep: r.id, seq: s.seq, gen: r.gen})
			return
		}
	} else if s.mems == nil {
		r.pl = pl.Clone()
	}
	r.crashed = false
	r.live = true
	down := now - r.crashedAt
	ch.recoveries++
	ch.downtime += down
	if i, ok := ch.outcomeIdx[r.id]; ok {
		ch.outcomes[i].RecoveredAt = now
	}
	ch.met.recoveries.Inc()
	if s.tr != nil {
		s.tr.Emit(obs.Event{Kind: obs.EvRecover, Rep: int32(r.id), GPU: -1, Layer: -1, Expert: -1,
			T: now, Value: down, Aux: int64(r.id)})
	}
	s.opts.Decisions.Logf(now, "chaos-recover replica=%d downtime=%.3fs", r.id, down)
	// The recovered replica is cold: quiet the controller while its
	// residency refills, for the same reason as the crash transient.
	s.chaosQuiet(now)
	if s.fl != nil {
		s.sampleFleet(now)
	}
	s.start(now, r)
}

// shedFailedRows drops the requests whose tokens hit a retry-exhausted fetch
// this iteration: their weights will never arrive, so they leave the batch
// (graceful degradation) instead of wedging it.
func (s *server) shedFailedRows(now float64, r *replica, rows []int) {
	drop := make(map[int]bool, len(rows))
	for _, i := range rows {
		drop[i] = true
	}
	kept := r.active[:0]
	for i, rq := range r.active {
		if !drop[i] {
			kept = append(kept, rq)
			continue
		}
		rq.shed = true
		s.ch.shed++
		s.ch.met.sheds.Inc()
		if s.tr != nil {
			s.tr.Emit(obs.Event{Kind: obs.EvShed, Rep: int32(r.id), GPU: -1, Layer: -1, Expert: -1,
				T: now, Aux: int64(rq.seq)})
		}
		s.opts.Decisions.Logf(now, "chaos-shed req=%d replica=%d reason=retry-exhausted", rq.seq, r.id)
	}
	r.active = kept
}

// faultReport assembles Report.Faults from the ledger plus the fleet-wide
// fetch failure-model counters.
func (s *server) faultReport(mem *expertmem.Stats) *chaos.Report {
	ch := s.ch
	fr := &chaos.Report{
		Crashes:            ch.outcomes,
		Recoveries:         ch.recoveries,
		DowntimeSeconds:    ch.downtime,
		Redispatched:       ch.redispatched,
		LostIterations:     ch.lostIters,
		LinkDegradeWindows: ch.sched.DegradeWindows(),
		ShedRetryExhausted: ch.shed,
	}
	if mem != nil {
		fr.FetchRetries = mem.FetchRetries
		fr.FetchTimeouts = mem.FetchTimeouts
		fr.RetryExhausted = mem.FetchFailures
		fr.Preemptions = mem.Preemptions
	}
	return fr
}
