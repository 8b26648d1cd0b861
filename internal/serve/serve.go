// Package serve is the online serving subsystem layered above the ExFlow
// pipeline: a discrete-event simulation of a multi-replica MoE deployment
// under continuous batching, whose per-iteration cost is a locality-aware
// model fit from real engine runs (workload.LocalityModel). While requests
// stream through, every decoded token's routing path is recorded in a
// sliding TraceWindow; a drift Detector compares the live transition
// distribution against the offline profiling baseline, and when routing
// drifts — the token mixture shifted and the once-optimal placement decays —
// a background controller re-solves the placement on the live window and
// applies it replica by replica, charging the parameter-copy pause to the
// simulated clock so its latency cost is visible in the report.
//
// The paper computes its placement once, offline (Section V-A); this package
// is the production loop that keeps that placement fresh under live traffic.
package serve

import (
	"errors"
	"slices"

	"repro/internal/expertmem"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/rng"
	"repro/internal/topo"
)

// errNoArrivals reports a traffic program too short or too slow to draw a
// single request.
var errNoArrivals = errors.New("serve: traffic program produced no arrivals")

// tokenOrdinalBase offsets serving token ordinals past both the profiling
// stream ([0, profileTokens)) and the engine's evaluation stream (1<<20 + …)
// so live traffic never replays profiled tokens.
const tokenOrdinalBase = 1 << 22

// maxProfileTokens bounds Options.ProfileTokens. The profile's ordinals
// [0, ProfileTokens) share one namespace with calibration's engine tokens
// (from 1<<20), the drift threshold's held-out slice (from 1<<21) and live
// traffic (from tokenOrdinalBase), so a longer profile would measure,
// score or serve the tokens it was solved on.
const maxProfileTokens = 1 << 20

// request is one in-flight generation request.
type request struct {
	arrival   float64
	phase     int
	remaining int
	finish    float64
	replica   int
	home      int // home GPU inside the replica (layer-0 dispatch origin)
	seq       int // index into server.arrivals
	// shed marks a request dropped after a retry-exhausted expert fetch
	// (chaos); it never finishes.
	shed bool
}

// replica is one expert-parallel deployment behind the front-end.
type replica struct {
	id int
	pl *placement.Placement
	// queue[qhead:] are the queued requests in arrival order. Admission
	// advances qhead instead of slicing the head away, and a drained queue
	// rewinds, so appends reuse the array. A queue that never drains keeps
	// its admitted prefix: at most one pointer per arrival of the run.
	queue   []*request
	qhead   int
	active  []*request
	running bool
	stalled bool
	admits  int
	// live / draining / warming are the fleet tier's lifecycle: serving,
	// finishing its queue before retiring, or copying parameters before
	// activation. Without a fleet every replica is permanently live.
	live     bool
	draining bool
	warming  bool
	// gen is the incarnation counter (see event.gen); crashed marks a slot
	// reserved by a scheduled chaos recovery (the autoscaler must not
	// re-commission it), with crashedAt the fault instant.
	gen       int
	crashed   bool
	crashedAt float64
}

// load is the front-end's routing metric: queued plus active requests.
func (r *replica) load() int { return len(r.queue) - r.qhead + len(r.active) }

// dequeue removes and returns the queue's head, rewinding an emptied queue.
func (r *replica) dequeue() *request {
	rq := r.queue[r.qhead]
	if r.qhead++; r.qhead == len(r.queue) {
		r.queue, r.qhead = r.queue[:0], 0
	}
	return rq
}

// takeQueue empties the queue and hands its requests over.
func (r *replica) takeQueue() []*request {
	out := r.queue[r.qhead:]
	r.queue, r.qhead = nil, 0
	return out
}

// Event kinds, in tie-break priority order at equal timestamps: crashes
// first (a fault at time T kills the replica before anything else at T can
// touch it), then scale-up activations and crash recoveries (a replica going
// live at time T must be visible to same-instant arrivals), then arrivals
// (so a request arriving exactly at an iteration boundary can be admitted by
// it), then stall completions, then background-solve completions (so an
// instantaneous solve's plan is visible to iteration ends at the same
// timestamp), then iteration completions.
const (
	evCrash = iota
	evScaleUp
	evRecover
	evArrival
	evStallEnd
	evSolveEnd
	evIterEnd
)

type event struct {
	t    float64
	kind int
	rep  int // replica id (evIterEnd, evStallEnd, evScaleUp, evRecover)
	seq  int // arrival index (evArrival); crash-fault index (evCrash); monotonic otherwise
	// gen stamps replica-targeted events with the replica's generation at
	// push time; a crash bumps the generation, invalidating every event the
	// dead incarnation still has in flight.
	gen int
}

// before reports whether a runs ahead of b: by time, then kind, replica and
// sequence number. gen is not compared.
func (a *event) before(b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	if a.rep != b.rep {
		return a.rep < b.rep
	}
	return a.seq < b.seq
}

// eventHeap is the simulation's binary min-heap of pending events. push and
// pop run container/heap's sift loops step for step, so the array evolves
// exactly as under container/heap and events that compare equal (they can
// differ only in gen) pop in the same order; being typed, they box nothing.
// Arrivals never enter it (see server.nextEvent).
type eventHeap []event

func (h eventHeap) less(i, j int) bool { return h[i].before(&h[j]) }

// push adds e (container/heap.Push).
func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

// pop removes and returns the earliest event (container/heap.Pop).
func (h *eventHeap) pop() event {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	old.down(0, n)
	e := old[n]
	*h = old[:n]
	return e
}

func (h eventHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h eventHeap) down(i, n int) {
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2 // right child
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// server is the run state.
type server struct {
	opts     runConfig
	replicas []*replica
	window   *TraceWindow
	ctrl     *controller
	// mems[r] is replica r's tiered expert-weight memory (nil slices when
	// Oversubscription is zero). paths is the per-iteration routing scratch
	// and stall the stall timeline's.
	mems  []*expertmem.Manager
	paths [][]int
	stall stallScratch
	// hops[src*GPUs+dst] is Topo.Classify(src, dst), built once so the
	// iteration loop classifies a dispatch hop without dividing.
	hops []topo.HopClass

	// fl is the fleet tier (nil when Options.Fleet is nil — every fleet
	// branch below is gated on it so the nil path stays bit-identical).
	// memCfg is retained so scale-ups can build fresh memory managers, and
	// curPl tracks the fleet's placement lineage for replicas activated
	// outside a rollout.
	fl     *fleetState
	memCfg expertmem.Config
	curPl  *placement.Placement

	// ch is the chaos layer (nil when Options.Chaos is nil or empty — every
	// chaos branch below is gated on it so the nil path stays bit-identical).
	ch *chaosState

	// tr/met are the observability hooks (nil / zero when off).
	tr  *obs.Tracer
	met serveMetrics

	events eventHeap
	// arrivals holds every request of the run, in arrival order, in one
	// array; queues and batches point into it. arrived counts those whose
	// arrival event has run.
	arrivals  []request
	arrived   int
	pending   *pendingMigration
	solving   *pendingSolve
	lastCheck float64
	ordinal   uint64
	seq       int

	iterations int
	batchTotal int
	memStall   float64     // expert-miss stall actually charged to iteration clocks
	memSamples []memSample // per-iteration stall samples (realized-delta accounting)
	decoded    []tick      // (time, tokens decoded) per iteration
	fracT      []float64
	fracY      []float64 // per-iteration cross-node dispatch fraction
	driftT     []float64
	driftY     []float64
	queueT     []float64
	queueY     []float64
	migrations []MigrationEvent
}

// tick is a timestamped count.
type tick struct {
	t float64
	n int
}

// memSample records one iteration's charged expert-stall and decode size,
// backing the migrations' realized stall-per-token deltas.
type memSample struct {
	t      float64
	stall  float64
	tokens int
}

// Run executes the serving simulation of the options on the deployment and
// returns its report. opts.Calibration supplies the initial placement, the
// drift baseline, the cost model and the drift threshold.
func Run(d Deployment, opts Options) (*Report, error) {
	cfg, err := resolve(d, opts)
	if err != nil {
		return nil, err
	}
	layers, experts := cfg.placement.Layers, cfg.placement.Experts
	s := &server{
		opts:   cfg,
		window: NewTraceWindow(layers, experts, cfg.Window),
		tr:     cfg.Trace,
		met:    newServeMetrics(cfg.Metrics),
	}
	s.ctrl = newController(&s.opts, s.window, Pool(cfg.baseline, experts))
	gpus := cfg.topo.TotalGPUs()
	s.hops = make([]topo.HopClass, gpus*gpus)
	for src := 0; src < gpus; src++ {
		for dst := 0; dst < gpus; dst++ {
			s.hops[src*gpus+dst] = cfg.topo.Classify(src, dst)
		}
	}
	s.curPl = cfg.placement
	// With an autoscaling fleet the replica slice holds every slot the spec
	// could ever commit; slots beyond the initial Replicas start dark.
	slots := cfg.Replicas
	if cfg.Fleet != nil {
		s.fl = newFleetState(&s.opts)
		if s.fl.spec.Autoscaling() && s.fl.spec.MaxReplicas > slots {
			slots = s.fl.spec.MaxReplicas
		}
	}
	for r := 0; r < slots; r++ {
		s.replicas = append(s.replicas, &replica{id: r, pl: cfg.placement.Clone(), live: r < cfg.Replicas})
	}
	if cfg.Chaos.Enabled() {
		s.ch = newChaosState(&s.opts)
	}
	if cfg.Oversubscription > 0 {
		pol, err := expertmem.ParsePolicy(cfg.CachePolicy)
		if err != nil {
			return nil, err
		}
		s.memCfg = expertmem.ConfigFor(cfg.topo, layers, experts, cfg.expertBytes,
			cfg.Oversubscription, pol, expertmem.DefaultPrefetchK, cfg.HostSlots, cfg.baseline)
		if s.fl != nil && s.fl.spec.SharedHostCache {
			// The shared node tier replaces each replica's private static
			// DRAM/NVMe split: one popularity-ranked master working set for
			// the whole node, seeded from the same affinity oracle.
			oracle := expertmem.New(s.memCfg)
			s.fl.cache = fleet.NewHostCache(layers, experts, cfg.HostSlots,
				cfg.topo.NVMePath().Time(cfg.expertBytes), oracle.Popularity)
		}
		s.mems = make([]*expertmem.Manager, len(s.replicas))
		for r := 0; r < cfg.Replicas; r++ {
			s.mems[r] = s.newMem(r, cfg.placement.Assign)
		}
		// The controller must price residency churn, not just parameter
		// copies. Replica 0's residency stands in for the fleet, mirroring
		// how drift is scored. At 1x nothing can ever churn (Resident is
		// vacuously true but no refetch happens), so the pricing hook stays
		// uninstalled.
		if s.mems[0].Oversubscribed() {
			s.ctrl.churn = func(moves []placement.Move) (int, float64) {
				return residencyChurn(s.mems[0], gpus, moves)
			}
		}
	}

	if s.fl != nil {
		s.fl.warmup = s.paramCopySeconds()
		s.sampleFleet(0)
	}
	if s.ch != nil {
		// A crash recovery pays the same parameter re-copy a scale-up does,
		// plus the re-warm surcharge charged when the recovery lands.
		s.ch.warmup = s.paramCopySeconds()
		s.scheduleChaos()
	}

	// Pre-draw every arrival: phase by phase, deterministic in the seed.
	ar := rng.New(rng.Mix64(cfg.Seed, 0xA881))
	times := make([][]float64, len(cfg.Phases))
	start, n := 0.0, 0
	for pi, p := range cfg.Phases {
		times[pi] = generateArrivals(ar, p, start)
		start += p.Duration
		n += len(times[pi])
	}
	if n == 0 {
		return nil, errNoArrivals
	}
	s.arrivals = make([]request, 0, n)
	for pi, ts := range times {
		for _, t := range ts {
			s.arrivals = append(s.arrivals, request{arrival: t, phase: pi, remaining: cfg.DecodeTokens, seq: len(s.arrivals)})
		}
	}

	for {
		e, ok := s.nextEvent()
		if !ok {
			break
		}
		// Replica-targeted events from a crashed incarnation are stale: the
		// generation check drops an iteration, stall, warm-up, or recovery
		// the fault aborted.
		switch e.kind {
		case evArrival:
			s.onArrival(e.t, &s.arrivals[e.seq])
		case evIterEnd:
			if e.gen == s.replicas[e.rep].gen {
				s.onIterEnd(e.t, s.replicas[e.rep])
			}
		case evStallEnd:
			if e.gen == s.replicas[e.rep].gen {
				s.onStallEnd(e.t, s.replicas[e.rep])
			}
		case evSolveEnd:
			s.onSolveEnd(e.t)
		case evScaleUp:
			if e.gen == s.replicas[e.rep].gen {
				s.onScaleUp(e.t, s.replicas[e.rep])
			}
		case evCrash:
			s.onCrash(e.t, e.seq)
		case evRecover:
			if e.gen == s.replicas[e.rep].gen {
				s.onRecover(e.t, s.replicas[e.rep])
			}
		}
	}
	return s.buildReport(), nil
}

// nextEvent removes and returns the run's earliest pending event, or false
// once none is left. Arrivals stay out of the event heap: the arrival at
// the cursor and the heap's top compete under the heap's own order, and the
// earlier one runs. That order is strict, so the pop
// sequence is the one a single heap holding every arrival would give. Two
// arrivals differ in seq, which rises with arrival time; two other events
// differ in (kind, seq), since crashes carry their fault index and every
// other event a fresh s.seq; an arrival and any other event differ in kind.
func (s *server) nextEvent() (event, bool) {
	if s.arrived < len(s.arrivals) {
		a := event{t: s.arrivals[s.arrived].arrival, kind: evArrival, seq: s.arrived}
		if len(s.events) == 0 || a.before(&s.events[0]) {
			s.arrived++
			return a, true
		}
	}
	if len(s.events) == 0 {
		return event{}, false
	}
	return s.events.pop(), true
}

// residencyChurn prices a migration's residency churn on one replica's
// tiered memory: a move invalidates its expert's HBM copy, and a resident
// copy must be refetched over the destination GPU's host link before the
// replica is warm again. Every GPU refetches over its own link at once, so
// the re-warm lasts as long as the busiest destination's refetches. It
// returns the resident copies invalidated and that re-warm time.
func residencyChurn(mem *expertmem.Manager, gpus int, moves []placement.Move) (int, float64) {
	n, perGPU := 0, make([]float64, gpus)
	for _, mv := range moves {
		if mem.Resident(mv.From, mv.Layer, mv.Expert) {
			n++
			perGPU[mv.To] += mem.FetchSeconds(mv.Layer, mv.Expert)
		}
	}
	return n, slices.Max(perGPU)
}

// paramCopySeconds is the simulated time to copy one replica's per-GPU HBM
// working set over the host link (GPUs fill in parallel; the links are
// per-GPU) — the warm-up a scale-up or crash recovery charges.
func (s *server) paramCopySeconds() float64 {
	perGPU := s.opts.placement.Layers * s.opts.placement.Experts / s.opts.topo.TotalGPUs()
	if s.opts.Oversubscription > 0 && s.memCfg.SlotsPerGPU < perGPU {
		perGPU = s.memCfg.SlotsPerGPU
	}
	return s.opts.topo.HostPath().Time(perGPU * s.opts.expertBytes)
}

// onArrival admits a request to the least-loaded serving replica's queue,
// after counting it into the fleet tier's demand forecast (when enabled).
func (s *server) onArrival(now float64, rq *request) {
	if s.fl != nil {
		s.fl.arrivals++
		s.fl.scaler.ObserveArrival()
		s.maybeReconcile(now)
	}
	var best *replica
	for _, r := range s.replicas {
		if (s.fl != nil || s.ch != nil) && (!r.live || r.draining) {
			continue
		}
		if best == nil || r.load() < best.load() {
			best = r
		}
	}
	if best == nil {
		return // unreachable: replica 0 is never drained and cannot crash
	}
	rq.replica = best.id
	best.queue = append(best.queue, rq)
	s.met.requests.Inc()
	if s.tr != nil {
		s.tr.Emit(obs.Event{Kind: obs.EvAdmit, Rep: int32(best.id), GPU: -1, Layer: -1, Expert: -1, T: now})
	}
	if !best.running && !best.stalled {
		s.start(now, best)
	}
}

// onIterEnd retires finished requests, runs the drift check, and begins the
// replica's next activity (stall or iteration).
func (s *server) onIterEnd(now float64, r *replica) {
	r.running = false
	kept := r.active[:0]
	for _, rq := range r.active {
		rq.remaining--
		if rq.remaining == 0 {
			rq.finish = now
			s.met.finished.Inc()
			if s.tr != nil {
				s.tr.Emit(obs.Event{Kind: obs.EvFinish, Rep: int32(r.id), GPU: -1, Layer: -1, Expert: -1,
					T: now, Value: now - rq.arrival})
			}
		} else {
			kept = append(kept, rq)
		}
	}
	s.decoded = append(s.decoded, tick{t: now, n: len(r.active)})
	r.active = kept

	if s.fl != nil {
		s.maybeReconcile(now)
		if r.draining && r.load() == 0 {
			s.retireReplica(now, r)
		}
	}
	s.maybeCheckDrift(now)

	if s.pending != nil && s.pending.next == r.id && !r.stalled && r.live {
		s.beginStall(now, r)
		return
	}
	s.start(now, r)
}

// onStallEnd installs the new placement on the migrated replica and passes
// the baton to the next one.
func (s *server) onStallEnd(now float64, r *replica) {
	r.stalled = false
	if s.mems != nil {
		moves := placement.Diff(r.pl, s.pending.newPl)
		if s.fl != nil && s.fl.cache != nil && !s.pending.invalidated {
			// Coherence: the migration rewrites the moved experts' canonical
			// weights, so the node's shared master copies are stale the
			// moment the first replica installs. Invalidate once; replicas
			// refetch from NVMe on next demand.
			s.pending.invalidated = true
			for _, mv := range moves {
				s.fl.cache.Invalidate(mv.Layer, mv.Expert)
			}
		}
		// The parameter copy lands each moved expert on its new owner's HBM
		// and invalidates the stale copy — the residency churn the
		// controller priced into the pause.
		for _, mv := range moves {
			s.mems[r.id].Relocate(mv.Layer, mv.Expert, mv.From, mv.To, now)
		}
	}
	r.pl = s.pending.newPl.Clone()
	if s.tr != nil {
		s.tr.Emit(obs.Event{Kind: obs.EvInstall, Rep: int32(r.id), GPU: -1, Layer: -1, Expert: -1,
			T: now, Aux: int64(s.pending.event.Moves)})
	}
	s.advanceRollout(now)
	s.start(now, r)
}

// advanceRollout passes the rolling-migration baton to the next live
// replica, completing the migration when none remain. Dark fleet slots
// (never activated, or retired) hold no parameters and are skipped; a
// replica activated later adopts the migrated placement directly.
func (s *server) advanceRollout(now float64) {
	p := s.pending
	p.next++
	for p.next < len(s.replicas) && !s.replicas[p.next].live {
		p.next++
	}
	if p.next >= len(s.replicas) {
		p.event.Completed = now
		s.migrations = append(s.migrations, *p.event)
		s.met.migrations.Inc()
		s.opts.Decisions.Logf(now, "migration-complete started=%.3fs pause/replica=%.3fms moves=%d",
			p.event.Time, p.event.Seconds*1e3, p.event.Moves)
		s.curPl = p.newPl
		s.pending = nil
		s.ctrl.finish(now)
	} else if nxt := s.replicas[p.next]; !nxt.running && !nxt.stalled {
		s.beginStall(now, nxt)
	}
}

// beginStall pauses a replica for the migration's parameter-copy time.
func (s *server) beginStall(now float64, r *replica) {
	r.stalled = true
	s.met.pauseSeconds.Observe(s.pending.event.Seconds)
	if s.tr != nil {
		s.tr.Emit(obs.Event{Kind: obs.EvPause, Rep: int32(r.id), GPU: -1, Layer: -1, Expert: -1,
			T: now, Dur: s.pending.event.Seconds})
	}
	s.seq++
	s.events.push(event{t: now + s.pending.event.Seconds, kind: evStallEnd, rep: r.id, seq: s.seq, gen: r.gen})
}

// maybeCheckDrift runs the periodic drift observation and, when the
// controller launches a background re-solve, schedules its completion on
// the simulated clock. The solve overlaps serving: no replica pauses until
// the solve lands, clears the staleness guard, and becomes a migration.
func (s *server) maybeCheckDrift(now float64) {
	if now-s.lastCheck < checkInterval {
		return
	}
	s.lastCheck = now
	if s.fl != nil {
		s.refreshFleetPricing(now)
	}
	// Crash transients pollute the drift signal: redispatch spikes the queue
	// while the fleet absorbs the lost capacity, none of which is routing
	// drift. Inside the quiet window the controller still scores (the series
	// stays continuous) but launches no solve.
	quiet := s.ch != nil && now < s.ch.quietUntil
	// All replicas share placement lineage; score drift against replica 0's.
	score, solve := s.ctrl.observe(now, s.replicas[0].pl, s.pending != nil || s.solving != nil || quiet)
	s.driftT = append(s.driftT, now)
	s.driftY = append(s.driftY, score)
	depth := 0
	for _, r := range s.replicas {
		depth += r.load()
	}
	s.queueT = append(s.queueT, now)
	s.queueY = append(s.queueY, float64(depth))
	s.met.drift.Set(score)
	s.met.queueDepth.Set(float64(depth))
	if s.tr != nil {
		s.tr.Emit(obs.Event{Kind: obs.EvDrift, Rep: -1, GPU: -1, Layer: -1, Expert: -1, T: now, Value: score})
		s.tr.Emit(obs.Event{Kind: obs.EvQueueDepth, Rep: -1, GPU: -1, Layer: -1, Expert: -1, T: now, Value: float64(depth)})
	}
	if solve == nil {
		return
	}
	s.solving = solve
	s.seq++
	s.events.push(event{t: now + s.opts.SolveSeconds, kind: evSolveEnd, seq: s.seq})
}

// onSolveEnd collects the background re-solve. The wall-clock join with the
// solver goroutine happens inside complete; the simulated clock already
// charged the solve as overlap (the fleet kept decoding since SolveStarted).
func (s *server) onSolveEnd(now float64) {
	ps := s.solving
	s.solving = nil
	plan := s.ctrl.complete(now, s.replicas[0].pl, ps)
	if plan == nil {
		return // discarded (stale) or rejected (below the minimum gain)
	}
	s.pending = plan
	// Idle replicas produce no events; if the first in line is idle, stall
	// it immediately so the rollout is not wedged behind silence.
	if r := s.replicas[plan.next]; !r.running && !r.stalled {
		s.beginStall(now, r)
	}
}

// start admits queued requests into free slots and launches one decode
// iteration, routing every active token to obtain the iteration's dispatch
// locality under the replica's current placement.
func (s *server) start(now float64, r *replica) {
	if r.stalled || r.running {
		return
	}
	gpus := s.opts.topo.TotalGPUs()
	for len(r.active) < s.opts.MaxBatch && r.qhead < len(r.queue) {
		rq := r.dequeue()
		rq.home = r.admits % gpus
		r.admits++
		r.active = append(r.active, rq)
	}
	if len(r.active) == 0 {
		return
	}
	layers := s.opts.kernel.Layers
	for len(s.paths) < len(r.active) {
		s.paths = append(s.paths, make([]int, layers))
	}
	var perClass [topo.CrossNode + 1]int // dispatch hops per hop class
	for i, rq := range r.active {
		ds := s.opts.Phases[rq.phase].Dataset
		id := ds.TokenID(tokenOrdinalBase + s.ordinal)
		s.ordinal++
		path := s.paths[i]
		s.opts.kernel.PathInto(id, ds.TokenDomain(id), path)
		s.window.Push(path)
		at := rq.home
		for j := 0; j < layers; j++ {
			owner := r.pl.GPUOf(j, path[j])
			perClass[s.hops[at*gpus+owner]]++
			at = owner
		}
	}
	node, cross := perClass[topo.SameNode], perClass[topo.CrossNode]
	total := float64(perClass[topo.SameGPU] + node + cross)
	fn, fc := float64(node)/total, float64(cross)/total
	dt := s.opts.cost.Time(len(r.active), fn, fc)
	var failedRows []int
	if s.mems != nil {
		st, failed := s.memoryStalls(r, len(r.active), now, dt)
		dt += st
		failedRows = failed
		// The metric mirrors the report field addition-for-addition so the
		// exported mem_stall_seconds equals Report.MemStallSeconds exactly.
		s.memStall += st
		s.met.memStall.Add(st)
		s.memSamples = append(s.memSamples, memSample{t: now, stall: st, tokens: len(r.active)})
	}
	s.fracT = append(s.fracT, now)
	s.fracY = append(s.fracY, fc)
	if s.fl != nil {
		s.fl.fn, s.fl.fc = fn, fc
	}
	s.iterations++
	s.batchTotal += len(r.active)
	s.met.iterations.Inc()
	s.met.tokens.Add(float64(len(r.active)))
	s.met.iterSeconds.Observe(dt)
	if s.tr != nil {
		s.tr.Emit(obs.Event{Kind: obs.EvIteration, Rep: int32(r.id), GPU: -1, Layer: -1, Expert: -1,
			T: now, Dur: dt, Aux: int64(len(r.active))})
	}
	r.running = true
	s.seq++
	s.events.push(event{t: now + dt, kind: evIterEnd, rep: r.id, seq: s.seq, gen: r.gen})
	if len(failedRows) > 0 {
		// Retry-exhausted fetches stranded these tokens' iterations: shed
		// them now (the batch accounting above already counted the launch)
		// so the run degrades gracefully instead of hanging on weights that
		// never arrive.
		s.shedFailedRows(now, r, failedRows)
	}
}

// memoryStalls walks one iteration's per-layer timeline through the
// replica's tiered expert-weight memory (see LayerStallTimeline) and
// returns the total stall added to the iteration, plus — when the chaos
// fetch-timeout model is armed — the batch rows whose tokens hit a
// retry-exhausted fetch and must be shed.
func (s *server) memoryStalls(r *replica, batch int, now, computeDur float64) (float64, []int) {
	checked := s.ch != nil && s.ch.sched.FetchTimeout > 0
	return layerStallCore(&s.stall, s.mems[r.id], r.pl, s.paths, batch, now, computeDur, s.tr, r.id, checked)
}
