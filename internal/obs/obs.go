// Package obs is the zero-dependency observability layer for the simulated
// serving stack: a span/event recorder (Tracer) and a metrics registry
// (Registry), both keyed to the *simulated* clock, plus exporters — a
// Chrome/Perfetto trace_event JSON writer (perfetto.go) and a human-readable
// controller decision log (decisionlog.go).
//
// Everything in the package honors a nil fast path: a nil *Tracer, *Counter,
// *Gauge, *Histogram or *DecisionLog accepts every call as a no-op without
// allocating, so instrumented hot paths cost nothing measurable when
// observability is off (pinned by TestNilFastPathAllocs and
// BenchmarkNilTracerEmit). Instrumentation therefore threads optional
// pointers, never interface values — interface boxing would allocate on the
// disabled path.
//
// Timestamps are simulated seconds throughout. The only host-wall-clock
// surface is Registry.Now, used to time placement solves
// (solver_wall_seconds); tests pin it with Registry.SetNow so exports stay
// byte-deterministic.
package obs

import "sync"

// EventKind is the typed event taxonomy. Kinds marked high-volume below are
// subject to TracerOptions.Sample.
type EventKind uint8

const (
	// EvAdmit / EvFinish bracket one request's life: admitted to a replica's
	// queue, final token decoded. Aux is the request index.
	EvAdmit EventKind = iota
	EvFinish
	// EvIteration is one decode iteration on a replica (engine: on a rank):
	// a span of Dur seconds. Aux is the batch size (engine: iteration index).
	EvIteration
	// EvExpertStall is one GPU's demand expert-miss stall inside one layer of
	// a bulk-synchronous iteration: a span of Dur seconds on the GPU's track.
	EvExpertStall
	// EvFetch is a demand expert-weight fetch (a miss): a span covering the
	// host-link transfer. EvEvict marks a residency eviction.
	EvFetch
	EvEvict
	// EvPrefetchIssue / EvPrefetchHit / EvPrefetchDrop are the speculative
	// path: a speculative fetch issued, a prefetched expert serving a later
	// demand access, and a hint dropped (link busy, already present, or no
	// evictable slot).
	EvPrefetchIssue
	EvPrefetchHit
	EvPrefetchDrop
	// EvSolveStart / EvSolve / EvSolveDiscard / EvSolveReject are the
	// controller's background re-solve: launch instant, the full overlap
	// window as a span, and the two no-migration outcomes (stale result
	// discarded; gain below the minimum). Value on EvSolveStart is the drift
	// score that fired.
	EvSolveStart
	EvSolve
	EvSolveDiscard
	EvSolveReject
	// EvInstall is one replica adopting a migrated placement (instant);
	// EvPause is that replica's parameter-copy pause as a span.
	EvInstall
	EvPause
	// EvDrift is a drift-detector observation; Value is the score. Rendered
	// as a Perfetto counter track.
	EvDrift
	// EvQueueDepth samples the fleet-wide queued+active request count
	// (Value). Rendered as a Perfetto counter track.
	EvQueueDepth
	// EvScaleUp / EvScaleDown are autoscaler actions: a replica beginning its
	// warm-up (EvScaleUp spans the parameter-copy + cache-fill time) and a
	// replica drained out of the serving set. Aux is the replica id.
	EvScaleUp
	EvScaleDown
	// EvShed is one request dropped after a retry-exhausted expert fetch
	// (internal/chaos). Aux is the request index.
	EvShed
	// EvFleetSize samples the committed (live + warming) replica count
	// (Value). Rendered as a Perfetto counter track.
	EvFleetSize
	// EvCrash / EvRecover are injected replica faults (internal/chaos): the
	// crash instant (Aux is the replica id, Value the requests re-dispatched)
	// and the replica serving again (Value is the downtime in seconds).
	EvCrash
	EvRecover
	// EvLinkDegrade is one scheduled degraded-host-link window as a span
	// (Value is the bandwidth slowdown factor).
	EvLinkDegrade
	// EvFetchRetry is one fetch attempt abandoned at the stall timeout and
	// re-issued after backoff (Aux is the attempt number); EvPreempt is a
	// speculative transfer cancelled by a demand fetch under preemptible DMA.
	EvFetchRetry
	EvPreempt

	numEventKinds = int(EvPreempt) + 1
)

// String names the kind as it appears in exported traces.
func (k EventKind) String() string {
	switch k {
	case EvAdmit:
		return "admit"
	case EvFinish:
		return "finish"
	case EvIteration:
		return "iteration"
	case EvExpertStall:
		return "expert-stall"
	case EvFetch:
		return "fetch"
	case EvEvict:
		return "evict"
	case EvPrefetchIssue:
		return "prefetch"
	case EvPrefetchHit:
		return "prefetch-hit"
	case EvPrefetchDrop:
		return "prefetch-drop"
	case EvSolveStart:
		return "solve-start"
	case EvSolve:
		return "solve"
	case EvSolveDiscard:
		return "solve-discard"
	case EvSolveReject:
		return "solve-reject"
	case EvInstall:
		return "install"
	case EvPause:
		return "migration-pause"
	case EvDrift:
		return "drift-score"
	case EvQueueDepth:
		return "queue-depth"
	case EvScaleUp:
		return "scale-up"
	case EvScaleDown:
		return "scale-down"
	case EvShed:
		return "shed"
	case EvFleetSize:
		return "fleet-size"
	case EvCrash:
		return "crash"
	case EvRecover:
		return "recover"
	case EvLinkDegrade:
		return "link-degrade"
	case EvFetchRetry:
		return "fetch-retry"
	case EvPreempt:
		return "preempt"
	default:
		return "unknown"
	}
}

// highVolume marks the kinds that scale with tokens x layers x GPUs rather
// than with control-plane activity; only these are thinned by
// TracerOptions.Sample. Control-plane events (solves, migrations, drift
// scores) are never sampled away — they are exactly what a trace is opened
// to see.
var highVolume = [numEventKinds]bool{
	EvAdmit:         true,
	EvFinish:        true,
	EvExpertStall:   true,
	EvFetch:         true,
	EvEvict:         true,
	EvPrefetchIssue: true,
	EvPrefetchHit:   true,
	EvPrefetchDrop:  true,
	EvShed:          true,
	// Fetch retries and preemptions ride the per-fetch path and scale with
	// traffic; crash/recover/degrade events are control-plane and never
	// thinned.
	EvFetchRetry: true,
	EvPreempt:    true,
}

// Event is one recorded occurrence on the simulated clock. It is a flat
// value type (no pointers, no interfaces) so emitting one allocates nothing.
type Event struct {
	Kind EventKind
	// Rep is the replica (serve) or 0 (engine); -1 marks fleet-level events
	// (the controller's track). GPU is the device within the replica, -1 for
	// replica- or fleet-level events. Layer/Expert are -1 when not
	// applicable.
	Rep, GPU, Layer, Expert int32
	// T is the event time in simulated seconds; Dur > 0 makes the event a
	// span ending at T+Dur.
	T, Dur float64
	// Value is the kind-specific scalar (drift score, queue depth, stall
	// seconds); Aux the kind-specific integer (batch size, move count,
	// request index).
	Value float64
	Aux   int64
}

// TracerOptions configures a Tracer.
type TracerOptions struct {
	// Cap bounds the ring storage in events; once full, the oldest events
	// are overwritten (the tail of a long run is what a trace viewer is
	// opened on). Zero means DefaultTracerCap.
	Cap int
	// Sample keeps one in Sample events of each high-volume kind (admits,
	// finishes, expert stalls, fetches, prefetch traffic), counted per kind
	// so thinning is deterministic. Zero or one keeps everything.
	// Control-plane events are always kept.
	Sample int
}

// DefaultTracerCap bounds the ring when TracerOptions.Cap is zero: 1<<18
// events (~16 MiB) comfortably holds a full bench-scale serving run.
const DefaultTracerCap = 1 << 18

// Tracer records typed events into a bounded ring. All methods are safe for
// concurrent use (the engine emits from one goroutine per rank) and safe on
// a nil receiver, where they cost two instructions and zero allocations.
type Tracer struct {
	mu      sync.Mutex
	ring    []Event
	next    int    // write cursor
	wrapped bool   // ring has overwritten at least one event
	emitted uint64 // events stored (post-sampling)
	dropped uint64 // events thinned by sampling
	sample  int
	seen    [numEventKinds]uint64 // per-kind emit attempts (sampling basis)
}

// NewTracer builds a tracer.
func NewTracer(opts TracerOptions) *Tracer {
	c := opts.Cap
	if c <= 0 {
		c = DefaultTracerCap
	}
	s := opts.Sample
	if s < 1 {
		s = 1
	}
	return &Tracer{ring: make([]Event, 0, c), sample: s}
}

// Emit records one event. Nil tracers drop it for free; high-volume kinds
// are thinned to one in Sample occurrences.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.sample > 1 && highVolume[e.Kind] {
		n := t.seen[e.Kind]
		t.seen[e.Kind] = n + 1
		if n%uint64(t.sample) != 0 {
			t.dropped++
			t.mu.Unlock()
			return
		}
	}
	t.emitted++
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, e)
	} else {
		t.ring[t.next] = e
		t.wrapped = true
	}
	t.next++
	if t.next == cap(t.ring) {
		t.next = 0
	}
	t.mu.Unlock()
}

// Enabled reports whether events are being recorded — for callers that want
// to skip building expensive event payloads, mirroring the nil check.
func (t *Tracer) Enabled() bool { return t != nil }

// Len returns the number of events currently held (bounded by Cap).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.ring)
}

// Emitted and Dropped report the stored-event and sampling-drop totals, so a
// truncated or thinned trace is detectable rather than silently partial.
func (t *Tracer) Emitted() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.emitted
}

// Dropped returns the count of events thinned away by sampling.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Truncated reports whether the ring has overwritten old events.
func (t *Tracer) Truncated() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.wrapped
}

// Events returns the recorded events oldest-first. The slice is a copy.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.ring))
	if t.wrapped {
		out = append(out, t.ring[t.next:]...)
	}
	out = append(out, t.ring[:t.next]...)
	if !t.wrapped && t.next == 0 {
		// Ring filled exactly to capacity without wrapping leaves next at 0
		// with every element valid and already appended above via t.ring[:0];
		// fix up by appending the whole ring.
		out = append(out, t.ring...)
	}
	return out
}
