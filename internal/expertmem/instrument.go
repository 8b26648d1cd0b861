package expertmem

import "repro/internal/obs"

// memMetrics caches the registry handles the manager touches on its hot
// paths, so instrumentation costs one nil check per update rather than a map
// lookup. The zero value (all nil handles) is the observability-off fast
// path.
type memMetrics struct {
	fetchSeconds *obs.Histogram
	stallSeconds *obs.Counter
	bytesFetched *obs.Counter

	hits, lateHits, misses, bypasses *obs.Counter

	evictions, prefetches, prefetchHits, wastedPrefetches *obs.Counter

	// prefetchDrops (expertmem_prefetch_drops_total) counts declined
	// Prefetch calls, one per call, as does EvPrefetchDrop. The serve stall
	// walk makes one call per distinct (layer, successor) hint, so there it
	// counts distinct declined hints per layer, not routed tokens.
	prefetchDrops *obs.Counter

	// Chaos fetch-model counters; registered only when a chaos hook is
	// installed (SetLinkScale / SetFetchRetry / SetPreemptibleDMA), so
	// fault-free runs keep exactly today's exported metric name set.
	fetchRetries, fetchTimeouts, fetchFailures, preemptions *obs.Counter
}

// Prefetch-drop reasons, carried in EvPrefetchDrop's Aux field.
const (
	// DropLinkBusy: the GPU's host link was occupied; speculation only rides
	// idle bandwidth.
	DropLinkBusy = 1
	// DropPresent: the expert was already resident or in flight.
	DropPresent = 2
	// DropNoSlot: no slot could be freed without evicting pinned or
	// in-flight entries.
	DropNoSlot = 3
)

// Instrument attaches a tracer and/or metrics registry to the manager,
// tagging every emitted event with the given replica index. Either argument
// may be nil; calling with both nil (or never calling) leaves the manager on
// the zero-cost fast path. Call before the first Access.
func (m *Manager) Instrument(tr *obs.Tracer, reg *obs.Registry, rep int) {
	m.tr = tr
	m.rep = int32(rep)
	if reg == nil {
		m.met = memMetrics{}
		return
	}
	m.met = memMetrics{
		fetchSeconds:     reg.Histogram("expertmem_fetch_seconds", obs.SecondsBuckets()),
		stallSeconds:     reg.Counter("expertmem_stall_seconds"),
		bytesFetched:     reg.Counter("expertmem_bytes_fetched_total"),
		hits:             reg.Counter("expertmem_hits_total"),
		lateHits:         reg.Counter("expertmem_late_hits_total"),
		misses:           reg.Counter("expertmem_misses_total"),
		bypasses:         reg.Counter("expertmem_bypasses_total"),
		evictions:        reg.Counter("expertmem_evictions_total"),
		prefetches:       reg.Counter("expertmem_prefetches_total"),
		prefetchHits:     reg.Counter("expertmem_prefetch_hits_total"),
		wastedPrefetches: reg.Counter("expertmem_wasted_prefetches_total"),
		prefetchDrops:    reg.Counter("expertmem_prefetch_drops_total"),
	}
	if m.chaosArmed() {
		m.met.fetchRetries = reg.Counter("expertmem_fetch_retries_total")
		m.met.fetchTimeouts = reg.Counter("expertmem_fetch_timeouts_total")
		m.met.fetchFailures = reg.Counter("expertmem_fetch_failures_total")
		m.met.preemptions = reg.Counter("expertmem_preemptions_total")
	}
}
