package serve

import (
	"repro/internal/expertmem"
	"repro/internal/obs"
	"repro/internal/placement"
)

// LayerStallTimeline is the serve layer's per-layer expert-stall
// approximation: it walks one bulk-synchronous decode iteration through a
// tiered expert-weight memory and returns the stall added to the iteration
// clock. paths[i][j] is token i's routed expert at layer j (only the first
// batch rows are read); computeDur is the iteration's memory-free duration,
// spread uniformly across layers — the overlap budget prefetches hide
// behind.
//
// The walk is set-granular. Per layer, every distinct (owner GPU, expert)
// pair among the batch is demanded once and the layer stalls for the
// slowest access (the iteration is bulk-synchronous); then — under a
// prefetching policy — each distinct routed expert's affinity successors
// are hinted to their layer-(j+1) owners, each distinct successor once, so
// their transfers overlap the remaining layer-j compute exactly as the
// engine overlaps them across its hint Alltoall (which exchanges hints as a
// per-rank set too). A hint lands on its owner GPU at that GPU's *own*
// post-stall instant (t plus the GPU's own demand stall this layer, not the
// fleet-wide maximum): in the engine each rank processes received hints
// right after its own demand fetches complete, so an unstalled owner starts
// speculating while the slowest rank is still fetching. Issuing at the
// shared layer start would drop hints against the owner's in-flight demand
// transfer (speculation never queues); issuing at the fleet-wide post-stall
// point would rob unstalled owners of overlap. Both mistimings were caught —
// as systematic hit-rate undershoot — when this model was first validated
// against engine runs by the conformance suite.
//
// Hinting each successor once per layer changes no simulated number against
// hinting it once per routed token. No demand access runs during a layer's
// hint phase, every hint to owner g carries the same instant, and g's link
// only frees later; so after (g, successor) has been hinted once, a repeat
// is declined as link-busy (g issued a fetch since), as present, or as
// no-slot (nothing on g changed) — before any residency, link, host-tier or
// Stats write. Only the declined-hint counter and trace events saw repeats.
//
// The engine charges the same misses per rank on per-rank clocks instead;
// the two models are held to agree by the cross-layer stall-model
// conformance suite (TestStallModelConformance in the root package), which
// replays identical routing through both.
func LayerStallTimeline(mem *expertmem.Manager, pl *placement.Placement, paths [][]int, batch int, now, computeDur float64) float64 {
	st, _ := layerStallCore(&stallScratch{}, mem, pl, paths, batch, now, computeDur, nil, 0, false)
	return st
}

// stallScratch is layerStallCore's per-layer working state, kept by the
// server so a serve iteration's walk allocates nothing. seen, failedKeys and
// hinted are indexed by expert id: within one layer every expert has exactly
// one owner GPU, so the expert alone identifies its (GPU, expert) demand or
// its next-layer hint. seen and hinted are cleared before their pass;
// failedKeys is all false between layers. demanded is the layer's distinct
// demanded experts in first-occurrence order — the set the hint pass walks
// instead of the batch rows.
type stallScratch struct {
	gpuStall   []float64
	seen       []bool // expert already demanded this layer
	failedKeys []bool // expert's fetch exhausted its retries this layer
	hinted     []bool // next-layer expert already hinted this layer
	demanded   []int  // distinct demanded experts, first occurrence first
}

// layerStallCore is LayerStallTimeline as the serve loop runs it: on the
// server's reused scratch sc, with span emission, and optionally under the
// chaos fetch-timeout model.
//
// With a tracer, each (GPU, layer) demand stall greater than zero becomes an
// EvExpertStall span on the GPU's track, starting at the layer's
// post-compute instant for that GPU. A nil tracer is the zero-overhead path
// (bit-identical stalls).
//
// When checked, demand accesses may exhaust their retries and fail. A failed
// (GPU, expert) fetch poisons every batch row routed through it this layer —
// those rows' weights will never arrive, so they drop out of the walk (no
// further demand, no prefetch hints) and their indices are returned for the
// caller to shed. With no timeout armed, failures are impossible and the
// stall is bit-identical to the unchecked walk.
func layerStallCore(sc *stallScratch, mem *expertmem.Manager, pl *placement.Placement, paths [][]int, batch int, now, computeDur float64, tr *obs.Tracer, rep int, checked bool) (float64, []int) {
	if !mem.Oversubscribed() {
		return 0, nil
	}
	layers := pl.Layers
	perLayer := computeDur / float64(layers)
	prefetch := mem.Prefetching()
	t := now
	total := 0.0
	if len(sc.gpuStall) != pl.GPUs || len(sc.seen) != pl.Experts {
		*sc = stallScratch{
			gpuStall:   make([]float64, pl.GPUs),
			seen:       make([]bool, pl.Experts),
			failedKeys: make([]bool, pl.Experts),
			hinted:     make([]bool, pl.Experts),
			demanded:   make([]int, 0, pl.Experts),
		}
	}
	seen, gpuStall, failedKeys, hinted := sc.seen, sc.gpuStall, sc.failedKeys, sc.hinted
	var failed []bool    // lazily allocated: rows dropped by a failed fetch
	var failedRows []int // their indices, in discovery order
	for j := 0; j < layers; j++ {
		clear(seen)
		clear(gpuStall)
		demanded := sc.demanded[:0]
		owners := pl.Assign[j]
		anyFailed := false
		stall := 0.0
		// Demand accesses first: same-instant speculation must never delay
		// them (Prefetch only uses idle link bandwidth anyway). A GPU's
		// accesses serialize on its host link and its clock advances
		// through each stall — exactly how the engine charges a rank — so
		// each access is issued at the GPU's accumulated post-stall time
		// and the GPU's total stall is its demand-completion offset.
		for i := 0; i < batch; i++ {
			if failed != nil && failed[i] {
				continue
			}
			e := paths[i][j]
			if seen[e] {
				continue
			}
			seen[e] = true
			demanded = append(demanded, e)
			gpu := owners[e]
			if checked {
				st, ok := mem.AccessChecked(gpu, j, e, t+gpuStall[gpu])
				gpuStall[gpu] += st
				if !ok {
					failedKeys[e] = true
					anyFailed = true
				}
			} else {
				gpuStall[gpu] += mem.Access(gpu, j, e, t+gpuStall[gpu])
			}
			if gpuStall[gpu] > stall {
				stall = gpuStall[gpu]
			}
		}
		sc.demanded = demanded
		if anyFailed {
			if failed == nil {
				failed = make([]bool, batch)
			}
			for i := 0; i < batch; i++ {
				if !failed[i] && failedKeys[paths[i][j]] {
					failed[i] = true
					failedRows = append(failedRows, i)
				}
			}
		}
		// Hints walk the layer's expert set, not its rows: an expert with a
		// surviving row is exactly a demanded expert whose fetch did not
		// fail, and first-occurrence order issues every first hint in the
		// order a row-by-row walk would. Repeats are skipped (see
		// LayerStallTimeline for why they could only be declined).
		if prefetch && j+1 < layers {
			clear(hinted)
			next := pl.Assign[j+1]
			for _, e := range demanded {
				if failedKeys[e] {
					continue
				}
				for _, s := range mem.Successors(j, e) {
					if hinted[s] {
						continue
					}
					hinted[s] = true
					owner := next[s]
					mem.Prefetch(owner, j+1, s, t+gpuStall[owner])
				}
			}
		}
		if anyFailed {
			clear(failedKeys)
		}
		if tr != nil {
			for g, st := range gpuStall {
				if st > 0 {
					tr.Emit(obs.Event{Kind: obs.EvExpertStall, Rep: int32(rep), GPU: int32(g),
						Layer: int32(j), Expert: -1, T: t, Dur: st, Value: st})
				}
			}
		}
		total += stall
		t += perLayer + stall
	}
	return total, failedRows
}
