// Package expertmem is the tiered expert-weight memory subsystem: it lets
// the system serve MoE checkpoints whose expert parameters exceed aggregate
// GPU HBM by paging expert weights across an HBM / host-DRAM / NVMe
// hierarchy — the same fast-memory/bulk-memory tradeoff packet-classification
// systems exploit to keep hot rules in TCAM while bulk state lives a tier
// down.
//
// Each GPU owns a bounded number of HBM expert slots (a residency table).
// Accessing a non-resident expert issues an asynchronous fetch over the
// GPU's host link; the caller is charged the simulated stall until the
// transfer completes. Fetches on one GPU serialize on its host-link channel,
// so speculative traffic genuinely contends with demand traffic. Master
// copies live in host DRAM, except that when the DRAM working set is itself
// bounded (Config.HostSlots) the coldest experts by affinity popularity fall
// through to NVMe and pay both hops.
//
// Residency is governed by a pluggable Policy: LRU, LFU, static
// pin-by-popularity, and the headline affinity policy, which reads the
// inter-layer affinity matrix — the same object the placement solver
// optimizes — as a full memory oracle. It is, by construction, a predictor
// of which experts a token will need at layer l+1 given its expert at layer
// l: eviction drops the expert with the least affinity mass (LRU is
// pathological under decode's cyclic layer scan; expected future demand is
// not), and when a token's layer-l expert is decided the manager
// speculatively fetches the top-k layer-(l+1) successors by affinity mass
// so the transfer overlaps layer-l compute.
//
// The Manager is sharded per GPU and is safe for the engine's SPMD use as
// long as every call for GPU g is made by rank g (each shard is then
// single-goroutine); the serving simulator drives all shards from its
// single-threaded event loop.
package expertmem

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/obs"
	"repro/internal/topo"
)

// Config describes one tiered expert-memory instance.
type Config struct {
	// Layers, Experts, GPUs give the expert-weight universe: Layers*Experts
	// weight tensors spread over GPUs by the placement.
	Layers, Experts, GPUs int
	// ExpertBytes is the parameter size of one expert (prices every fetch).
	ExpertBytes int
	// SlotsPerGPU is the HBM capacity budget in expert slots per GPU. Use
	// SlotsFor to derive it from an oversubscription ratio, or
	// SlotsForBytes from a byte budget.
	SlotsPerGPU int
	// HostLink is the HBM <-> host-DRAM path (see topo.Topology.HostPath).
	HostLink topo.LinkCost
	// NVMeLink is the host-DRAM <-> NVMe path, paid on top of HostLink for
	// experts whose master copy does not fit in DRAM (see HostSlots).
	NVMeLink topo.LinkCost
	// HostSlots bounds how many expert master copies fit in host DRAM
	// (fleet-wide for the replica). Zero means all of them; otherwise the
	// coldest Layers*Experts-HostSlots experts by popularity live on NVMe.
	HostSlots int
	// Policy selects the eviction policy (nil means LRU).
	Policy Policy
	// PrefetchK is how many affinity successors Successors returns per
	// routed expert; zero disables prefetching.
	PrefetchK int
	// Affinity is the inter-layer transition-count tensor
	// [layer][from][to] (layer in [0, Layers-2]) that powers both the
	// popularity ranking (warm preload, pinning, DRAM working set) and the
	// prefetch oracle. Nil degrades to index-order popularity and no
	// successor prediction.
	Affinity [][][]float64
}

// SlotsFor returns the per-GPU HBM slot budget for an oversubscription
// ratio: ratio 1 holds every expert a balanced placement assigns to the GPU,
// ratio 2 half of them, and so on.
func SlotsFor(layers, experts, gpus int, oversub float64) int {
	perGPU := layers * experts / gpus
	if oversub <= 1 {
		return perGPU
	}
	slots := int(math.Ceil(float64(perGPU) / oversub))
	if slots < 1 {
		slots = 1
	}
	return slots
}

// SlotsForBytes converts a per-GPU HBM byte budget into expert slots.
func SlotsForBytes(hbmBytes int64, expertBytes int) int {
	if expertBytes <= 0 {
		return 0
	}
	return int(hbmBytes / int64(expertBytes))
}

// DefaultPrefetchK is the prefetch fan-out the serving and engine
// integrations use: how many affinity successors the prefetcher chases per
// routed expert under the affinity policy.
const DefaultPrefetchK = 4

// ConfigFor derives the standard deployment config shared by the engine and
// serving integrations: the slot budget comes from the oversubscription
// ratio, clamped to what the topology's physical HBM can actually hold, and
// the fetch links come from the topology's memory-tier presets.
func ConfigFor(tp *topo.Topology, layers, experts, expertBytes int, oversub float64,
	pol Policy, prefetchK, hostSlots int, affinity [][][]float64) Config {
	gpus := tp.TotalGPUs()
	slots := SlotsFor(layers, experts, gpus, oversub)
	if byBytes := SlotsForBytes(tp.HBMCapacity(), expertBytes); byBytes >= 1 && byBytes < slots {
		slots = byBytes
	}
	return Config{
		Layers: layers, Experts: experts, GPUs: gpus,
		ExpertBytes: expertBytes,
		SlotsPerGPU: slots,
		HostLink:    tp.HostPath(),
		NVMeLink:    tp.NVMePath(),
		HostSlots:   hostSlots,
		Policy:      pol,
		PrefetchK:   prefetchK,
		Affinity:    affinity,
	}
}

// validate panics on impossible configuration (programmer error).
func (c *Config) validate() {
	if c.Layers <= 0 || c.Experts <= 0 || c.GPUs <= 0 {
		panic(fmt.Sprintf("expertmem: invalid shape %dx%d on %d gpus", c.Layers, c.Experts, c.GPUs))
	}
	if c.ExpertBytes <= 0 {
		panic("expertmem: ExpertBytes must be positive")
	}
	if c.SlotsPerGPU <= 0 {
		panic("expertmem: SlotsPerGPU must be positive")
	}
	if c.HostLink.Bandwidth <= 0 {
		panic("expertmem: HostLink bandwidth must be positive")
	}
	if c.HostSlots > 0 && c.NVMeLink.Bandwidth <= 0 {
		panic("expertmem: bounded HostSlots needs an NVMe link")
	}
}

// key identifies one expert weight tensor.
type key struct{ layer, expert int }

// Entry is one residency-table row: an expert weight tensor that is either
// resident in a GPU's HBM or in flight on its host link.
type Entry struct {
	Layer, Expert int
	readyAt       float64 // fetch completion time while in flight
	lastUse       float64
	uses          int
	pop           float64 // affinity popularity (the affinity policy's score)
	held          bool    // occupies a slot (resident or in flight)
	resident      bool
	pinned        bool
	prefetched    bool // brought in speculatively and not yet demanded
}

// shard is one GPU's residency table plus its host-link fetch channel.
type shard struct {
	gpu int
	// table is the dense residency table, indexed layer*Experts+expert; a
	// row is live while held. occ is the occupancy bitset over eviction
	// ranks: bit r is set while the row ranked r (the manager's byRank[r])
	// is held. used counts the set bits, the slots in use.
	table []Entry
	occ   []uint64
	used  int
	// rank is the manager's id -> eviction-rank table (shared, read-only).
	rank       []int
	linkFreeAt float64
	stats      Stats
	// hasSpec marks that the transfer currently occupying the link (through
	// specUntil) is the speculative fetch of specKey — the one preemptible
	// DMA may cancel for a demand miss.
	hasSpec   bool
	specKey   key
	specUntil float64
}

// lookup returns the live row for table id, or nil.
func (s *shard) lookup(id int) *Entry {
	if e := &s.table[id]; e.held {
		return e
	}
	return nil
}

// insert makes e the live row for (e.Layer, e.Expert) at table id, taking
// a slot; the caller has checked one is free.
func (s *shard) insert(id int, e Entry) {
	e.held = true
	s.table[id] = e
	r := s.rank[id]
	s.occ[r>>6] |= 1 << (r & 63)
	s.used++
}

// remove frees the slot of the live row at table id.
func (s *shard) remove(id int) {
	r := s.rank[id]
	s.occ[r>>6] &^= 1 << (r & 63)
	s.used--
	s.table[id] = Entry{}
}

// Stats counts one shard's (or, aggregated, one manager's) activity.
type Stats struct {
	// Accesses = Hits + LateHits + Misses.
	Accesses int
	// Hits are demand accesses served from HBM with zero stall.
	Hits int
	// LateHits are demand accesses that found their expert already in
	// flight and stalled only for the residual transfer.
	LateHits int
	// Misses are demand accesses that had to issue a full fetch.
	Misses int
	// Bypasses counts misses that could not be cached (every slot pinned or
	// in flight) and streamed through instead.
	Bypasses  int
	Evictions int
	// Prefetches / PrefetchHits / WastedPrefetches track the speculative
	// path: issued fetches, prefetched entries that served a later demand
	// access, and prefetched entries evicted untouched.
	PrefetchHits     int
	Prefetches       int
	WastedPrefetches int
	// StallSeconds is the total simulated time demand accesses waited.
	StallSeconds float64
	// BytesFetched is the total host-link traffic (demand + speculative).
	BytesFetched int64
	// NVMeFetches counts fetches whose master copy was not in host DRAM and
	// paid the NVMe hop (NVMeSeconds in total) — under the static split the
	// cold-by-popularity experts, under a shared HostTier whatever the
	// node-level cache missed.
	NVMeFetches int
	NVMeSeconds float64
	// Chaos fetch-model counters (all zero unless a chaos schedule arms the
	// fetch path): retry attempts issued after a stall timeout, attempts
	// abandoned at the timeout, demand fetches that exhausted their retries,
	// and speculative transfers cancelled by demand fetches under preemptible
	// DMA.
	FetchRetries  int
	FetchTimeouts int
	FetchFailures int
	Preemptions   int
}

// HitRate is the fraction of demand accesses served with zero stall.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// EffectiveHitRate is HitRate with the reporting convention for runs that
// recorded no accesses: the serving path skips the manager entirely when
// the budget is not binding (the 1x short-circuit), so zero accesses means
// every access was resident by construction — a 100% hit rate, not 0.
func (s Stats) EffectiveHitRate() float64 {
	if s.Accesses == 0 {
		return 1
	}
	return s.HitRate()
}

// Add accumulates another stats block.
func (s *Stats) Add(o Stats) {
	s.Accesses += o.Accesses
	s.Hits += o.Hits
	s.LateHits += o.LateHits
	s.Misses += o.Misses
	s.Bypasses += o.Bypasses
	s.Evictions += o.Evictions
	s.PrefetchHits += o.PrefetchHits
	s.Prefetches += o.Prefetches
	s.WastedPrefetches += o.WastedPrefetches
	s.StallSeconds += o.StallSeconds
	s.BytesFetched += o.BytesFetched
	s.NVMeFetches += o.NVMeFetches
	s.NVMeSeconds += o.NVMeSeconds
	s.FetchRetries += o.FetchRetries
	s.FetchTimeouts += o.FetchTimeouts
	s.FetchFailures += o.FetchFailures
	s.Preemptions += o.Preemptions
}

// String renders a compact summary.
func (s Stats) String() string {
	return fmt.Sprintf("expertmem: %d accesses, %.1f%% hit (%d late, %d miss), %.3fs stalled, %d prefetches (%d hits, %d wasted)",
		s.Accesses, s.HitRate()*100, s.LateHits, s.Misses, s.StallSeconds, s.Prefetches, s.PrefetchHits, s.WastedPrefetches)
}

// Manager is the tiered expert-weight memory: per-GPU residency shards, an
// async fetch model, and the affinity-derived popularity/prefetch oracles.
type Manager struct {
	cfg    Config
	policy Policy
	shards []*shard

	perGPU     int       // balanced expert instances per GPU
	hostOnNVMe []bool    // [layer*Experts+expert]: master copy on NVMe
	popularity []float64 // [layer*Experts+expert]: affinity mass
	succ       [][]int   // [layer*Experts+expert]: top-K layer+1 successors
	hostTime   float64   // HostLink.Time(ExpertBytes)
	nvmeTime   float64   // NVMeLink.Time(ExpertBytes)

	// rank and byRank are inverse permutations between layer*Experts+expert
	// ids and eviction ranks: popularity ascending, then id ascending (see
	// victim).
	rank, byRank []int

	// hostTier, when set, replaces the static hostOnNVMe split with a shared
	// node-level master-copy tier (see SetHostTier); tierRep is this
	// manager's replica id there.
	hostTier HostTier
	tierRep  int

	// Chaos fetch-model hooks (see SetLinkScale / SetFetchRetry /
	// SetPreemptibleDMA); the zero values leave the fetch model untouched.
	linkScale func(float64) float64
	ftTimeout float64
	ftRetries int
	ftBackoff float64
	preempt   bool

	// Observability (see Instrument); zero values are the no-op fast path.
	tr  *obs.Tracer
	rep int32
	met memMetrics
}

// New builds a manager. Call Warm before the first access to model the
// deployment-time preload of each GPU's most popular assigned experts.
func New(cfg Config) *Manager {
	cfg.validate()
	m := &Manager{
		cfg:      cfg,
		policy:   cfg.Policy,
		perGPU:   cfg.Layers * cfg.Experts / cfg.GPUs,
		hostTime: cfg.HostLink.Time(cfg.ExpertBytes),
	}
	if m.policy == nil {
		m.policy = LRU()
	}
	if cfg.NVMeLink.Bandwidth > 0 {
		m.nvmeTime = cfg.NVMeLink.Time(cfg.ExpertBytes)
	}
	m.buildOracles()
	// Every shard's occupancy bitset is carved from one array.
	n := cfg.Layers * cfg.Experts
	words := (n + 63) / 64
	occ := make([]uint64, cfg.GPUs*words)
	m.shards = make([]*shard, cfg.GPUs)
	for g := range m.shards {
		m.shards[g] = &shard{
			gpu:   g,
			table: make([]Entry, n),
			occ:   occ[g*words : (g+1)*words : (g+1)*words],
			rank:  m.rank,
		}
	}
	return m
}

// HostTier abstracts where expert master copies live between host DRAM and
// NVMe. The manager's default is its static popularity split (hostOnNVMe);
// a shared node-level cache (internal/fleet.HostCache) implements this
// interface so co-located replicas share one DRAM working set. FetchMaster
// returns the extra seconds a fetch pays beyond the host link (zero on a
// DRAM hit); Retain/Release track which replicas hold HBM copies fetched
// through a master so the tier never evicts a master some replica's HBM
// depends on re-fetching cheaply.
type HostTier interface {
	FetchMaster(rep, layer, expert int, now float64) float64
	Retain(rep, layer, expert int)
	Release(rep, layer, expert int)
}

// SetHostTier routes this manager's master-copy lookups through a shared
// host tier as replica rep. Call before Warm so the preload registers its
// references. With a tier installed the static hostOnNVMe split no longer
// decides fetch cost (the tier does), though FetchSeconds still reports the
// static estimate for pricing.
func (m *Manager) SetHostTier(t HostTier, rep int) {
	m.hostTier = t
	m.tierRep = rep
}

// retainMaster / releaseMaster notify the shared tier (no-ops without one)
// that this replica gained or lost an HBM copy of (layer, expert).
func (m *Manager) retainMaster(layer, expert int) {
	if m.hostTier != nil {
		m.hostTier.Retain(m.tierRep, layer, expert)
	}
}

func (m *Manager) releaseMaster(layer, expert int) {
	if m.hostTier != nil {
		m.hostTier.Release(m.tierRep, layer, expert)
	}
}

// SetLinkScale installs a host/NVMe bandwidth-degradation hook: every fetch
// starting at simulated time t runs fn(t) times slower (fn returns 1 outside
// degraded windows; see chaos.Schedule.LinkFactor). Call before Instrument.
func (m *Manager) SetLinkScale(fn func(now float64) float64) { m.linkScale = fn }

// SetFetchRetry arms the demand-fetch stall-timeout model: a demand transfer
// that would run longer than timeout seconds is abandoned at the timeout and
// re-issued after backoff idle seconds (doubling per attempt), up to retries
// retries; a fetch that exhausts them fails and AccessChecked reports it.
// Retries re-resolve the master-copy tier, so a first attempt that paid the
// NVMe hop (and thereby populated host DRAM) can succeed on retry from DRAM.
// Speculative prefetches are never retried. Call before Instrument.
func (m *Manager) SetFetchRetry(timeout float64, retries int, backoff float64) {
	m.ftTimeout = timeout
	m.ftRetries = retries
	m.ftBackoff = backoff
}

// SetPreemptibleDMA lets a demand miss cancel the speculative transfer
// occupying its GPU's host link and start immediately, instead of queueing
// FIFO behind speculation. Call before Instrument.
func (m *Manager) SetPreemptibleDMA(on bool) { m.preempt = on }

// chaosArmed reports whether any chaos fetch-model hook is installed.
func (m *Manager) chaosArmed() bool {
	return m.linkScale != nil || m.ftTimeout > 0 || m.preempt
}

// Oversubscribed reports whether the HBM budget is actually binding: when
// every assigned expert fits, the manager is a no-op and callers can skip
// its bookkeeping entirely (the 1x-adds-no-overhead guarantee).
func (m *Manager) Oversubscribed() bool { return m.cfg.SlotsPerGPU < m.perGPU }

// Prefetching reports whether the affinity prefetcher is active.
func (m *Manager) Prefetching() bool {
	return m.cfg.PrefetchK > 0 && m.policy.Prefetch() && m.succ != nil
}

// buildOracles precomputes popularity, the DRAM/NVMe master-copy split, and
// the top-K successor lists from the affinity tensor.
func (m *Manager) buildOracles() {
	n := m.cfg.Layers * m.cfg.Experts
	m.popularity = make([]float64, n)
	aff := m.cfg.Affinity
	if aff != nil {
		// Popularity of (l, e): incoming affinity mass for l > 0, outgoing
		// row mass for layer 0 (which has no incoming transitions).
		for l := 0; l < m.cfg.Layers && l < len(aff)+1; l++ {
			for e := 0; e < m.cfg.Experts; e++ {
				mass := 0.0
				if l == 0 {
					if len(aff) > 0 {
						for _, w := range aff[0][e] {
							mass += w
						}
					}
				} else {
					for from := range aff[l-1] {
						mass += aff[l-1][from][e]
					}
				}
				m.popularity[l*m.cfg.Experts+e] = mass
			}
		}
		if k := m.cfg.PrefetchK; k > 0 {
			// Every list is carved from one array, capped at its end.
			experts := m.cfg.Experts
			flat := make([]int, 0, len(aff)*experts*min(k, experts))
			m.succ = make([][]int, len(aff)*experts)
			var scratch []int
			for l := range aff {
				for from := 0; from < experts; from++ {
					start := len(flat)
					flat, scratch = appendTopK(flat, scratch, aff[l][from], k)
					m.succ[l*experts+from] = flat[start:len(flat):len(flat)]
				}
			}
		}
	}
	// Popularity never changes after this, so the first key of every
	// affinity eviction is ranked once: least mass first, ties by id.
	m.byRank = make([]int, n)
	for i := range m.byRank {
		m.byRank[i] = i
	}
	slices.SortFunc(m.byRank, func(a, b int) int {
		return cmp.Or(cmp.Compare(m.popularity[a], m.popularity[b]), cmp.Compare(a, b))
	})
	m.rank = make([]int, n)
	for r, id := range m.byRank {
		m.rank[id] = r
	}
	if m.cfg.HostSlots > 0 && m.cfg.HostSlots < n {
		// The coldest experts' master copies fall through to NVMe.
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		slices.SortStableFunc(order, func(a, b int) int { return byMassThenIndex(m.popularity, a, b) })
		m.hostOnNVMe = make([]bool, n)
		for _, idx := range order[m.cfg.HostSlots:] {
			m.hostOnNVMe[idx] = true
		}
	}
}

// appendTopK appends to dst the indices of the k largest row entries with
// positive mass, in decreasing order (ties broken by index). idx is reused
// scratch; both slices are returned.
func appendTopK(dst, idx []int, row []float64, k int) ([]int, []int) {
	idx = idx[:0]
	for i, w := range row {
		if w > 0 {
			idx = append(idx, i)
		}
	}
	slices.SortStableFunc(idx, func(a, b int) int { return byMassThenIndex(row, a, b) })
	return append(dst, idx[:min(k, len(idx))]...), idx
}

// byMassThenIndex orders indices by decreasing mass, ties by index.
func byMassThenIndex(mass []float64, a, b int) int {
	switch {
	case mass[a] > mass[b]:
		return -1
	case mass[a] < mass[b]:
		return 1
	}
	return cmp.Compare(a, b)
}

// id is the flat index of (layer, expert) in the per-expert tables.
func (m *Manager) id(layer, expert int) int { return layer*m.cfg.Experts + expert }

// popOf returns the affinity popularity of (layer, expert).
func (m *Manager) popOf(layer, expert int) float64 {
	return m.popularity[m.id(layer, expert)]
}

// Popularity returns the affinity-derived demand mass of (layer, expert) —
// the score Warm preloads by and the pin/affinity policies rank by. The
// memory-aware placement objective reads it so the solver and the runtime
// policy agree on what "hot" means.
func (m *Manager) Popularity(layer, expert int) float64 { return m.popOf(layer, expert) }

// Successors returns the top-K experts most likely at layer+1 given the
// routed expert at layer — the affinity matrix read as a prefetch oracle.
// Empty at the last layer or when prefetching is off.
func (m *Manager) Successors(layer, expert int) []int {
	if m.succ == nil || layer < 0 || layer >= len(m.succ)/m.cfg.Experts {
		return nil
	}
	return m.succ[layer*m.cfg.Experts+expert]
}

// FetchSeconds is the modeled time to bring one expert into HBM from its
// master copy tier (host DRAM, or NVMe then DRAM for cold experts).
func (m *Manager) FetchSeconds(layer, expert int) float64 {
	t := m.hostTime
	if m.hostOnNVMe != nil && m.hostOnNVMe[layer*m.cfg.Experts+expert] {
		t += m.nvmeTime
	}
	return t
}

// Warm preloads each GPU's most popular assigned experts up to the slot
// budget, modeling the deployment-time weight load. assign[layer][expert]
// is the owning GPU (a placement's Assign tensor). Under a pinning policy
// the preloaded set is immovable.
func (m *Manager) Warm(assign [][]int) { m.warm(assign, false, 0) }

// WarmCharged is Warm with the crash-recovery cost model: every preloaded
// expert's master copy is re-fetched through the tier at simulated time now
// (the crash dropped the replica's host-cache references, so some masters
// must come back from NVMe). It returns the extra simulated seconds the
// slowest GPU's preload pays beyond the plain host-link parameter copy —
// the re-warm surcharge the recovery timeline must absorb.
func (m *Manager) WarmCharged(assign [][]int, now float64) float64 {
	return m.warm(assign, true, now)
}

func (m *Manager) warm(assign [][]int, charged bool, now float64) float64 {
	pin := m.policy.Pin()
	type cand struct {
		k   key
		pop float64
	}
	perGPU := make([][]cand, m.cfg.GPUs)
	for l := 0; l < m.cfg.Layers && l < len(assign); l++ {
		for e := 0; e < m.cfg.Experts; e++ {
			g := assign[l][e]
			perGPU[g] = append(perGPU[g], cand{key{l, e}, m.popularity[l*m.cfg.Experts+e]})
		}
	}
	maxExtra := 0.0
	for g, cands := range perGPU {
		sort.SliceStable(cands, func(a, b int) bool {
			if cands[a].pop != cands[b].pop {
				return cands[a].pop > cands[b].pop
			}
			if cands[a].k.layer != cands[b].k.layer {
				return cands[a].k.layer < cands[b].k.layer
			}
			return cands[a].k.expert < cands[b].k.expert
		})
		s := m.shards[g]
		gpuExtra := 0.0
		for _, c := range cands {
			if s.used >= m.cfg.SlotsPerGPU {
				break
			}
			s.insert(m.id(c.k.layer, c.k.expert), Entry{
				Layer: c.k.layer, Expert: c.k.expert,
				resident: true, pinned: pin, pop: c.pop,
			})
			if charged {
				var hop float64
				if m.hostTier != nil {
					hop = m.hostTier.FetchMaster(m.tierRep, c.k.layer, c.k.expert, now)
				} else if m.hostOnNVMe != nil && m.hostOnNVMe[c.k.layer*m.cfg.Experts+c.k.expert] {
					hop = m.nvmeTime
				}
				if hop > 0 {
					s.stats.NVMeFetches++
					s.stats.NVMeSeconds += hop
				}
				if m.linkScale != nil {
					hop *= m.linkScale(now)
				}
				gpuExtra += hop
			}
			m.retainMaster(c.k.layer, c.k.expert)
		}
		if gpuExtra > maxExtra {
			// GPUs preload in parallel; the recovery waits for the slowest.
			maxExtra = gpuExtra
		}
	}
	return maxExtra
}

// Access is a demand access to expert (layer, expert) on the given GPU at
// simulated time now. It returns the stall the accessing computation must
// wait before the weights are usable. Misses issue a fetch on the GPU's
// host-link channel; if no slot can be freed the transfer streams through
// without caching.
func (m *Manager) Access(gpu, layer, expert int, now float64) float64 {
	stall, _ := m.AccessChecked(gpu, layer, expert, now)
	return stall
}

// AccessChecked is Access plus the fetch failure signal: ok is false when the
// demand fetch exhausted its chaos retry budget (SetFetchRetry), in which
// case the weights never arrive and the caller must shed the work that
// needed them. Without an armed retry model ok is always true.
func (m *Manager) AccessChecked(gpu, layer, expert int, now float64) (stall float64, ok bool) {
	s := m.shards[gpu]
	s.stats.Accesses++
	if !m.Oversubscribed() {
		s.stats.Hits++
		m.met.hits.Inc()
		return 0, true
	}
	k := key{layer, expert}
	id := m.id(layer, expert)
	if e := s.lookup(id); e != nil {
		stall := 0.0
		if !e.resident {
			if e.readyAt > now {
				stall = e.readyAt - now
				s.stats.LateHits++
				m.met.lateHits.Inc()
			} else {
				s.stats.Hits++
				m.met.hits.Inc()
			}
			e.resident = true
			if s.hasSpec && s.specKey == k {
				// The speculative transfer is now demand-owned; preempting
				// it would stall the very access it serves.
				s.hasSpec = false
			}
		} else {
			s.stats.Hits++
			m.met.hits.Inc()
		}
		if e.prefetched {
			s.stats.PrefetchHits++
			m.met.prefetchHits.Inc()
			if m.tr != nil {
				m.tr.Emit(obs.Event{Kind: obs.EvPrefetchHit, Rep: m.rep, GPU: int32(gpu),
					Layer: int32(layer), Expert: int32(expert), T: now})
			}
			e.prefetched = false
		}
		e.uses++
		e.lastUse = now + stall
		s.stats.StallSeconds += stall
		m.met.stallSeconds.Add(stall)
		return stall, true
	}
	// Miss: fetch over the serialized host link. Under preemptible DMA a
	// speculative transfer holding the link yields it first: the in-flight
	// prefetch is cancelled (slot freed, master reference released) and the
	// demand transfer starts immediately instead of queueing behind it.
	s.stats.Misses++
	m.met.misses.Inc()
	if m.preempt && s.hasSpec && s.linkFreeAt > now && s.specUntil == s.linkFreeAt {
		specID := m.id(s.specKey.layer, s.specKey.expert)
		if e := s.lookup(specID); e != nil && e.prefetched && !e.resident {
			s.remove(specID)
			m.releaseMaster(s.specKey.layer, s.specKey.expert)
			s.stats.Preemptions++
			m.met.preemptions.Inc()
			if m.tr != nil {
				m.tr.Emit(obs.Event{Kind: obs.EvPreempt, Rep: m.rep, GPU: int32(gpu),
					Layer: int32(s.specKey.layer), Expert: int32(s.specKey.expert), T: now})
			}
			s.linkFreeAt = now
		}
		s.hasSpec = false
	}
	ready, xfer, fetched := m.issueDemandFetch(s, k, now)
	stall = ready - now
	s.stats.StallSeconds += stall
	m.met.stallSeconds.Add(stall)
	if !fetched {
		return stall, false
	}
	m.met.fetchSeconds.Observe(xfer)
	if m.tr != nil {
		m.tr.Emit(obs.Event{Kind: obs.EvFetch, Rep: m.rep, GPU: int32(gpu),
			Layer: int32(layer), Expert: int32(expert), T: ready - xfer, Dur: xfer, Value: stall})
	}
	if m.freeSlot(s, now) {
		s.insert(id, Entry{
			Layer: layer, Expert: expert,
			readyAt: ready, uses: 1, lastUse: ready, pop: m.popOf(layer, expert),
		})
		m.retainMaster(layer, expert)
	} else {
		s.stats.Bypasses++
		m.met.bypasses.Inc()
	}
	return stall, true
}

// Prefetch speculatively fetches (layer, expert) into the GPU's HBM at
// simulated time now. Speculation rides idle host-link bandwidth only: when
// a transfer is already occupying the GPU's link the hint is dropped, so a
// burst of prefetches can never starve the demand fetches behind it (a
// demand miss waits for at most one in-flight speculative transfer). It is
// also a no-op if the expert is already resident or in flight, or if no
// slot can be freed without disturbing pinned or in-flight entries.
func (m *Manager) Prefetch(gpu, layer, expert int, now float64) {
	if !m.Oversubscribed() {
		return
	}
	s := m.shards[gpu]
	if s.linkFreeAt > now {
		m.dropPrefetch(gpu, layer, expert, now, DropLinkBusy)
		return
	}
	k := key{layer, expert}
	id := m.id(layer, expert)
	if s.lookup(id) != nil {
		m.dropPrefetch(gpu, layer, expert, now, DropPresent)
		return
	}
	if !m.freeSlot(s, now) {
		m.dropPrefetch(gpu, layer, expert, now, DropNoSlot)
		return
	}
	ready, _ := m.issueFetch(s, k, now)
	s.insert(id, Entry{
		Layer: layer, Expert: expert,
		readyAt: ready, lastUse: ready, prefetched: true, pop: m.popOf(layer, expert),
	})
	m.retainMaster(layer, expert)
	s.hasSpec = true
	s.specKey = k
	s.specUntil = ready
	s.stats.Prefetches++
	m.met.prefetches.Inc()
	if m.tr != nil {
		m.tr.Emit(obs.Event{Kind: obs.EvPrefetchIssue, Rep: m.rep, GPU: int32(gpu),
			Layer: int32(layer), Expert: int32(expert), T: now, Dur: ready - now})
	}
}

// dropPrefetch records a declined speculation hint with its reason code.
func (m *Manager) dropPrefetch(gpu, layer, expert int, now float64, reason int64) {
	m.met.prefetchDrops.Inc()
	if m.tr != nil {
		m.tr.Emit(obs.Event{Kind: obs.EvPrefetchDrop, Rep: m.rep, GPU: int32(gpu),
			Layer: int32(layer), Expert: int32(expert), T: now, Aux: reason})
	}
}

// issueFetch charges one expert transfer to the shard's host-link channel
// and returns the completion time plus the transfer's own duration. The
// master-copy hop comes from the shared HostTier when one is installed
// (DRAM hit for anything a neighbor replica already fetched), otherwise
// from the static popularity split.
func (m *Manager) issueFetch(s *shard, k key, now float64) (ready, xfer float64) {
	start := now
	if s.linkFreeAt > start {
		start = s.linkFreeAt
	}
	var extra float64
	xfer, extra = m.fetchCost(k, now, start)
	if extra > 0 {
		s.stats.NVMeFetches++
		s.stats.NVMeSeconds += extra
	}
	ready = start + xfer
	s.linkFreeAt = ready
	s.stats.BytesFetched += int64(m.cfg.ExpertBytes)
	m.met.bytesFetched.Add(float64(m.cfg.ExpertBytes))
	return ready, xfer
}

// fetchCost prices one expert transfer: the host-link hop plus the
// master-copy hop (shared tier or static split, resolved at masterAt), the
// whole thing stretched by the degraded-link factor in force when the
// transfer starts. extra is the unscaled master-copy hop for NVMe stats.
func (m *Manager) fetchCost(k key, masterAt, start float64) (xfer, extra float64) {
	if m.hostTier != nil {
		extra = m.hostTier.FetchMaster(m.tierRep, k.layer, k.expert, masterAt)
	} else if m.hostOnNVMe != nil && m.hostOnNVMe[m.id(k.layer, k.expert)] {
		extra = m.nvmeTime
	}
	xfer = m.hostTime + extra
	if m.linkScale != nil {
		xfer *= m.linkScale(start)
	}
	return xfer, extra
}

// issueDemandFetch is issueFetch with the chaos stall-timeout model: each
// attempt whose transfer would overrun the timeout is abandoned (the link is
// held for the timeout window) and re-issued after backoff; the retry
// re-prices the master hop, so it can succeed where the first attempt could
// not (DRAM now warm, or a degrade window that ended). ok=false means the
// fetch exhausted its retries; ready is then the give-up time.
func (m *Manager) issueDemandFetch(s *shard, k key, now float64) (ready, xfer float64, ok bool) {
	if m.ftTimeout <= 0 {
		ready, xfer = m.issueFetch(s, k, now)
		return ready, xfer, true
	}
	start := now
	if s.linkFreeAt > start {
		start = s.linkFreeAt
	}
	for attempt := 0; ; attempt++ {
		var extra float64
		xfer, extra = m.fetchCost(k, start, start)
		if xfer <= m.ftTimeout {
			if extra > 0 {
				s.stats.NVMeFetches++
				s.stats.NVMeSeconds += extra
			}
			ready = start + xfer
			s.linkFreeAt = ready
			s.stats.BytesFetched += int64(m.cfg.ExpertBytes)
			m.met.bytesFetched.Add(float64(m.cfg.ExpertBytes))
			return ready, xfer, true
		}
		// Abandoned at the timeout: the link was occupied (and the partial
		// transfer's bytes moved) for the full timeout window.
		s.stats.FetchTimeouts++
		m.met.fetchTimeouts.Inc()
		s.linkFreeAt = start + m.ftTimeout
		if attempt >= m.ftRetries {
			s.stats.FetchFailures++
			m.met.fetchFailures.Inc()
			return s.linkFreeAt, 0, false
		}
		s.stats.FetchRetries++
		m.met.fetchRetries.Inc()
		if m.tr != nil {
			m.tr.Emit(obs.Event{Kind: obs.EvFetchRetry, Rep: m.rep, GPU: int32(s.gpu),
				Layer: int32(k.layer), Expert: int32(k.expert), T: s.linkFreeAt, Aux: int64(attempt + 1)})
		}
		start = s.linkFreeAt + m.backoff(attempt+1)
	}
}

// backoff is the idle wait before retry attempt (1-based), doubling each time.
func (m *Manager) backoff(attempt int) float64 {
	b := m.ftBackoff
	for i := 1; i < attempt; i++ {
		b *= 2
	}
	return b
}

// freeSlot ensures the shard has a free slot, evicting a policy-chosen
// victim if needed. It reports whether a slot is available.
func (m *Manager) freeSlot(s *shard, now float64) bool {
	if s.used < m.cfg.SlotsPerGPU {
		return true
	}
	victim := m.victim(s, now)
	if victim == nil {
		return false
	}
	if victim.prefetched && victim.uses == 0 {
		s.stats.WastedPrefetches++
		m.met.wastedPrefetches.Inc()
	}
	layer, expert := victim.Layer, victim.Expert
	s.remove(m.id(layer, expert))
	m.releaseMaster(layer, expert)
	s.stats.Evictions++
	m.met.evictions.Inc()
	if m.tr != nil {
		m.tr.Emit(obs.Event{Kind: obs.EvEvict, Rep: m.rep, GPU: int32(s.gpu),
			Layer: int32(layer), Expert: int32(expert), T: now})
	}
	return true
}

// victim returns the policy's eviction choice among the shard's held rows,
// or nil if every one is pinned or in flight (readyAt > now). It walks the
// occupancy bitset in rank order. Better is a strict total order, so the
// minimum is the same whatever order the rows are visited in; under the
// affinity policy, whose first key is popularity (the rank's first key),
// no row ranked past the first eligible row's equal-popularity run can
// beat it, so the walk stops there. Every other policy walks every row.
func (m *Manager) victim(s *shard, now float64) *Entry {
	_, byPop := m.policy.(affinityPolicy)
	var victim *Entry
	for w, word := range s.occ {
		for ; word != 0; word &= word - 1 {
			e := &s.table[m.byRank[w<<6|bits.TrailingZeros64(word)]]
			if byPop && victim != nil && e.pop != victim.pop {
				return victim
			}
			if e.pinned || (!e.resident && e.readyAt > now) {
				continue
			}
			victim = m.policy.Better(victim, e)
		}
	}
	return victim
}

// Resident reports whether (layer, expert) is HBM-resident on the GPU.
func (m *Manager) Resident(gpu, layer, expert int) bool {
	if !m.Oversubscribed() {
		return true
	}
	e := m.shards[gpu].lookup(m.id(layer, expert))
	return e != nil && e.resident
}

// Relocate applies one placement move at simulated time now: the expert's
// HBM copy (if any) on the old owner is invalidated, and the parameter copy
// the migration already priced lands it resident on the new owner (evicting
// by policy; skipped if no slot can be freed). It returns whether the source
// held a resident copy — the residency churn the migration destroyed.
func (m *Manager) Relocate(layer, expert, from, to int, now float64) bool {
	if !m.Oversubscribed() {
		return false
	}
	id := m.id(layer, expert)
	src := m.shards[from]
	churned := false
	if e := src.lookup(id); e != nil {
		churned = e.resident
		src.remove(id)
		m.releaseMaster(layer, expert)
	}
	dst := m.shards[to]
	if dst.lookup(id) == nil && m.freeSlot(dst, now) {
		dst.insert(id, Entry{
			Layer: layer, Expert: expert,
			resident: true, lastUse: now, pinned: m.policy.Pin(), pop: m.popOf(layer, expert),
		})
		m.retainMaster(layer, expert)
	}
	return churned
}

// Stats aggregates all shards' counters.
func (m *Manager) Stats() Stats {
	var total Stats
	for _, s := range m.shards {
		total.Add(s.stats)
	}
	return total
}
