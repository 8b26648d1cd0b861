package placement

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/expertmem"
)

// DefaultHopSeconds is the per-crossing service cost assumed when a
// MemoryObjective is built without a fitted cost model: the magnitude of one
// cross-node token hop on the simulated hardware. The blend is insensitive
// to its exact value because an expert fetch (hundreds of microseconds to
// milliseconds) dwarfs a hop (microseconds) — the constant only keeps the
// two objective terms in one unit.
const DefaultHopSeconds = 4e-6

// MemoryObjective prices the expected expert-stall cost of a placement under
// tiered expert-weight memory (internal/expertmem). The crossing objective
// (Formula 8) treats expert weights as free; under oversubscription each
// GPU's HBM holds only Slots of its PerGPU assigned experts, and every
// access to a non-resident expert stalls for its host-link (or NVMe) fetch.
//
// The residency model is the one the memory subsystem itself converges to
// under a popularity-respecting policy: a GPU keeps the Slots highest
// demand-mass experts assigned to it resident (exactly the set Warm preloads
// and the pin/affinity policies retain), and every demanded access to the
// rest pays the full fetch. The expected stall of a placement is then
//
//	stall(P) = sum over GPUs g of
//	           sum over (l, e) assigned to g outside g's top-Slots by mass of
//	           mass[l][e] * fetch[l][e]
//
// with mass and fetch taken from the same affinity-derived oracles the
// runtime Manager uses (expertmem popularity and the DRAM/NVMe master-copy
// split), so the solver and the memory subsystem agree on what "hot" means.
// The model is what makes hot-set concentration visible to the solver:
// co-locating an affinity chain piles its demand mass onto one GPU, pushes
// mass past that GPU's slot coverage, and shows up as stall — even when the
// chain wins on crossings.
//
// Stall seconds convert into crossing units through HopSeconds (seconds one
// crossing costs), so the blended objective Crossings + stall/HopSeconds
// stays in Formula 8's units and degenerates to it exactly when the budget
// is not binding.
type MemoryObjective struct {
	// Slots is the per-GPU HBM expert-slot budget.
	Slots int
	// PerGPU is the balanced assigned-expert count per GPU
	// (Layers*Experts/GPUs); the objective is inactive unless Slots < PerGPU.
	PerGPU int
	// HopSeconds converts stall seconds into crossing units.
	HopSeconds float64
	// Batch records the bulk-synchronous batch size the mass oracle was
	// deflated for (see DeflateBatch); 0 or 1 means the raw per-token
	// oracle, bit-identical to previous releases.
	Batch int

	layers, experts int
	mass            []float64 // [l*experts+e] affinity demand mass
	fetch           []float64 // [l*experts+e] fetch seconds from the master tier
	tokens          float64   // max per-layer demand mass (= profiled token count)
}

// NewMemoryObjective derives the residency model from a tiered-memory
// deployment config (typically expertmem.ConfigFor with the profiling
// transition counts as the affinity tensor). hopSeconds is the per-crossing
// service cost used to blend stall into the crossing objective — pass the
// fitted cost model's per-cross-hop coefficient, or zero for
// DefaultHopSeconds.
func NewMemoryObjective(cfg expertmem.Config, hopSeconds float64) *MemoryObjective {
	if hopSeconds <= 0 {
		hopSeconds = DefaultHopSeconds
	}
	m := expertmem.New(cfg)
	mo := &MemoryObjective{
		Slots:      cfg.SlotsPerGPU,
		PerGPU:     cfg.Layers * cfg.Experts / cfg.GPUs,
		HopSeconds: hopSeconds,
		layers:     cfg.Layers,
		experts:    cfg.Experts,
		mass:       make([]float64, cfg.Layers*cfg.Experts),
		fetch:      make([]float64, cfg.Layers*cfg.Experts),
	}
	for l := 0; l < cfg.Layers; l++ {
		layerMass := 0.0
		for e := 0; e < cfg.Experts; e++ {
			i := l*cfg.Experts + e
			mo.mass[i] = m.Popularity(l, e)
			mo.fetch[i] = m.FetchSeconds(l, e)
			layerMass += mo.mass[i]
		}
		// The per-token normalizer is the max per-layer mass, not layer 0's:
		// a demand oracle with an empty first layer (live windows can have
		// one) would otherwise zero the normalizer while downstream stall is
		// real, and the controller's predicted stall delta with it.
		if layerMass > mo.tokens {
			mo.tokens = layerMass
		}
	}
	return mo
}

// Active reports whether the HBM budget is binding: when every assigned
// expert fits (or the objective is nil), the memory term is exactly zero and
// callers must take the crossing-only path so results stay bit-identical.
func (mo *MemoryObjective) Active() bool {
	return mo != nil && mo.Slots < mo.PerGPU
}

// checkShape fails fast when a placement's shape does not match the
// objective's oracles: the packed (l*experts+e) ids would silently collide
// and read the wrong expert's mass and fetch.
func (mo *MemoryObjective) checkShape(layers, experts int) {
	if layers != mo.layers || experts != mo.experts {
		panic(fmt.Sprintf("placement: memory objective shaped %dx%d priced against a %dx%d placement",
			mo.layers, mo.experts, layers, experts))
	}
}

// StallSeconds evaluates the expected expert-stall of a placement over the
// profiled demand window: for each GPU, every assigned expert outside the
// GPU's top-Slots by demand mass pays its full fetch per unit of demand.
// Zero when the budget is not binding.
func (mo *MemoryObjective) StallSeconds(p *Placement) float64 {
	if !mo.Active() {
		return 0
	}
	mo.checkShape(p.Layers, p.Experts)
	items := make([][]int32, p.GPUs)
	for g := range items {
		items[g] = make([]int32, 0, mo.PerGPU)
	}
	for l := 0; l < p.Layers; l++ {
		for e := 0; e < p.Experts; e++ {
			g := p.Assign[l][e]
			items[g] = append(items[g], int32(l*mo.experts+e))
		}
	}
	total := 0.0
	for g := range items {
		total += mo.gpuStall(items[g])
	}
	return total
}

// StallPerToken is StallSeconds normalized by the profiled token count (the
// max per-layer demand mass — robust to oracles whose early layers saw no
// traffic) — the model's predicted expert-stall seconds added to one token's
// decode.
func (mo *MemoryObjective) StallPerToken(p *Placement) float64 {
	if mo == nil || mo.tokens == 0 {
		return 0
	}
	return mo.StallSeconds(p) / mo.tokens
}

// Cost is the stall term in crossing units.
func (mo *MemoryObjective) Cost(p *Placement) float64 {
	if !mo.Active() {
		return 0
	}
	return mo.StallSeconds(p) / mo.HopSeconds
}

// Objective is the full memory-aware objective: crossings plus the stall
// term in crossing units. With an inactive (or nil) MemoryObjective it is
// exactly Crossings.
func (mo *MemoryObjective) Objective(p *Placement, counts [][][]float64) float64 {
	if !mo.Active() {
		return p.Crossings(counts)
	}
	return p.Crossings(counts) + mo.Cost(p)
}

// gpuStall prices one GPU's assigned set: the items are sorted by demand
// mass (descending, index ascending on ties — deterministic regardless of
// input order), the top Slots are resident for free, and the rest pay
// mass*fetch. The slice is reordered in place.
func (mo *MemoryObjective) gpuStall(items []int32) float64 {
	if len(items) <= mo.Slots {
		return 0
	}
	sort.Slice(items, func(a, b int) bool {
		ma, mb := mo.mass[items[a]], mo.mass[items[b]]
		if ma != mb {
			return ma > mb
		}
		return items[a] < items[b]
	})
	stall := 0.0
	for _, it := range items[mo.Slots:] {
		stall += mo.mass[it] * mo.fetch[it]
	}
	return stall
}

// DeflateBatch rescales the demand-mass oracle for bulk-synchronous batches
// of B tokens (ROADMAP item 3a). The per-token oracle counts every
// activation as a distinct residency-table access, but a batch of B tokens
// demands each expert at most once per layer step: an expert with per-token
// activation probability p = mass/tokens is touched by a batch with
// probability 1-(1-p)^B, so over the profiled window its access mass
// deflates to
//
//	mass' = tokens * (1 - (1-p)^B) / B
//
// Hot experts (p near 1) deflate by nearly B — the residency table sees them
// once per batch, not B times — while cold experts (p*B << 1) are nearly
// unchanged, which is exactly the batching effect that made the per-token
// models overpredict churn stall at high batch. The map p -> (1-(1-p)^B)/B
// is strictly increasing in p, so the static warm-set order is preserved:
// deflation never reorders which experts a GPU keeps resident, only how much
// stall the tail attributes to them. B <= 1 is a no-op, keeping existing
// callers bit-identical.
func (mo *MemoryObjective) DeflateBatch(b int) {
	if mo == nil || b <= 1 || mo.tokens == 0 {
		return
	}
	mo.Batch = b
	fb := float64(b)
	for i, m := range mo.mass {
		p := m / mo.tokens
		if p > 1 {
			p = 1
		}
		mo.mass[i] = mo.tokens * (1 - math.Pow(1-p, fb)) / fb
	}
}

// RewarmSeconds prices the post-migration re-warm cost of a move plan
// (ROADMAP item 3b): an expert arriving on a destination GPU lands cold and
// must be fetched back into HBM before steady state resumes — but only if
// it would actually be resident there. Re-fetching an expert in the
// destination's warm set is a real, unavoidable cost; a tail expert that
// would miss regardless adds nothing beyond the stall the steady-state
// objective already prices. Each GPU refetches over its own host link and
// all GPUs refill at once, so the re-warm lasts as long as the busiest
// destination's sum of fetches, not the cluster total.
func (mo *MemoryObjective) RewarmSeconds(pl *Placement, moves []Move) float64 {
	if !mo.Active() || len(moves) == 0 {
		return 0
	}
	mo.checkShape(pl.Layers, pl.Experts)
	items := make([][]int32, pl.GPUs)
	for l := 0; l < pl.Layers; l++ {
		for e := 0; e < pl.Experts; e++ {
			g := pl.Assign[l][e]
			items[g] = append(items[g], int32(l*mo.experts+e))
		}
	}
	warm := make([]map[int32]bool, pl.GPUs)
	perGPU := make([]float64, pl.GPUs)
	for _, m := range moves {
		id := int32(m.Layer*mo.experts + m.Expert)
		g := m.To
		if warm[g] == nil {
			warm[g] = mo.warmSet(items[g])
		}
		if warm[g][id] {
			perGPU[g] += mo.fetch[id]
		}
	}
	return slices.Max(perGPU)
}

// warmSet returns the static-model resident set of one GPU's assigned set:
// the top Slots ids in residency order, or everything when the budget does
// not bind. The input is copied, not reordered.
func (mo *MemoryObjective) warmSet(items []int32) map[int32]bool {
	w := make(map[int32]bool, mo.Slots)
	if len(items) <= mo.Slots {
		for _, id := range items {
			w[id] = true
		}
		return w
	}
	ids := append([]int32(nil), items...)
	sort.Slice(ids, func(a, b int) bool { return mo.lessID(ids[a], ids[b]) })
	for _, id := range ids[:mo.Slots] {
		w[id] = true
	}
	return w
}

// group returns the objective lifted to groups of size gpusPerGroup — used
// by the staged solver's node stage, where one "GPU" stands for a node
// pooling its members' HBM budgets.
func (mo *MemoryObjective) group(gpusPerGroup int) *MemoryObjective {
	if mo == nil {
		return nil
	}
	g := *mo
	g.Slots = mo.Slots * gpusPerGroup
	g.PerGPU = mo.PerGPU * gpusPerGroup
	return &g
}

// restrict projects the objective onto a node-local subproblem: layer j's
// local expert slot s stands for global expert residents[j][s]. Slot budget
// and per-GPU capacity are unchanged (each node GPU still holds PerGPU
// experts under Slots slots).
//
// The staged solver always passes rectangular resident lists (stage 1 is
// balanced), but restrict does not assume it: an empty subproblem returns
// nil (no memory term to price), and ragged rows are padded to the widest
// layer with zero-mass phantom slots — phantoms sort past every real expert
// in the warm-set order and pay zero stall, so real entries price exactly as
// they would in a rectangular subproblem.
// Indexing residents[0] directly used to panic on both cases.
func (mo *MemoryObjective) restrict(residents [][]int) *MemoryObjective {
	if mo == nil {
		return nil
	}
	perNode := 0
	for _, res := range residents {
		if len(res) > perNode {
			perNode = len(res)
		}
	}
	if perNode == 0 { // no real slots (covers an empty residents slice too)
		return nil
	}
	sub := &MemoryObjective{
		Slots:      mo.Slots,
		PerGPU:     mo.PerGPU,
		HopSeconds: mo.HopSeconds,
		Batch:      mo.Batch,
		layers:     len(residents),
		experts:    perNode,
		mass:       make([]float64, len(residents)*perNode),
		fetch:      make([]float64, len(residents)*perNode),
	}
	for l, res := range residents {
		layerMass := 0.0
		for s, e := range res {
			src := l*mo.experts + e
			sub.mass[l*perNode+s] = mo.mass[src]
			sub.fetch[l*perNode+s] = mo.fetch[src]
			layerMass += mo.mass[src]
		}
		if layerMass > sub.tokens {
			sub.tokens = layerMass
		}
	}
	return sub
}

// memState is the dense reference implementation of the annealer's
// incremental memory term: per-GPU assigned-item lists and their cached
// stall costs, where pricing an intra-layer swap copies and re-sorts the
// two affected GPUs' sets (O(PerGPU log PerGPU) per proposal). The
// production path is sortedMemState below, which prices the same swap
// without sorting; memState is kept (behind AnnealOptions.Dense) as the
// ground truth the sortless path is tested bit-identical against.
type memState struct {
	mo      *MemoryObjective
	items   [][]int32 // per GPU: packed (l*experts+e) ids, unordered
	pos     []int32   // item id -> index within its GPU's list
	cost    []float64 // per GPU cached stall seconds
	sum     float64
	scratch []int32
}

func newMemState(mo *MemoryObjective, p *Placement) *memState {
	mo.checkShape(p.Layers, p.Experts)
	ms := &memState{
		mo:      mo,
		items:   make([][]int32, p.GPUs),
		pos:     make([]int32, mo.layers*mo.experts),
		cost:    make([]float64, p.GPUs),
		scratch: make([]int32, 0, mo.PerGPU),
	}
	for g := range ms.items {
		ms.items[g] = make([]int32, 0, mo.PerGPU)
	}
	for l := 0; l < p.Layers; l++ {
		for e := 0; e < p.Experts; e++ {
			g := p.Assign[l][e]
			id := int32(l*mo.experts + e)
			ms.pos[id] = int32(len(ms.items[g]))
			ms.items[g] = append(ms.items[g], id)
		}
	}
	for g := range ms.items {
		// gpuStall reorders; restore the position index afterwards.
		ms.cost[g] = mo.gpuStall(ms.items[g])
		for i, id := range ms.items[g] {
			ms.pos[id] = int32(i)
		}
		ms.sum += ms.cost[g]
	}
	return ms
}

func (ms *memState) total() float64        { return ms.sum }
func (ms *memState) gpuCost(g int) float64 { return ms.cost[g] }

// swapCost prices the hypothetical swap of experts a and b at layer j
// between GPUs ga and gb, returning the two GPUs' new stall costs without
// mutating the state.
func (ms *memState) swapCost(j, a, b, ga, gb int) (newGa, newGb float64) {
	idA := int32(j*ms.mo.experts + a)
	idB := int32(j*ms.mo.experts + b)
	newGa = ms.replacedStall(ga, idA, idB)
	newGb = ms.replacedStall(gb, idB, idA)
	return newGa, newGb
}

// replacedStall prices GPU g's set with item out replaced by item in.
func (ms *memState) replacedStall(g int, out, in int32) float64 {
	ms.scratch = ms.scratch[:0]
	for _, id := range ms.items[g] {
		if id == out {
			id = in
		}
		ms.scratch = append(ms.scratch, id)
	}
	return ms.mo.gpuStall(ms.scratch)
}

// apply commits a swap previously priced by swapCost.
func (ms *memState) apply(j, a, b, ga, gb int, newGa, newGb float64) {
	idA := int32(j*ms.mo.experts + a)
	idB := int32(j*ms.mo.experts + b)
	ms.items[ga][ms.pos[idA]] = idB
	ms.items[gb][ms.pos[idB]] = idA
	ms.pos[idA], ms.pos[idB] = ms.pos[idB], ms.pos[idA]
	ms.sum += newGa + newGb - ms.cost[ga] - ms.cost[gb]
	ms.cost[ga] = newGa
	ms.cost[gb] = newGb
}

// lessID is the residency order: demand mass descending, id ascending on
// ties. Ids are unique, so this is a strict total order — the sorted
// sequence of any item set is unique, which is what lets sortedMemState's
// insertion-maintained order reproduce gpuStall's sort exactly.
func (mo *MemoryObjective) lessID(a, b int32) bool {
	ma, mb := mo.mass[a], mo.mass[b]
	if ma != mb {
		return ma > mb
	}
	return a < b
}

// sortedMemState is the production memory pricer: each GPU's assigned set
// is kept permanently sorted in residency order, so pricing a swap is a
// single merge pass that drops one id, inserts the other, and freshly sums
// the mass*fetch tail past the slot budget — no per-proposal sort. The
// tail is summed in the same element order as memState's gpuStall (the
// residency order is unique), so both pricers return bit-identical stall
// values and the two anneal paths accept identical move sequences.
type sortedMemState struct {
	mo      *MemoryObjective
	order   [][]int32 // per GPU: ids sorted by lessID
	cost    []float64 // per GPU cached stall seconds
	sum     float64
	scratch []int32
}

func newSortedMemState(mo *MemoryObjective, p *Placement) *sortedMemState {
	mo.checkShape(p.Layers, p.Experts)
	ms := &sortedMemState{
		mo:      mo,
		order:   make([][]int32, p.GPUs),
		cost:    make([]float64, p.GPUs),
		scratch: make([]int32, 0, mo.PerGPU),
	}
	for g := range ms.order {
		ms.order[g] = make([]int32, 0, mo.PerGPU)
	}
	for l := 0; l < p.Layers; l++ {
		for e := 0; e < p.Experts; e++ {
			g := p.Assign[l][e]
			ms.order[g] = append(ms.order[g], int32(l*mo.experts+e))
		}
	}
	for g := range ms.order {
		lst := ms.order[g]
		sort.Slice(lst, func(a, b int) bool { return mo.lessID(lst[a], lst[b]) })
		ms.cost[g] = ms.tailSum(lst)
		ms.sum += ms.cost[g]
	}
	return ms
}

func (ms *sortedMemState) total() float64        { return ms.sum }
func (ms *sortedMemState) gpuCost(g int) float64 { return ms.cost[g] }

// tailSum prices a residency-ordered set: the top Slots are resident for
// free, the rest pay mass*fetch — the same summation, in the same order,
// as gpuStall's final loop.
func (ms *sortedMemState) tailSum(ids []int32) float64 {
	if len(ids) <= ms.mo.Slots {
		return 0
	}
	stall := 0.0
	for _, it := range ids[ms.mo.Slots:] {
		stall += ms.mo.mass[it] * ms.mo.fetch[it]
	}
	return stall
}

// swapCost prices the hypothetical swap without mutating the state.
func (ms *sortedMemState) swapCost(j, a, b, ga, gb int) (newGa, newGb float64) {
	idA := int32(j*ms.mo.experts + a)
	idB := int32(j*ms.mo.experts + b)
	return ms.replacedStall(ga, idA, idB), ms.replacedStall(gb, idB, idA)
}

// replacedStall prices GPU g's set with item out replaced by item in: one
// merge pass builds the post-swap residency order in scratch (out dropped,
// in inserted at its sorted position), then the tail past the slot budget
// is summed fresh.
func (ms *sortedMemState) replacedStall(g int, out, in int32) float64 {
	ms.scratch = ms.scratch[:0]
	inserted := false
	for _, id := range ms.order[g] {
		if id == out {
			continue
		}
		if !inserted && ms.mo.lessID(in, id) {
			ms.scratch = append(ms.scratch, in)
			inserted = true
		}
		ms.scratch = append(ms.scratch, id)
	}
	if !inserted {
		ms.scratch = append(ms.scratch, in)
	}
	return ms.tailSum(ms.scratch)
}

// apply commits a swap previously priced by swapCost, splicing each GPU's
// sorted order in place (binary search + copy, no sort).
func (ms *sortedMemState) apply(j, a, b, ga, gb int, newGa, newGb float64) {
	idA := int32(j*ms.mo.experts + a)
	idB := int32(j*ms.mo.experts + b)
	ms.replace(ga, idA, idB)
	ms.replace(gb, idB, idA)
	ms.sum += newGa + newGb - ms.cost[ga] - ms.cost[gb]
	ms.cost[ga] = newGa
	ms.cost[gb] = newGb
}

// replace removes out from GPU g's sorted order and inserts in at its
// sorted position.
func (ms *sortedMemState) replace(g int, out, in int32) {
	lst := ms.order[g]
	po := sort.Search(len(lst), func(i int) bool { return !ms.mo.lessID(lst[i], out) })
	ins := sort.Search(len(lst), func(i int) bool { return ms.mo.lessID(in, lst[i]) })
	if ins <= po {
		copy(lst[ins+1:po+1], lst[ins:po])
		lst[ins] = in
	} else {
		copy(lst[po:ins-1], lst[po+1:ins])
		lst[ins-1] = in
	}
}
