package placement

import (
	"math"
	"sort"
)

// Che-approximation dynamic-residency model (MemoryObjective with
// Model == ResidencyChe).
//
// The static warm-set model prices a placement as if each GPU's top-Slots
// experts by demand mass were pinned forever: the hot set never churns, the
// tail always misses. A real residency table under LRU/LFU/affinity eviction
// does churn — a burst of tail accesses evicts warm experts, which then miss
// on their next access — so the static model systematically underpredicts
// realized stall, and the controller's MinGain pricing inherits the gap.
//
// The Che approximation (Che, Tung & Wang 2002) closes it with a
// fractional-occupancy model: under independent-reference demand with access
// rates mass_i, a capacity-Slots cache behaves as if every item had a single
// characteristic time T — an item is resident iff it was accessed within the
// last T. T solves the occupancy constraint
//
//	sum over assigned i of (1 - exp(-mass_i * T)) = Slots
//
// and item i then misses with probability exp(-mass_i * T). The expected
// stall of one GPU's assigned set becomes
//
//	sum over assigned i of mass_i * fetch_i * exp(-mass_i * T) * (1 - covered_i)
//
// where covered_i discounts demand the affinity prefetcher hints one layer
// ahead (its fetch overlaps compute instead of stalling; covered comes from
// the same expertmem oracles — the top-K successor lists — the runtime
// prefetcher chases).
//
// The left side of the occupancy constraint is increasing and concave in T,
// so Newton iteration converges globally; each solve is safeguarded by a
// bisection bracket and warm-started across annealing proposals (a swap
// changes one item in a set of PerGPU, so the previous T is an excellent
// seed and typically one or two Newton steps suffice).
//
// Note the model is NOT bounded by the static one: static is the occupancy
// vector a clairvoyant pinner would pick (all occupancy on the top-Slots
// items), which is the minimum of the stall over all occupancy vectors
// summing to Slots — churn can only cost more. The Che stall is bounded
// below by the static warm-set stall (for uniform fetch, before the
// prefetch-coverage discount) and above by the every-access-misses sum.

// cheConverged is the relative width at which the T bracket is considered
// solved. Tight enough that a warm-started and a cold-started solve agree to
// well under any tolerance the objective's consumers care about.
const cheConverged = 1e-12

// cheT solves the Che characteristic time for one GPU's assigned item set:
// sum(1 - exp(-mass_i*T)) = Slots. warmT seeds Newton when positive and
// finite (pass 0 for a cold start). Returns +Inf when the budget does not
// bind the positive-mass items (every demanded expert can stay resident —
// zero-mass items never occupy under Che).
func (mo *MemoryObjective) cheT(items []int32, warmT float64) float64 {
	slots := float64(mo.Slots)
	pos, sumRate := 0, 0.0
	for _, it := range items {
		if m := mo.mass[it]; m > 0 {
			pos++
			sumRate += m
		}
	}
	if float64(pos) <= slots {
		return math.Inf(1)
	}
	// F(T) = sum(1-exp(-mass*T)) - Slots: increasing and concave, F(0) < 0,
	// F(inf) = pos - Slots > 0, so the root exists and is unique. The exp
	// here and in the stall sums goes through the tabled expNeg (see
	// fastexp.go) — the solver's dominant flop at Che-model anneal scale.
	eval := func(t float64) (f, df float64) {
		f = -slots
		for _, it := range items {
			m := mo.mass[it]
			if m == 0 {
				continue
			}
			e := expNeg(m * t)
			f += 1 - e
			df += m * e
		}
		return f, df
	}
	t := warmT
	if !(t > 0) || math.IsInf(t, 1) {
		// Cold start at the small-T linearization sum(mass_i*T) = Slots.
		t = slots / sumRate
	}
	// Establish the bisection bracket [lo, hi] with F(lo) < 0 <= F(hi).
	lo, hi := 0.0, t
	for f, _ := eval(hi); f < 0; f, _ = eval(hi) {
		lo = hi
		hi *= 2
	}
	for iter := 0; iter < 80; iter++ {
		f, df := eval(t)
		if f >= 0 {
			hi = t
		} else {
			lo = t
		}
		// Two exits: the residual is negligible (the common warm-started
		// case — one or two evaluations) or the bracket has collapsed.
		if math.Abs(f) <= cheConverged*(slots+1) || hi-lo <= cheConverged*hi {
			break
		}
		nt := t
		if df > 0 {
			nt = t - f/df
		}
		if !(nt > lo && nt < hi) {
			nt = 0.5 * (lo + hi) // Newton left the bracket: bisect
		}
		if nt == t {
			break
		}
		t = nt
	}
	return t
}

// cheStall prices one GPU's assigned set under the Che model, returning the
// expected stall seconds and the characteristic time used (for warm-starting
// the next solve on this GPU). The items are iterated in slice order, so
// callers that keep a deterministic order get deterministic sums; the value
// itself is order-insensitive up to float rounding.
func (mo *MemoryObjective) cheStall(items []int32, warmT float64) (float64, float64) {
	if len(items) <= mo.Slots {
		return 0, math.Inf(1)
	}
	t := mo.cheT(items, warmT)
	if math.IsInf(t, 1) {
		return 0, t
	}
	stall := 0.0
	for _, it := range items {
		m := mo.mass[it]
		if m == 0 {
			continue
		}
		cost := m * mo.fetch[it] * expNeg(m*t)
		if mo.covered != nil {
			cost *= 1 - mo.covered[it]
		}
		stall += cost
	}
	return stall, t
}

// cheMemState is the annealer's incremental Che pricer (the memPricer used
// when Model == ResidencyChe): per-GPU assigned-id lists kept in ascending
// packed-id order — the same iteration order StallSeconds builds, so the
// incremental sums track the from-scratch evaluation — plus per-GPU cached
// characteristic times that warm-start each re-solve. A swap re-prices only
// the two affected GPUs: one merge pass builds the post-swap set and one
// warm-started Newton solve (typically 1-2 iterations) re-prices it, so a
// proposal costs O(PerGPU), the same order as the static sorted pricer.
type cheMemState struct {
	mo      *MemoryObjective
	order   [][]int32 // per GPU: ids ascending
	t       []float64 // per GPU cached characteristic time
	cost    []float64 // per GPU cached stall seconds
	sum     float64
	scratch []int32
	// pendTa/pendTb carry the T values solved by swapCost into the matching
	// apply (the annealer always applies the proposal it just priced).
	pendTa, pendTb float64
}

func newCheMemState(mo *MemoryObjective, p *Placement) *cheMemState {
	mo.checkShape(p.Layers, p.Experts)
	ms := &cheMemState{
		mo:      mo,
		order:   make([][]int32, p.GPUs),
		t:       make([]float64, p.GPUs),
		cost:    make([]float64, p.GPUs),
		scratch: make([]int32, 0, mo.PerGPU),
	}
	for g := range ms.order {
		ms.order[g] = make([]int32, 0, mo.PerGPU)
	}
	// The (l, e) scan appends ascending packed ids per GPU: already sorted.
	for l := 0; l < p.Layers; l++ {
		for e := 0; e < p.Experts; e++ {
			g := p.Assign[l][e]
			ms.order[g] = append(ms.order[g], int32(l*mo.experts+e))
		}
	}
	for g := range ms.order {
		ms.cost[g], ms.t[g] = mo.cheStall(ms.order[g], 0)
		ms.sum += ms.cost[g]
	}
	return ms
}

func (ms *cheMemState) total() float64        { return ms.sum }
func (ms *cheMemState) gpuCost(g int) float64 { return ms.cost[g] }

// swapCost prices the hypothetical swap of experts a and b at layer j
// between GPUs ga and gb without mutating the state, warm-starting each
// GPU's T solve from its cached value.
func (ms *cheMemState) swapCost(j, a, b, ga, gb int) (newGa, newGb float64) {
	idA := int32(j*ms.mo.experts + a)
	idB := int32(j*ms.mo.experts + b)
	newGa, ms.pendTa = ms.replacedStall(ga, idA, idB)
	newGb, ms.pendTb = ms.replacedStall(gb, idB, idA)
	return newGa, newGb
}

// replacedStall prices GPU g's set with item out replaced by item in: one
// merge pass builds the post-swap ascending order in scratch, then a
// warm-started Che solve prices it.
func (ms *cheMemState) replacedStall(g int, out, in int32) (float64, float64) {
	ms.scratch = ms.scratch[:0]
	inserted := false
	for _, id := range ms.order[g] {
		if id == out {
			continue
		}
		if !inserted && in < id {
			ms.scratch = append(ms.scratch, in)
			inserted = true
		}
		ms.scratch = append(ms.scratch, id)
	}
	if !inserted {
		ms.scratch = append(ms.scratch, in)
	}
	return ms.mo.cheStall(ms.scratch, ms.t[g])
}

// apply commits a swap previously priced by swapCost, splicing each GPU's
// ascending order in place and installing the solves swapCost cached.
func (ms *cheMemState) apply(j, a, b, ga, gb int, newGa, newGb float64) {
	idA := int32(j*ms.mo.experts + a)
	idB := int32(j*ms.mo.experts + b)
	ms.replace(ga, idA, idB)
	ms.replace(gb, idB, idA)
	ms.sum += newGa + newGb - ms.cost[ga] - ms.cost[gb]
	ms.cost[ga], ms.cost[gb] = newGa, newGb
	ms.t[ga], ms.t[gb] = ms.pendTa, ms.pendTb
}

// replace removes out from GPU g's ascending order and inserts in at its
// sorted position (binary search + copy, no sort).
func (ms *cheMemState) replace(g int, out, in int32) {
	lst := ms.order[g]
	po := sort.Search(len(lst), func(i int) bool { return lst[i] >= out })
	ins := sort.Search(len(lst), func(i int) bool { return lst[i] > in })
	if ins <= po {
		copy(lst[ins+1:po+1], lst[ins:po])
		lst[ins] = in
	} else {
		copy(lst[po:ins-1], lst[po+1:ins])
		lst[ins-1] = in
	}
}
