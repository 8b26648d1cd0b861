// Package synth generates synthetic expert-routing behaviour with
// controllable inter-layer affinity. It stands in for the pre-trained GPT
// MoE checkpoints the paper profiles (see DESIGN.md, substitutions): what
// the ExFlow pipeline consumes from a real model is the joint distribution
// of per-layer expert choices, and this package produces that distribution
// as a first-order Markov process over layers whose transition rows have a
// tunable concentration — reproducing the "few red columns per row"
// structure of the paper's Fig 2 heatmaps.
package synth

import (
	"fmt"

	"repro/internal/rng"
)

// Kernel is a generative model of token routing: a token's expert at layer 0
// is drawn from an initial distribution and the expert at layer j+1 is drawn
// from a row-stochastic transition matrix indexed by the expert at layer j.
// Rows mix a spiky (Dirichlet) component with the uniform distribution;
// Strength in [0,1] sets the mixing weight and therefore the affinity.
//
// Tokens belong to domains (see DatasetProfile); a domain tilts the
// transition rows multiplicatively, modeling topical specialization without
// destroying the shared backbone — this is what makes affinity learned on
// one dataset transfer to others (paper Table III).
type Kernel struct {
	Seed     uint64
	Layers   int
	Experts  int
	Strength float64
	Domains  int

	initDist []float64     // layer-0 expert distribution
	trans    [][][]float64 // [layer][from][to], layer in [0, Layers-2]
	domPref  [][]float64   // [domain][expert] multiplicative tilt

	// cells is the alias table every draw reads (Walker, ACM TOMS 3(3),
	// 1977): Experts cells per slot, where slot = row*Domains+domain, row 0
	// is initDist and row 1+l*Experts+from is trans[l][from]. Cell i keeps
	// its column i with probability thr/2^48 and otherwise returns its
	// alias, packed as thr<<16 | alias. Read-only once NewKernel returns.
	cells []uint64

	// expertIDs[e] is e: a top-1 route returns the one-entry window
	// expertIDs[e:e+1], so routing a token allocates nothing. Read-only
	// once NewKernel returns.
	expertIDs []int
	// unitWeight is {1}, with no room to append: the weight every top-1
	// RouteWeighted returns, so weighting a token allocates nothing either.
	// Read-only.
	unitWeight []float64
}

// KernelParams configures NewKernel.
type KernelParams struct {
	Seed    uint64
	Layers  int
	Experts int
	// Strength in [0,1]: 0 gives uniform routing (no affinity), values near
	// 1 give near-deterministic successor experts. Pre-trained GPT MoE models
	// measured in the paper correspond to roughly 0.75-0.9.
	Strength float64
	// Domains is the number of token domains (default 6).
	Domains int
	// SpikyAlpha is the Dirichlet concentration of the spiky row component;
	// smaller is spikier. Default 0.15.
	SpikyAlpha float64
	// DomainTilt scales the spread of the per-domain expert preferences.
	// 1 (the default, also selected by 0) reproduces the mild tilt that
	// makes affinity transfer across datasets (paper Table III); larger
	// values model more domain-specialized checkpoints, whose routing — and
	// hence whose optimal placement — genuinely shifts when the serving
	// traffic's domain mixture drifts.
	DomainTilt float64
	// ActiveExperts restricts routing to the first ActiveExperts experts
	// (used by the training-evolution model to reproduce early-training
	// expert collapse). Zero means all experts are active.
	ActiveExperts int
}

// NewKernel builds a deterministic kernel from the parameters.
func NewKernel(p KernelParams) *Kernel {
	// The alias table stores expert indices as uint16.
	if p.Layers < 1 || p.Experts < 1 || p.Experts > 1<<16 {
		panic(fmt.Sprintf("synth: invalid kernel shape %dx%d", p.Layers, p.Experts))
	}
	if p.Strength < 0 || p.Strength > 1 {
		panic("synth: Strength must be in [0,1]")
	}
	if p.Domains <= 0 {
		p.Domains = 6
	}
	if p.SpikyAlpha <= 0 {
		p.SpikyAlpha = 0.15
	}
	if p.DomainTilt <= 0 {
		p.DomainTilt = 1
	}
	active := p.ActiveExperts
	if active <= 0 || active > p.Experts {
		active = p.Experts
	}
	k := &Kernel{
		Seed:     p.Seed,
		Layers:   p.Layers,
		Experts:  p.Experts,
		Strength: p.Strength,
		Domains:  p.Domains,
	}
	r := rng.New(rng.Mix64(p.Seed, 0x5E17))

	uniform := 1.0 / float64(active)
	k.initDist = make([]float64, p.Experts)
	spikyInit := r.Dirichlet(active, 0.8)
	for e := 0; e < active; e++ {
		k.initDist[e] = 0.5*spikyInit[e] + 0.5*uniform
	}

	k.trans = make([][][]float64, p.Layers-1)
	for l := range k.trans {
		k.trans[l] = make([][]float64, p.Experts)
		for from := 0; from < p.Experts; from++ {
			row := make([]float64, p.Experts)
			spiky := r.Dirichlet(active, p.SpikyAlpha)
			for to := 0; to < active; to++ {
				row[to] = p.Strength*spiky[to] + (1-p.Strength)*uniform
			}
			k.trans[l][from] = row
		}
	}

	k.domPref = make([][]float64, p.Domains)
	for d := range k.domPref {
		pref := make([]float64, p.Experts)
		draw := r.Dirichlet(active, 1.2)
		for e := 0; e < active; e++ {
			// Tilt factors in [0.6, 0.6 + 0.8*DomainTilt*E*p]; at the default
			// tilt the mean is 1.4-ish, mild enough that the backbone
			// dominates.
			pref[e] = 0.6 + 0.8*p.DomainTilt*float64(active)*draw[e]
		}
		k.domPref[d] = pref
	}
	k.buildTable()
	k.expertIDs = make([]int, p.Experts)
	for e := range k.expertIDs {
		k.expertIDs[e] = e
	}
	k.unitWeight = []float64{1}
	return k
}

// buildTable fills the alias table from every domain-tilted row.
func (k *Kernel) buildTable() {
	rows := 1 + (k.Layers-1)*k.Experts
	k.cells = make([]uint64, rows*k.Domains*k.Experts)
	scratch, scaled := make([]float64, k.Experts), make([]float64, k.Experts)
	small, large := make([]int, 0, k.Experts), make([]int, 0, k.Experts)
	for row := 0; row < rows; row++ {
		base := k.initDist
		if row > 0 {
			base = k.trans[(row-1)/k.Experts][(row-1)%k.Experts]
		}
		for d := 0; d < k.Domains; d++ {
			vose(k.cells[(row*k.Domains+d)*k.Experts:][:len(scratch)], k.tiltInto(scratch, base, d), scaled, small, large)
		}
	}
}

// vose fills the cells of one row w, summing to 1, with Vose's
// construction (IEEE TSE 17(9), 1991): each column starts with its
// probability times len(w), and each under-full column is topped up by an
// over-full one, its alias. While a zero-weight column is unpaired the
// positive columns average above 1, so it gets a positive alias. Columns
// left at the end are full up to rounding and alias themselves, so a row
// with no mass draws its columns uniformly. scaled and the empty small and
// large are scratch with room for len(w) entries; scaled ends holding each
// column's last scaled weight.
func vose(cells []uint64, w, scaled []float64, small, large []int) {
	for i, p := range w {
		scaled[i] = p * float64(len(w))
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		l, g := small[len(small)-1], large[len(large)-1]
		small, large = small[:len(small)-1], large[:len(large)-1]
		cells[l] = uint64(scaled[l]*0x1p48)<<16 | uint64(g)
		scaled[g] = (scaled[g] + scaled[l]) - 1
		if scaled[g] < 1 {
			small = append(small, g)
		} else {
			large = append(large, g)
		}
	}
	for _, i := range append(small, large...) {
		cells[i] = (1<<48-1)<<16 | uint64(i)
	}
}

// domain maps a token domain onto the kernel's: domains past the count
// alias modulo Domains, and negative ones are rejected.
func (k *Kernel) domain(domain int) int {
	if domain < 0 {
		panic(fmt.Sprintf("synth: negative domain %d", domain))
	}
	return domain % k.Domains
}

// draw samples an expert from the tilted routing row with seed seed, whose
// uniform is New(seed).Float64().
func (k *Kernel) draw(seed uint64, row, domain int) int {
	return k.pick(row*k.Domains+k.domain(domain), rng.FirstFloat64(seed))
}

// pick returns the expert the alias table of slot gives uniform f in
// [0, 1): column i = ⌊f·Experts⌋ (below Experts, as f·Experts rounds below
// it), kept when the remainder's top 48 bits fall below the column's
// threshold and replaced by its alias otherwise. The select is branch-free:
// the remainder and threshold both lie below 2^48, so their difference's
// sign bit is the comparison.
func (k *Kernel) pick(slot int, f float64) int {
	x := f * float64(k.Experts)
	i := int(x)
	c := k.cells[slot*k.Experts+i]
	r := uint64((x - float64(i)) * 0x1p48)
	keep := -int((r - c>>16) >> 63)
	alias := int(c & 0xFFFF)
	return alias ^ (i^alias)&keep
}

// tilted returns base element-wise multiplied by the domain preference,
// normalized. base entries for inactive experts are zero and stay zero.
func (k *Kernel) tilted(base []float64, domain int) []float64 {
	return k.tiltInto(make([]float64, len(base)), base, domain)
}

// tiltInto is tilted writing the row into out, which must be as long as
// base, and returning it; a row with no mass returns base, as tilted does.
func (k *Kernel) tiltInto(out, base []float64, domain int) []float64 {
	pref := k.domPref[domain%k.Domains]
	total := 0.0
	for i, b := range base {
		out[i] = b * pref[i]
		total += out[i]
	}
	if total == 0 {
		return base
	}
	for i := range out {
		out[i] /= total
	}
	return out
}

// First samples the layer-0 expert for a token. The draw is a pure function
// of (kernel seed, tokenID), so repeated calls agree — this is what makes
// the shared-gating-function invariant hold in the engine: any GPU asking
// "where does token t go at layer 0" gets the same answer.
func (k *Kernel) First(tokenID uint64, domain int) int {
	return k.draw(rng.Mix64(k.Seed, tokenID, 0), 0, domain)
}

// Next samples the expert at layer given the expert chosen at layer-1.
// layer must be in [1, Layers). Deterministic in (seed, tokenID, layer,
// prev, domain).
func (k *Kernel) Next(tokenID uint64, layer, prev, domain int) int {
	if layer < 1 || layer >= k.Layers {
		panic(fmt.Sprintf("synth: Next layer %d out of range [1,%d)", layer, k.Layers))
	}
	if prev < 0 || prev >= k.Experts {
		panic(fmt.Sprintf("synth: invalid prev expert %d", prev))
	}
	return k.draw(rng.Mix64(k.Seed, tokenID, uint64(layer)), 1+(layer-1)*k.Experts+prev, domain)
}

// Path returns the full per-layer expert path of a token.
func (k *Kernel) Path(tokenID uint64, domain int) []int {
	path := make([]int, k.Layers)
	k.PathInto(tokenID, domain, path)
	return path
}

// PathInto writes a token's per-layer expert path into path, which must
// hold at least Layers entries: the First/Next walk of Path without the
// allocation, for callers that route every token of a batch. The token's
// (seed, tokenID) prefix of every layer's Mix64 seed is folded once.
func (k *Kernel) PathInto(tokenID uint64, domain int, path []int) {
	path = path[:k.Layers]
	d := k.domain(domain)
	seeds := rng.MixPrefix(k.Seed, tokenID)
	prev := k.pick(d, rng.FirstFloat64(seeds.Mix64(0)))
	path[0] = prev
	for l := 1; l < len(path); l++ {
		prev = k.pick((1+(l-1)*k.Experts+prev)*k.Domains+d, rng.FirstFloat64(seeds.Mix64(uint64(l))))
		path[l] = prev
	}
}

// TableBytes is the size of the alias table every draw reads.
func (k *Kernel) TableBytes() int { return 8 * len(k.cells) }

// Transition returns the ground-truth row P(.|from) between layer and
// layer+1 (domain-untilted). Exposed for estimation-convergence tests.
func (k *Kernel) Transition(layer, from int) []float64 {
	return k.trans[layer][from]
}
