package synth

import (
	"fmt"

	"repro/internal/moe"
	"repro/internal/rng"
)

// KernelRouter adapts a Kernel (plus a dataset profile for domain
// assignment) to the moe.Router interface used by the inference engine. The
// hidden activation is ignored — routing statistics come from the kernel —
// but the router is still a deterministic pure function of (layer, tokenID,
// prev), which is the property the engine's shared-gating invariant needs.
//
// TopK of 2 returns a second, distinct expert drawn from the same
// conditional row (GShard-style top-2).
type KernelRouter struct {
	Kernel  *Kernel
	Profile *DatasetProfile
	TopK    int
}

// NewKernelRouter wires a kernel and a dataset profile together.
func NewKernelRouter(k *Kernel, p *DatasetProfile, topK int) *KernelRouter {
	if topK != 1 && topK != 2 {
		panic("synth: TopK must be 1 or 2")
	}
	return &KernelRouter{Kernel: k, Profile: p, TopK: topK}
}

// Experts implements moe.Router.
func (kr *KernelRouter) Experts() int { return kr.Kernel.Experts }

// Route implements moe.Router. A top-1 route returns a one-entry window of
// the kernel's read-only expert-id table, so it allocates nothing; a top-2
// route returns a fresh pair.
func (kr *KernelRouter) Route(layer int, tokenID uint64, prev int, h []float32) []int {
	domain := kr.Profile.TokenDomain(tokenID)
	var primary int
	if layer == 0 || prev < 0 {
		primary = kr.Kernel.First(tokenID, domain)
	} else {
		primary = kr.Kernel.Next(tokenID, layer, prev, domain)
	}
	if kr.TopK == 1 {
		return kr.Kernel.expertIDs[primary : primary+1 : primary+1]
	}
	secondary := kr.second(layer, tokenID, prev, domain, primary)
	return []int{primary, secondary}
}

// PathInto writes a token's primary-expert path into path, which must hold
// exactly the kernel's Layers entries: the experts Route puts first, layer
// after layer with each one passed on as prev, whatever the fan-out (the
// secondary draw never feeds the next layer). It draws the token's domain
// once and walks Kernel.PathInto, so it allocates nothing. trace.Collect
// profiles through it (trace.PathWalker).
func (kr *KernelRouter) PathInto(tokenID uint64, path []int) {
	if len(path) != kr.Kernel.Layers {
		panic(fmt.Sprintf("synth: path of %d layers for a %d-layer kernel", len(path), kr.Kernel.Layers))
	}
	kr.Kernel.PathInto(tokenID, kr.Profile.TokenDomain(tokenID), path)
}

// second draws a distinct secondary expert from the same conditional row.
func (kr *KernelRouter) second(layer int, tokenID uint64, prev, domain, primary int) int {
	var row []float64
	if layer == 0 || prev < 0 {
		row = kr.Kernel.tilted(kr.Kernel.initDist, domain)
	} else {
		row = kr.Kernel.tilted(kr.Kernel.trans[layer-1][prev], domain)
	}
	masked := append([]float64(nil), row...)
	masked[primary] = 0
	r := rng.New(rng.Mix64(kr.Kernel.Seed, tokenID, uint64(layer), 0x2ED))
	total := 0.0
	for _, v := range masked {
		total += v
	}
	if total == 0 {
		// Degenerate row (probability mass entirely on primary): fall back
		// to the next expert index, preserving determinism.
		return (primary + 1) % kr.Kernel.Experts
	}
	return r.Categorical(masked)
}

// RouteWeighted implements moe.WeightedRouter: mixture weights proportional
// to the kernel's conditional probabilities of the selected experts. A
// top-1 weight is exactly 1 — the expert's probability divided by itself,
// or 1/1 when it has none — so top-1 skips the tilted row and returns the
// kernel's shared, read-only unit weight, allocating nothing.
func (kr *KernelRouter) RouteWeighted(layer int, tokenID uint64, prev int, h []float32) ([]int, []float64) {
	experts := kr.Route(layer, tokenID, prev, h)
	if kr.TopK == 1 {
		return experts, kr.Kernel.unitWeight
	}
	domain := kr.Profile.TokenDomain(tokenID)
	var row []float64
	if layer == 0 || prev < 0 {
		row = kr.Kernel.tilted(kr.Kernel.initDist, domain)
	} else {
		row = kr.Kernel.tilted(kr.Kernel.trans[layer-1][prev], domain)
	}
	weights := make([]float64, len(experts))
	total := 0.0
	for i, e := range experts {
		weights[i] = row[e]
		total += row[e]
	}
	if total == 0 {
		for i := range weights {
			weights[i] = 1 / float64(len(weights))
		}
		return experts, weights
	}
	for i := range weights {
		weights[i] /= total
	}
	return experts, weights
}

var _ moe.Router = (*KernelRouter)(nil)
var _ moe.WeightedRouter = (*KernelRouter)(nil)
