package moe

import (
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Router decides which experts a token visits at a layer. Implementations
// must be deterministic pure functions of their arguments: the paper's
// context-coherent design relies on "the gating function is shared among all
// GPUs, so that no matter the token on which GPU, the gating function can
// always route it to the right expert" (Section IV-A) — i.e. every GPU
// evaluating the router for the same token must reach the same decision.
//
// layer is the MoE layer index; tokenID is a globally unique token identity;
// prev is the expert chosen at layer-1 (-1 at layer 0); h is the token's
// current hidden activation at ComputeDim width. Implementations may use any
// subset of these. The returned slice has TopK entries, primary expert
// first. It is read-only: an implementation may return a window of a
// shared table instead of a fresh slice, so callers must never write to it.
type Router interface {
	Route(layer int, tokenID uint64, prev int, h []float32) []int
	// Experts returns the number of experts per layer this router targets.
	Experts() int
}

// WeightedRouter is implemented by routers that also expose combine weights
// for top-k gating: RouteWeighted returns the selected experts (primary
// first) and their normalized mixture weights. Both slices are read-only,
// like Route's experts: an implementation may return a shared table (a
// top-1 weight is always exactly 1), so callers must never write to them.
// Routers that do not implement it are combined with RouteWeights'
// fallback.
type WeightedRouter interface {
	Router
	RouteWeighted(layer int, tokenID uint64, prev int, h []float32) ([]int, []float64)
}

// RouteWeights calls RouteWeighted when available and otherwise falls back
// to Route with a deterministic geometric weighting (2/3, 1/3 for top-2),
// normalized over the selected experts.
func RouteWeights(r Router, layer int, tokenID uint64, prev int, h []float32) ([]int, []float64) {
	if wr, ok := r.(WeightedRouter); ok {
		return wr.RouteWeighted(layer, tokenID, prev, h)
	}
	experts := r.Route(layer, tokenID, prev, h)
	weights := make([]float64, len(experts))
	total := 0.0
	w := 1.0
	for i := range weights {
		weights[i] = w
		total += w
		w /= 2
	}
	for i := range weights {
		weights[i] /= total
	}
	return experts, weights
}

// WeightRouter is the standard learned gate: a per-layer weight matrix maps
// the hidden state to expert logits; top-k of the softmax wins. With random
// (untrained) weights it exhibits no inter-layer affinity — it serves as the
// affinity-free control in tests and ablations.
type WeightRouter struct {
	cfg   Config
	gates []*tensor.Matrix // layer -> ComputeDim x Experts
}

// NewWeightRouter builds deterministic per-layer gates.
func NewWeightRouter(cfg Config, seed uint64) *WeightRouter {
	dim := cfg.ActualComputeDim()
	w := &WeightRouter{cfg: cfg, gates: make([]*tensor.Matrix, cfg.Layers)}
	for l := 0; l < cfg.Layers; l++ {
		g := tensor.NewMatrix(dim, cfg.Experts)
		initMatrix(rng.New(rng.Mix64(seed, 0x6A, uint64(l))), g)
		w.gates[l] = g
	}
	return w
}

// Experts implements Router.
func (w *WeightRouter) Experts() int { return w.cfg.Experts }

// Route implements Router using the learned-gate rule.
func (w *WeightRouter) Route(layer int, tokenID uint64, prev int, h []float32) []int {
	logits := tensor.VecMat(h, w.gates[layer])
	tensor.Softmax(logits)
	return tensor.TopK(logits, w.cfg.TopK)
}

// Probs returns the full softmax distribution at a layer (used by training
// diagnostics and tests).
func (w *WeightRouter) Probs(layer int, h []float32) []float32 {
	logits := tensor.VecMat(h, w.gates[layer])
	tensor.Softmax(logits)
	return logits
}

// RouteWeighted implements WeightedRouter: the gate's softmax probabilities
// of the selected experts, renormalized.
func (w *WeightRouter) RouteWeighted(layer int, tokenID uint64, prev int, h []float32) ([]int, []float64) {
	probs := w.Probs(layer, h)
	experts := tensor.TopK(probs, w.cfg.TopK)
	weights := make([]float64, len(experts))
	total := 0.0
	for i, e := range experts {
		weights[i] = float64(probs[e])
		total += weights[i]
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

var _ WeightedRouter = (*WeightRouter)(nil)
