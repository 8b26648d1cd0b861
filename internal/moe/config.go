// Package moe implements the GPT Mixture-of-Experts model: configuration,
// gating, expert feed-forward networks, multi-head attention with a KV
// cache, and the analytic compute-cost model used to charge simulated GPU
// time for each operation.
//
// Two dimensionalities coexist deliberately. Config.DModel/DFF describe the
// *paper-scale* model and drive the cost model and communication volumes
// (a token's activation is DModel fp16 values on the wire). ComputeDim is
// the width at which the *actual* tensor math runs on the CPU, so that the
// engine performs a real forward pass (real routing inputs, real expert
// FFNs, real attention) at laptop speed while the simulated clock reflects
// A100-scale arithmetic. The clock never depends on that math, so a run
// that needs only timing skips it and the model never builds its weights.
package moe

import "fmt"

// Config describes a GPT MoE model variant.
type Config struct {
	// Name is a human-readable variant label, e.g. "GPT-M/32E".
	Name string
	// DModel is the paper-scale hidden size (1024 for GPT-M, 2048 for XL).
	DModel int
	// DFF is the paper-scale expert FFN inner size (4 * DModel).
	DFF int
	// Heads is the attention head count.
	Heads int
	// Layers is the number of MoE transformer layers.
	Layers int
	// Experts is the number of experts per MoE layer.
	Experts int
	// TopK is the gating fan-out (1 for top-1 gating, 2 for top-2).
	TopK int
	// VocabSize is the token vocabulary size.
	VocabSize int
	// ComputeDim is the width used for real CPU tensor math (see package
	// comment). Zero means DefaultComputeDim.
	ComputeDim int
}

// DefaultComputeDim keeps real math cheap while remaining wide enough for
// attention heads to divide evenly.
const DefaultComputeDim = 32

// ActualComputeDim resolves ComputeDim's default.
func (c Config) ActualComputeDim() int {
	if c.ComputeDim > 0 {
		return c.ComputeDim
	}
	return DefaultComputeDim
}

// Validate reports an error for inconsistent configurations.
func (c Config) Validate() error {
	switch {
	case c.DModel <= 0 || c.DFF <= 0:
		return fmt.Errorf("moe: non-positive dims in %q", c.Name)
	case c.Layers <= 0 || c.Experts <= 0:
		return fmt.Errorf("moe: non-positive layers/experts in %q", c.Name)
	case c.TopK != 1 && c.TopK != 2:
		return fmt.Errorf("moe: TopK must be 1 or 2, got %d", c.TopK)
	case c.Heads <= 0 || c.DModel%c.Heads != 0:
		return fmt.Errorf("moe: heads %d must divide DModel %d", c.Heads, c.DModel)
	case c.VocabSize <= 0:
		return fmt.Errorf("moe: non-positive vocab in %q", c.Name)
	case c.ActualComputeDim()%4 != 0:
		return fmt.Errorf("moe: ComputeDim must be a multiple of 4")
	}
	return nil
}

// TokenWireBytes is the number of bytes one token's activation occupies on
// the network: DModel fp16 values. This is the unit of Alltoall volume.
func (c Config) TokenWireBytes() int { return c.DModel * 2 }

// ExpertParams returns the parameter count of a single expert FFN at paper
// scale (two weight matrices plus biases).
func (c Config) ExpertParams() int64 {
	d, f := int64(c.DModel), int64(c.DFF)
	return d*f + f + f*d + d
}

// ParamCount estimates total parameters at paper scale: embeddings,
// per-layer attention (4 d^2) and gate, and Experts expert FFNs per layer.
func (c Config) ParamCount() int64 {
	d := int64(c.DModel)
	perLayer := 4*d*d + d*int64(c.Experts) + int64(c.Experts)*c.ExpertParams()
	return int64(c.VocabSize)*d + int64(c.Layers)*perLayer
}

// String implements fmt.Stringer.
func (c Config) String() string {
	return fmt.Sprintf("%s (%dL x %dE, d=%d)", c.Name, c.Layers, c.Experts, c.DModel)
}

// Model presets matching the paper's Table II. The "base" parameter counts
// (350M/470M/590M/1.3B) refer to the dense backbone; expert counts multiply
// the FFN parameters as in Deepspeed-Megatron.

// GPTM returns a GPT-M 350M-base model (24 layers, d=1024) with the given
// experts per layer (the paper uses 8, 16, 32 and 64).
func GPTM(experts int) Config {
	return Config{
		Name:      fmt.Sprintf("GPT-M/%dE", experts),
		DModel:    1024,
		DFF:       4096,
		Heads:     16,
		Layers:    24,
		Experts:   experts,
		TopK:      1,
		VocabSize: 50257,
	}
}

// GPTM32L returns the 470M-base 32-layer MoE-32 variant.
func GPTM32L() Config {
	c := GPTM(32)
	c.Name = "GPT-M-32L/32E"
	c.Layers = 32
	return c
}

// GPTM40L returns the 590M-base 40-layer MoE-32 variant.
func GPTM40L() Config {
	c := GPTM(32)
	c.Name = "GPT-M-40L/32E"
	c.Layers = 40
	return c
}

// GPTXL returns the GPT-XL 1.3B-base MoE-16 variant (24 layers, d=2048).
func GPTXL() Config {
	return Config{
		Name:      "GPT-XL/16E",
		DModel:    2048,
		DFF:       8192,
		Heads:     16,
		Layers:    24,
		Experts:   16,
		TopK:      1,
		VocabSize: 50257,
	}
}

// AllPresets returns the seven variants evaluated in the paper's Fig 10.
func AllPresets() []Config {
	return []Config{
		GPTM(8), GPTM(16), GPTM(32), GPTM(64), GPTM32L(), GPTM40L(), GPTXL(),
	}
}
