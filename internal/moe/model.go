package moe

import (
	"fmt"
	"sync"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// vocabComputeDim is the truncated vocabulary used for real-math generation:
// the LM head projects to this many logits and the argmax is the next token
// id. It keeps generation deterministic and cheap; the paper-scale vocab
// only matters for parameter counting.
const vocabComputeDim = 128

// Model is a full GPT MoE model instance: per-layer attention modules and
// expert banks at ComputeDim width, plus an embedding and LM head. All
// weights are pure functions of (Config, Seed) so that any simulated GPU can
// "load" any expert and obtain bit-identical parameters.
//
// The weights are built lazily, all at once, on the first Expert,
// Attention, Embed or NextToken call. A process that only profiles, places
// and calibrates (the engine's timing-only runs never call them) neither
// computes nor stores them. A Model is safe for concurrent use.
type Model struct {
	Cfg  Config
	Seed uint64

	once    sync.Once
	attn    []*Attention
	experts [][]*Expert // [layer][expert]
	embed   *tensor.Matrix
	lmHead  *tensor.Matrix
}

// NewModel validates cfg and returns the model; it panics on an invalid
// config. The weights are not built here but on first use (see Model);
// they then take memory proportional to Layers*Experts at ComputeDim width,
// a few tens of MB for the largest preset.
func NewModel(cfg Config, seed uint64) *Model {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Model{Cfg: cfg, Seed: seed}
}

// build materializes every weight exactly once. Each module's weights come
// from its own seeded stream, so the order of construction cannot change a
// bit of them.
func (m *Model) build() {
	m.once.Do(func() {
		cfg, seed := m.Cfg, m.Seed
		dim := cfg.ActualComputeDim()
		m.attn = make([]*Attention, cfg.Layers)
		m.experts = make([][]*Expert, cfg.Layers)
		for l := 0; l < cfg.Layers; l++ {
			m.attn[l] = NewAttention(seed, l, dim)
			m.experts[l] = make([]*Expert, cfg.Experts)
			for e := 0; e < cfg.Experts; e++ {
				m.experts[l][e] = NewExpert(seed, l, e, dim)
			}
		}
		m.embed = tensor.NewMatrix(vocabComputeDim, dim)
		initMatrix(rng.New(rng.Mix64(seed, 0xEB)), m.embed)
		m.lmHead = tensor.NewMatrix(dim, vocabComputeDim)
		initMatrix(rng.New(rng.Mix64(seed, 0x17)), m.lmHead)
	})
}

// Expert returns expert index e of layer l.
func (m *Model) Expert(l, e int) *Expert {
	if l < 0 || l >= m.Cfg.Layers || e < 0 || e >= m.Cfg.Experts {
		panic(fmt.Sprintf("moe: expert (%d,%d) out of range", l, e))
	}
	m.build()
	return m.experts[l][e]
}

// Attention returns the attention module of layer l.
func (m *Model) Attention(l int) *Attention {
	m.build()
	return m.attn[l]
}

// Embed returns the embedding of a token id (ids are reduced modulo the
// compute vocabulary).
func (m *Model) Embed(token int) []float32 {
	m.build()
	row := m.embed.Row(token % vocabComputeDim)
	return append([]float32(nil), row...)
}

// NextToken greedily decodes the next token id from a final hidden state.
func (m *Model) NextToken(h []float32) int {
	m.build()
	logits := tensor.VecMat(h, m.lmHead)
	return tensor.ArgMax(logits)
}

// LayerNorm applies the model's (identity-parameter) layer normalization.
// Kept as a method so a future learned-parameter variant slots in.
func (m *Model) LayerNorm(h []float32) {
	tensor.LayerNorm(h, nil, nil)
}
