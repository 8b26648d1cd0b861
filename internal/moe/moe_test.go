package moe

import (
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"
)

func TestPresetsValidate(t *testing.T) {
	for _, cfg := range AllPresets() {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
	}
}

func TestPresetShapes(t *testing.T) {
	cases := []struct {
		cfg             Config
		layers, experts int
		dmodel          int
	}{
		{GPTM(8), 24, 8, 1024},
		{GPTM(64), 24, 64, 1024},
		{GPTM32L(), 32, 32, 1024},
		{GPTM40L(), 40, 32, 1024},
		{GPTXL(), 24, 16, 2048},
	}
	for _, c := range cases {
		if c.cfg.Layers != c.layers || c.cfg.Experts != c.experts || c.cfg.DModel != c.dmodel {
			t.Fatalf("%s: wrong shape %+v", c.cfg.Name, c.cfg)
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{},
		func() Config { c := GPTM(8); c.TopK = 3; return c }(),
		func() Config { c := GPTM(8); c.Heads = 7; return c }(),
		func() Config { c := GPTM(8); c.ComputeDim = 10; return c }(),
		func() Config { c := GPTM(8); c.VocabSize = 0; return c }(),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d should fail validation", i)
		}
	}
}

func TestParamCountScale(t *testing.T) {
	// Base (non-expert) parameters of GPT-M should be a few hundred million
	// with vocab, and more experts must mean more parameters.
	p8 := GPTM(8).ParamCount()
	p64 := GPTM(64).ParamCount()
	if p64 <= p8 {
		t.Fatal("more experts must increase parameters")
	}
	if p8 < 100e6 || p8 > 3e9 {
		t.Fatalf("GPT-M/8E parameter count implausible: %d", p8)
	}
}

func TestTokenWireBytes(t *testing.T) {
	if GPTM(8).TokenWireBytes() != 2048 {
		t.Fatalf("fp16 1024-dim token should be 2048 bytes, got %d", GPTM(8).TokenWireBytes())
	}
	if GPTXL().TokenWireBytes() != 4096 {
		t.Fatal("XL wire bytes wrong")
	}
}

func TestExpertDeterministicAcrossLoads(t *testing.T) {
	a := NewExpert(7, 3, 5, 32)
	b := NewExpert(7, 3, 5, 32)
	x := make([]float32, 32)
	for i := range x {
		x[i] = float32(i) / 32
	}
	ya, yb := a.Forward(x), b.Forward(x)
	for i := range ya {
		if ya[i] != yb[i] {
			t.Fatal("same (seed,layer,index) must give identical experts")
		}
	}
}

func TestExpertsDifferByIndexAndLayer(t *testing.T) {
	x := make([]float32, 32)
	x[0] = 1
	base := NewExpert(7, 3, 5, 32).Forward(x)
	otherIdx := NewExpert(7, 3, 6, 32).Forward(x)
	otherLayer := NewExpert(7, 4, 5, 32).Forward(x)
	same := func(a, b []float32) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if same(base, otherIdx) || same(base, otherLayer) {
		t.Fatal("distinct experts must have distinct weights")
	}
}

func TestExpertForwardShapeAndFiniteness(t *testing.T) {
	e := NewExpert(1, 0, 0, 32)
	x := make([]float32, 32)
	for i := range x {
		x[i] = float32(i%5) - 2
	}
	y := e.Forward(x)
	if len(y) != 32 {
		t.Fatalf("output dim %d", len(y))
	}
	for _, v := range y {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatal("non-finite output")
		}
	}
	if e.ParamBytes() <= 0 {
		t.Fatal("ParamBytes must be positive")
	}
}

func TestAttentionDecodeGrowsCache(t *testing.T) {
	a := NewAttention(1, 0, 32)
	cache := &KVCache{}
	x := make([]float32, 32)
	x[3] = 1
	for step := 0; step < 5; step++ {
		out := a.Forward(x, cache)
		if len(out) != 32 {
			t.Fatalf("output dim %d", len(out))
		}
		if cache.Len() != step+1 {
			t.Fatalf("cache len %d after step %d", cache.Len(), step)
		}
	}
}

func TestAttentionDependsOnContext(t *testing.T) {
	a := NewAttention(1, 0, 32)
	x := make([]float32, 32)
	x[0] = 1

	empty := &KVCache{}
	out1 := a.Forward(append([]float32(nil), x...), empty)

	primed := &KVCache{}
	ctx := make([]float32, 32)
	ctx[7] = 2
	k, v := a.Project(ctx)
	primed.Append(k, v)
	out2 := a.Forward(append([]float32(nil), x...), primed)

	diff := 0.0
	for i := range out1 {
		diff += math.Abs(float64(out1[i] - out2[i]))
	}
	if diff < 1e-6 {
		t.Fatal("attention output must depend on cached context")
	}
}

func TestKVCacheCloneIndependent(t *testing.T) {
	c := &KVCache{}
	c.Append([]float32{1, 2}, []float32{3, 4})
	d := c.Clone()
	d.Keys[0][0] = 99
	if c.Keys[0][0] != 1 {
		t.Fatal("clone aliases original")
	}
	d.Append([]float32{5}, []float32{6})
	if c.Len() != 1 || d.Len() != 2 {
		t.Fatal("clone length coupling")
	}
}

func TestWeightRouterDeterministicAndInRange(t *testing.T) {
	cfg := GPTM(16)
	wr := NewWeightRouter(cfg, 9)
	h := make([]float32, cfg.ActualComputeDim())
	h[2] = 1.5
	a := wr.Route(3, 0, -1, h)
	b := wr.Route(3, 0, -1, h)
	if len(a) != 1 || a[0] != b[0] {
		t.Fatal("router must be deterministic")
	}
	if a[0] < 0 || a[0] >= cfg.Experts {
		t.Fatalf("expert %d out of range", a[0])
	}
	if wr.Experts() != 16 {
		t.Fatal("Experts() wrong")
	}
}

func TestWeightRouterTop2Distinct(t *testing.T) {
	cfg := GPTM(16)
	cfg.TopK = 2
	wr := NewWeightRouter(cfg, 9)
	h := make([]float32, cfg.ActualComputeDim())
	h[5] = 1
	es := wr.Route(0, 0, -1, h)
	if len(es) != 2 || es[0] == es[1] {
		t.Fatalf("top-2 must return two distinct experts: %v", es)
	}
}

func TestWeightRouterProbsSumToOne(t *testing.T) {
	cfg := GPTM(8)
	wr := NewWeightRouter(cfg, 9)
	h := make([]float32, cfg.ActualComputeDim())
	h[0] = 3
	p := wr.Probs(2, h)
	sum := float32(0)
	for _, v := range p {
		sum += v
	}
	if math.Abs(float64(sum-1)) > 1e-5 {
		t.Fatalf("probs sum %v", sum)
	}
}

func TestModelAccessorsAndBounds(t *testing.T) {
	cfg := GPTM(8)
	cfg.Layers = 2 // keep construction cheap
	m := NewModel(cfg, 3)
	if m.Expert(1, 7).Index != 7 || m.Expert(1, 7).Layer != 1 {
		t.Fatal("Expert identity wrong")
	}
	if m.Attention(0) == nil {
		t.Fatal("missing attention")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range expert")
		}
	}()
	m.Expert(0, 8)
}

func TestModelEmbedAndNextTokenDeterministic(t *testing.T) {
	cfg := GPTM(8)
	cfg.Layers = 1
	m := NewModel(cfg, 3)
	e1 := m.Embed(42)
	e2 := m.Embed(42)
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatal("embedding not deterministic")
		}
	}
	e1[0] = 999
	if m.Embed(42)[0] == 999 {
		t.Fatal("Embed must return a copy")
	}
	h := m.Embed(7)
	tok := m.NextToken(h)
	if tok < 0 || tok >= vocabComputeDim {
		t.Fatalf("token %d out of compute vocab", tok)
	}
	if tok != m.NextToken(h) {
		t.Fatal("NextToken not deterministic")
	}
}

// TestLazyWeightsConcurrentFirstUse races many goroutines to a fresh
// model's first Expert, Attention, Embed and NextToken calls, as the
// engine's rank goroutines do. Every module must then equal a freshly built
// one, and a second model accessed in reverse order must agree with the
// first on every weight and every decode. Run it under -race to check the
// one-time build.
func TestLazyWeightsConcurrentFirstUse(t *testing.T) {
	cfg := GPTM(8)
	cfg.Layers = 3
	const seed = 5
	dim := cfg.ActualComputeDim()
	m := NewModel(cfg, seed)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range 32 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			switch g % 4 {
			case 0:
				m.Expert(g%cfg.Layers, g%cfg.Experts)
			case 1:
				m.Attention(g % cfg.Layers)
			case 2:
				m.Embed(g)
			default:
				m.NextToken(make([]float32, dim))
			}
		}()
	}
	close(start)
	wg.Wait()
	for l := range cfg.Layers {
		if !reflect.DeepEqual(m.Attention(l), NewAttention(seed, l, dim)) {
			t.Fatalf("layer %d attention differs from NewAttention", l)
		}
		for e := range cfg.Experts {
			if !reflect.DeepEqual(m.Expert(l, e), NewExpert(seed, l, e, dim)) {
				t.Fatalf("expert (%d,%d) differs from NewExpert", l, e)
			}
		}
	}

	rev := NewModel(cfg, seed)
	for l := cfg.Layers - 1; l >= 0; l-- {
		for e := cfg.Experts - 1; e >= 0; e-- {
			if !reflect.DeepEqual(rev.Expert(l, e), m.Expert(l, e)) {
				t.Fatalf("expert (%d,%d) differs between access orders", l, e)
			}
		}
		if !reflect.DeepEqual(rev.Attention(l), m.Attention(l)) {
			t.Fatalf("layer %d attention differs between access orders", l)
		}
	}
	for tok := vocabComputeDim - 1; tok >= 0; tok-- {
		h := rev.Embed(tok)
		if !slices.Equal(h, m.Embed(tok)) || rev.NextToken(h) != m.NextToken(h) {
			t.Fatalf("token %d embeds or decodes differently between access orders", tok)
		}
	}
}

func TestLayerNormMethod(t *testing.T) {
	cfg := GPTM(8)
	cfg.Layers = 1
	m := NewModel(cfg, 3)
	h := []float32{1, 2, 3, 4}
	m.LayerNorm(h)
	var mean float64
	for _, v := range h {
		mean += float64(v)
	}
	if math.Abs(mean/4) > 1e-5 {
		t.Fatal("LayerNorm did not center")
	}
}

func TestCostModelMonotonicity(t *testing.T) {
	cm := DefaultCostModel()
	cfg := GPTM(32)
	if cm.Time(0) != 0 || cm.Time(-5) != 0 {
		t.Fatal("non-positive flops must cost 0")
	}
	if cm.AttentionTime(cfg, 100) >= cm.AttentionTime(cfg, 1000) {
		t.Fatal("attention cost must grow with context")
	}
	if cm.GatingTime(cfg, 1) >= cm.GatingTime(cfg, 100) {
		t.Fatal("gating cost must grow with tokens")
	}
	if cm.ExpertTime(cfg) <= 0 {
		t.Fatal("expert time must be positive")
	}
	// XL experts are 4x the FLOPs of M experts (2x d, 2x dff).
	ratio := ExpertFlops(GPTXL()) / ExpertFlops(GPTM(8))
	if math.Abs(ratio-4) > 1e-9 {
		t.Fatalf("XL/M expert flop ratio %v, want 4", ratio)
	}
}

func TestGatingFlopsScaleWithExperts(t *testing.T) {
	if GatingFlops(GPTM(64)) <= GatingFlops(GPTM(8)) {
		t.Fatal("gating flops must grow with expert count")
	}
}

func TestExpertTimeReasonableMagnitude(t *testing.T) {
	// One GPT-M token through one expert at A100-ish effective rates should
	// land in the sub-millisecond range — the regime where Alltoall latency
	// is comparable, which Fig 9 depends on.
	dt := DefaultCostModel().ExpertTime(GPTM(32))
	if dt < 1e-8 || dt > 1e-3 {
		t.Fatalf("expert time %v out of plausible range", dt)
	}
}
