package engine

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/expertmem"
	"repro/internal/moe"
	"repro/internal/placement"
	"repro/internal/rng"
	"repro/internal/synth"
	"repro/internal/topo"
	"repro/internal/trace"
)

// testSetup builds a small but non-trivial inference configuration.
func testSetup(t *testing.T, mode Mode, gpus int, affinityPlacement bool) Config {
	t.Helper()
	cfg := moe.GPTM(16)
	cfg.Layers = 6 // keep runs fast
	mdl := moe.NewModel(cfg, 1)
	kernel := synth.NewKernel(synth.KernelParams{Seed: 2, Layers: cfg.Layers, Experts: cfg.Experts, Strength: 0.85})
	router := synth.NewKernelRouter(kernel, synth.Pile(), 1)
	tp := topo.ForGPUs(gpus)

	var pl *placement.Placement
	if affinityPlacement {
		tr := trace.Collect(router, cfg.Layers, trace.SequentialIDs(2000, synth.Pile().TokenID))
		pl = placement.Staged(tr.AllTransitionCounts(), cfg.Layers, cfg.Experts, tp, 5)
	} else {
		pl = placement.Contiguous(cfg.Layers, cfg.Experts, gpus)
	}
	return Config{
		Model:          mdl,
		Router:         router,
		Topo:           tp,
		Placement:      pl,
		Mode:           mode,
		Cost:           moe.DefaultCostModel(),
		RequestsPerGPU: 2,
		PromptLen:      8,
		GenerateTokens: 4,
		TokenID: func(req, iter int) uint64 {
			return synth.Pile().TokenID(uint64(1_000_000 + req*1000 + iter))
		},
		Seed: 7,
	}
}

func TestRunProducesTokens(t *testing.T) {
	rep := Run(testSetup(t, Vanilla, 8, false))
	if rep.GeneratedTokens != 8*2*4 {
		t.Fatalf("generated %d tokens, want %d", rep.GeneratedTokens, 8*2*4)
	}
	if rep.SimSeconds <= 0 || rep.Throughput <= 0 {
		t.Fatalf("bad timing: %+v", rep)
	}
	for r, out := range rep.Outputs {
		if len(out) != 4 {
			t.Fatalf("request %d generated %d tokens", r, len(out))
		}
	}
}

func TestModesGenerateIdenticalTokens(t *testing.T) {
	// The paper's core claim: ExFlow changes *where* computation happens,
	// never *what* is computed — no accuracy degradation. All three modes
	// must emit identical token streams.
	van := Run(testSetup(t, Vanilla, 8, false))
	coh := Run(testSetup(t, ContextCoherent, 8, false))
	exf := Run(testSetup(t, ExFlow, 8, true))
	for r := range van.Outputs {
		for i := range van.Outputs[r] {
			if van.Outputs[r][i] != coh.Outputs[r][i] {
				t.Fatalf("vanilla vs coherent diverge at req %d pos %d", r, i)
			}
			if van.Outputs[r][i] != exf.Outputs[r][i] {
				t.Fatalf("vanilla vs exflow diverge at req %d pos %d", r, i)
			}
		}
	}
}

func TestContextCoherentHalvesAlltoall(t *testing.T) {
	van := Run(testSetup(t, Vanilla, 8, false))
	coh := Run(testSetup(t, ContextCoherent, 8, false))
	// Vanilla sends every dispatched token twice (dispatch + combine);
	// coherent sends it at most once. Bytes should drop by roughly half or
	// more (tokens that stay local send nothing).
	if coh.AlltoallBytes >= van.AlltoallBytes*3/4 {
		t.Fatalf("coherent alltoall bytes %d not clearly below vanilla %d",
			coh.AlltoallBytes, van.AlltoallBytes)
	}
	if coh.AllgatherBytes == 0 {
		t.Fatal("coherent mode must pay for allgather")
	}
	if van.AllgatherBytes != 0 {
		t.Fatal("vanilla mode must not use allgather")
	}
}

func TestExFlowImprovesLocalityAndThroughput(t *testing.T) {
	coh := Run(testSetup(t, ContextCoherent, 8, false))
	exf := Run(testSetup(t, ExFlow, 8, true))
	if exf.FracDispatchLocal() <= coh.FracDispatchLocal() {
		t.Fatalf("affinity placement should raise same-GPU dispatches: %v vs %v",
			exf.FracDispatchLocal(), coh.FracDispatchLocal())
	}
	if exf.Throughput <= coh.Throughput {
		t.Fatalf("exflow throughput %v should beat coherent %v", exf.Throughput, coh.Throughput)
	}
}

func TestExFlowBeatsVanillaThroughput(t *testing.T) {
	van := Run(testSetup(t, Vanilla, 8, false))
	exf := Run(testSetup(t, ExFlow, 8, true))
	if exf.Throughput <= van.Throughput {
		t.Fatalf("exflow throughput %v should beat vanilla %v (the paper's headline)",
			exf.Throughput, van.Throughput)
	}
}

func TestBreakdownCategoriesPresent(t *testing.T) {
	rep := Run(testSetup(t, Vanilla, 4, false))
	for _, cat := range []string{"attention", "expert", "gating", "alltoall"} {
		if rep.Breakdown[cat] <= 0 {
			t.Fatalf("missing breakdown category %q: %v", cat, rep.Breakdown)
		}
	}
	if rep.ComputeSeconds() <= 0 || rep.CommSeconds() <= 0 {
		t.Fatal("aggregate compute/comm must be positive")
	}
	share := rep.AlltoallShare()
	if share <= 0 || share >= 1 {
		t.Fatalf("alltoall share %v out of (0,1)", share)
	}
}

func TestAlltoallShareGrowsWithNodes(t *testing.T) {
	// Paper Fig 9: the Alltoall proportion rises steeply as nodes are added.
	share4 := Run(testSetup(t, Vanilla, 4, false)).AlltoallShare()
	share16 := Run(testSetup(t, Vanilla, 16, false)).AlltoallShare()
	if share16 <= share4 {
		t.Fatalf("alltoall share should grow with nodes: 4gpu=%v 16gpu=%v", share4, share16)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a := Run(testSetup(t, ExFlow, 8, true))
	b := Run(testSetup(t, ExFlow, 8, true))
	if math.Abs(a.SimSeconds-b.SimSeconds) > 1e-12 {
		t.Fatalf("sim time not deterministic: %v vs %v", a.SimSeconds, b.SimSeconds)
	}
	if a.AlltoallBytes != b.AlltoallBytes || a.DispatchSameGPU != b.DispatchSameGPU {
		t.Fatal("metrics not deterministic")
	}
	for r := range a.Outputs {
		for i := range a.Outputs[r] {
			if a.Outputs[r][i] != b.Outputs[r][i] {
				t.Fatal("outputs not deterministic")
			}
		}
	}
}

func TestDispatchCountsConsistent(t *testing.T) {
	cfg := testSetup(t, ContextCoherent, 8, false)
	rep := Run(cfg)
	total := rep.DispatchSameGPU + rep.DispatchSameNode + rep.DispatchCrossNode
	want := 8 * cfg.RequestsPerGPU * cfg.GenerateTokens * cfg.Model.Cfg.Layers
	if total != want {
		t.Fatalf("dispatch count %d, want %d", total, want)
	}
}

func TestSingleGPUAllLocal(t *testing.T) {
	rep := Run(testSetup(t, ContextCoherent, 1, false))
	if rep.FracDispatchLocal() != 1 {
		t.Fatalf("single GPU must keep all dispatches local, got %v", rep.FracDispatchLocal())
	}
	if rep.AlltoallBytes != 0 {
		t.Fatal("single GPU must move no alltoall bytes")
	}
}

func TestValidationPanics(t *testing.T) {
	base := testSetup(t, Vanilla, 4, false)
	mutations := []func(c Config) Config{
		func(c Config) Config { c.Model = nil; return c },
		func(c Config) Config { c.RequestsPerGPU = 0; return c },
		func(c Config) Config { c.Placement = placement.Contiguous(3, 16, 4); return c },
		func(c Config) Config { c.Topo = topo.ForGPUs(8); return c },
		func(c Config) Config {
			c.Router = moe.NewWeightRouter(c.Model.Cfg, 3)
			c.TimingOnly = true
			return c
		},
	}
	for i, mut := range mutations {
		func() {
			// Each must fail validation up front, not panic deep in the run.
			defer func() {
				r := recover()
				if msg, _ := r.(string); !strings.HasPrefix(msg, "engine: ") {
					t.Fatalf("mutation %d: want a validation panic, got %v", i, r)
				}
			}()
			Run(mut(base))
		}()
	}
}

func TestModeString(t *testing.T) {
	if Vanilla.String() != "vanilla" || ContextCoherent.String() != "context-coherent" || ExFlow.String() != "exflow" {
		t.Fatal("mode strings wrong")
	}
}

func TestReportString(t *testing.T) {
	rep := Run(testSetup(t, ExFlow, 4, true))
	s := rep.String()
	if len(s) == 0 || rep.FracDispatchIntraNode() < rep.FracDispatchLocal() {
		t.Fatalf("report rendering or locality ordering wrong:\n%s", s)
	}
}

// memConfig attaches a tiered expert-memory config at the given
// oversubscription ratio, with the routing kernel's ground-truth transition
// rows as the affinity oracle.
func memConfig(t *testing.T, cfg *Config, oversub float64, policy expertmem.Policy) {
	t.Helper()
	mcfg := cfg.Model.Cfg
	kernel := synth.NewKernel(synth.KernelParams{Seed: 2, Layers: mcfg.Layers, Experts: mcfg.Experts, Strength: 0.85})
	aff := make([][][]float64, mcfg.Layers-1)
	for l := range aff {
		aff[l] = make([][]float64, mcfg.Experts)
		for from := range aff[l] {
			aff[l][from] = kernel.Transition(l, from)
		}
	}
	cfg.Memory = &expertmem.Config{
		Layers: mcfg.Layers, Experts: mcfg.Experts, GPUs: cfg.Topo.TotalGPUs(),
		ExpertBytes: int(mcfg.ExpertParams()) * 2,
		SlotsPerGPU: expertmem.SlotsFor(mcfg.Layers, mcfg.Experts, cfg.Topo.TotalGPUs(), oversub),
		HostLink:    cfg.Topo.HostPath(),
		NVMeLink:    cfg.Topo.NVMePath(),
		Policy:      policy,
		PrefetchK:   4,
		Affinity:    aff,
	}
}

func TestMemoryStallsVisibleAndOutputsUnchanged(t *testing.T) {
	base := Run(testSetup(t, ExFlow, 8, true))

	over := testSetup(t, ExFlow, 8, true)
	memConfig(t, &over, 2, expertmem.LRU())
	rep := Run(over)

	if rep.ExpertMem == nil || rep.ExpertMem.Misses == 0 {
		t.Fatalf("2x oversubscription produced no misses: %+v", rep.ExpertMem)
	}
	if rep.Breakdown["expert-stall"] <= 0 {
		t.Fatal("expert-miss stalls not charged to the clock")
	}
	if rep.SimSeconds <= base.SimSeconds {
		t.Fatalf("oversubscribed run not slower: %v vs %v", rep.SimSeconds, base.SimSeconds)
	}
	// Paging changes when things happen, never what is computed.
	for r := range base.Outputs {
		for i := range base.Outputs[r] {
			if base.Outputs[r][i] != rep.Outputs[r][i] {
				t.Fatalf("memory layer changed outputs at req %d pos %d", r, i)
			}
		}
	}
}

func TestMemoryAtOneXAddsNoOverhead(t *testing.T) {
	base := Run(testSetup(t, ExFlow, 8, true))
	at1x := testSetup(t, ExFlow, 8, true)
	memConfig(t, &at1x, 1, expertmem.AffinityPrefetch())
	rep := Run(at1x)
	if rep.SimSeconds != base.SimSeconds {
		t.Fatalf("1x memory layer changed iteration time: %v vs %v", rep.SimSeconds, base.SimSeconds)
	}
	if rep.ExpertMem.Misses != 0 || rep.ExpertMem.StallSeconds != 0 {
		t.Fatalf("1x produced paging activity: %+v", rep.ExpertMem)
	}
}

func TestMemoryAffinityPrefetchReducesStalls(t *testing.T) {
	lru := testSetup(t, ExFlow, 8, true)
	memConfig(t, &lru, 2, expertmem.LRU())
	lruRep := Run(lru)

	pf := testSetup(t, ExFlow, 8, true)
	memConfig(t, &pf, 2, expertmem.AffinityPrefetch())
	pfRep := Run(pf)

	if pfRep.ExpertMem.Prefetches == 0 || pfRep.ExpertMem.PrefetchHits == 0 {
		t.Fatalf("prefetcher idle: %+v", pfRep.ExpertMem)
	}
	if pfRep.ExpertMem.HitRate() <= lruRep.ExpertMem.HitRate() {
		t.Fatalf("affinity prefetch hit rate %.3f not above lru %.3f",
			pfRep.ExpertMem.HitRate(), lruRep.ExpertMem.HitRate())
	}
	if pfRep.Breakdown["expert-stall"] >= lruRep.Breakdown["expert-stall"] {
		t.Fatalf("affinity prefetch stall %v not below lru %v",
			pfRep.Breakdown["expert-stall"], lruRep.Breakdown["expert-stall"])
	}
}

func TestMemoryDeterministicReplay(t *testing.T) {
	mk := func() *Report {
		cfg := testSetup(t, ExFlow, 8, true)
		memConfig(t, &cfg, 2, expertmem.AffinityPrefetch())
		return Run(cfg)
	}
	a, b := mk(), mk()
	if a.SimSeconds != b.SimSeconds || *a.ExpertMem != *b.ExpertMem {
		t.Fatalf("memory replay diverged:\n%+v\n%+v", a.ExpertMem, b.ExpertMem)
	}
}

// TestTimingOnlyMatchesFullMath runs each configuration twice, with and
// without the forward math, and requires identical reports apart from
// Outputs, which a timing-only run leaves nil. The cases span every mode
// and every path the clock or the counters can take: the combine-back
// Alltoall (top-2 under Vanilla), capacity drops, hierarchical dispatch,
// and oversubscribed memory with affinity-prefetch hints.
func TestTimingOnlyMatchesFullMath(t *testing.T) {
	cases := []struct {
		name  string
		setup func() Config
		check func(t *testing.T, r *Report)
	}{
		{"vanilla", func() Config { return testSetup(t, Vanilla, 8, false) }, nil},
		{"context-coherent", func() Config { return testSetup(t, ContextCoherent, 8, false) }, nil},
		{"exflow", func() Config { return testSetup(t, ExFlow, 8, true) }, nil},
		{"top2-vanilla", func() Config { return top2Setup(t, Vanilla, 8, 0) }, nil},
		{"top2-coherent-capacity", func() Config { return top2Setup(t, ContextCoherent, 8, 0.5) },
			func(t *testing.T, r *Report) {
				if r.DroppedJobs == 0 {
					t.Fatal("capacity factor 0.5 dropped no jobs")
				}
			}},
		{"exflow-hierarchical", func() Config {
			c := testSetup(t, ExFlow, 16, true)
			c.HierarchicalA2A = true
			return c
		}, nil},
		{"exflow-memory-1.5x-affinity", func() Config {
			c := testSetup(t, ExFlow, 8, true)
			memConfig(t, &c, 1.5, expertmem.AffinityPrefetch())
			return c
		}, func(t *testing.T, r *Report) {
			if r.ExpertMem.Prefetches == 0 || r.ExpertMem.Misses == 0 {
				t.Fatalf("1.5x run neither prefetched nor missed: %+v", r.ExpertMem)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			full := Run(c.setup())
			cfg := c.setup()
			cfg.TimingOnly = true
			timing := Run(cfg)
			if len(full.Outputs) == 0 || timing.Outputs != nil {
				t.Fatalf("outputs: full-math %d requests, timing-only %v (want nil)", len(full.Outputs), timing.Outputs)
			}
			if c.check != nil {
				c.check(t, full)
			}
			want := *full
			want.Outputs = nil
			if !reflect.DeepEqual(&want, timing) {
				t.Fatalf("timing-only report differs from full math:\nfull   %+v\ntiming %+v", want, *timing)
			}
		})
	}
}

// TestCombineJobsOrder: whatever order a token's jobs arrive in,
// combineJobs returns the tokens sorted by request and folds each token's
// expert outputs in kIdx order, skipping dropped jobs — bit for bit what
// folding them in kIdx order gives. A timing-only combine returns the same
// tokens and leaves their hidden states alone.
func TestCombineJobsOrder(t *testing.T) {
	const dim, topK = 16, 3
	r := rng.New(11)
	randVec := func() []float32 {
		v := make([]float32, dim)
		for i := range v {
			v[i] = float32(r.NormFloat64() * math.Pow(10, float64(r.Intn(5))))
		}
		return v
	}
	mdl := moe.NewModel(moe.GPTM(8), 1)
	var jobs []*expertJob
	want := map[int][]float32{}
	for _, req := range []int{6, 0, 9, 3, 4} {
		tok := &token{req: req, hidden: randVec()}
		h := append([]float32(nil), tok.hidden...)
		for k := 0; k < topK; k++ {
			j := &expertJob{tok: tok, kIdx: k, weight: r.Float64(), out: randVec(), dropped: (req+k)%4 == 0}
			jobs = append(jobs, j)
			if j.dropped {
				continue
			}
			for x := range h {
				h[x] += float32(j.weight) * j.out[x]
			}
		}
		mdl.LayerNorm(h)
		want[req] = h
	}
	for _, timingOnly := range []bool{true, false} {
		shuffled := slices.Clone(jobs)
		for i := len(shuffled) - 1; i > 0; i-- {
			k := r.Intn(i + 1)
			shuffled[i], shuffled[k] = shuffled[k], shuffled[i]
		}
		got := combineJobs(&Config{Model: mdl, TimingOnly: timingOnly}, shuffled)
		var reqs []int
		for _, tok := range got {
			reqs = append(reqs, tok.req)
			if !timingOnly && !slices.Equal(tok.hidden, want[tok.req]) {
				t.Fatalf("request %d: combined %v, want %v", tok.req, tok.hidden, want[tok.req])
			}
		}
		if !slices.Equal(reqs, []int{0, 3, 4, 6, 9}) {
			t.Fatalf("timing-only %v: tokens in request order %v, want [0 3 4 6 9]", timingOnly, reqs)
		}
	}
}
