package expertmem

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/topo"
)

// streamFixture is a warmed, 1.5x-oversubscribed affinity manager over an
// 8-layer, 16-expert, 4-GPU universe, plus a fixed routed stream of token
// paths drawn from the same affinity rows the prefetcher reads. Expert e of
// layer l lives on GPU (e+l) mod 4, four experts per GPU per layer.
func streamFixture() (m *Manager, assign, paths [][]int) {
	const layers, experts, gpus, tokens = 8, 16, 4, 256
	r := rng.New(0x57EA)
	aff := make([][][]float64, layers-1)
	for l := range aff {
		aff[l] = make([][]float64, experts)
		for from := range aff[l] {
			aff[l][from] = r.Dirichlet(experts, 0.3)
		}
	}
	assign = make([][]int, layers)
	for l := range assign {
		assign[l] = make([]int, experts)
		for e := range assign[l] {
			assign[l][e] = (e + l) % gpus
		}
	}
	paths = make([][]int, tokens)
	for i := range paths {
		p := make([]int, layers)
		p[0] = r.Intn(experts)
		for l := 1; l < layers; l++ {
			p[l] = r.Categorical(aff[l-1][p[l-1]])
		}
		paths[i] = p
	}
	m = New(Config{
		Layers: layers, Experts: experts, GPUs: gpus,
		ExpertBytes: testBytes,
		SlotsPerGPU: SlotsFor(layers, experts, gpus, 1.5),
		HostLink:    topo.LinkCost{Latency: testHostLat, Bandwidth: testHostBW},
		Policy:      AffinityPrefetch(),
		PrefetchK:   4,
		Affinity:    aff,
	})
	m.Warm(assign)
	return m, assign, paths
}

// replayStream drives every path through the manager token by token: a
// demand access per layer on the owner GPU, then the routed expert's
// successor prefetches to their layer-(l+1) owners. It returns the clock.
func replayStream(m *Manager, assign, paths [][]int, now float64) float64 {
	for _, p := range paths {
		for l, e := range p {
			now += m.Access(assign[l][e], l, e, now)
			for _, sc := range m.Successors(l, e) {
				m.Prefetch(assign[l+1][sc], l+1, sc, now)
			}
			now += testFetch / 4
		}
	}
	return now
}

func TestManagerSteadyStateAllocFree(t *testing.T) {
	m, assign, paths := streamFixture()
	now := replayStream(m, assign, paths, 0)
	before := m.Stats()
	if a := testing.AllocsPerRun(5, func() { now = replayStream(m, assign, paths, now) }); a != 0 {
		t.Fatalf("steady Access/Prefetch stream allocates %v objects per pass, want 0", a)
	}
	// The stream must exercise the paths that used to allocate: misses that
	// take a slot, evictions, and issued prefetches.
	st := m.Stats()
	if st.Misses == before.Misses || st.Evictions == before.Evictions || st.Prefetches == before.Prefetches {
		t.Fatalf("stream too tame to pin allocations: before %+v after %+v", before, st)
	}
}

// BenchmarkManagerAccess replays the fixed 256-token stream (2,048 demand
// accesses plus their prefetch hints) through a warmed 1.5x manager.
func BenchmarkManagerAccess(b *testing.B) {
	m, assign, paths := streamFixture()
	now := replayStream(m, assign, paths, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = replayStream(m, assign, paths, now)
	}
}
