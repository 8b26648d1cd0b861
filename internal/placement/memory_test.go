package placement

import (
	"math"
	"testing"

	"repro/internal/expertmem"
	"repro/internal/rng"
	"repro/internal/synth"
	"repro/internal/topo"
	"repro/internal/trace"
)

// memFixture builds a kernel-driven instance plus a memory objective at the
// given oversubscription ratio.
func memFixture(t *testing.T, layers, experts, gpus int, oversub float64, seed uint64) ([][][]float64, *MemoryObjective) {
	t.Helper()
	k := synth.NewKernel(synth.KernelParams{
		Seed: seed, Layers: layers, Experts: experts, Strength: 0.85,
	})
	kr := synth.NewKernelRouter(k, synth.Pile(), 1)
	tr := trace.Collect(kr, layers, trace.SequentialIDs(1200, nil))
	counts := tr.AllTransitionCounts()
	tp := topo.ForGPUs(gpus)
	cfg := expertmem.ConfigFor(tp, layers, experts, 16<<20, oversub,
		expertmem.AffinityPrefetch(), 4, 0, counts)
	return counts, NewMemoryObjective(cfg, 0)
}

func TestMemoryObjectiveInactiveWhenEverythingFits(t *testing.T) {
	counts, mo := memFixture(t, 6, 16, 4, 1, 3)
	if mo.Active() {
		t.Fatalf("1x objective active: slots %d perGPU %d", mo.Slots, mo.PerGPU)
	}
	pl := Random(6, 16, 4, 3)
	if s := mo.StallSeconds(pl); s != 0 {
		t.Fatalf("inactive objective stalls %v", s)
	}
	if got, want := mo.Objective(pl, counts), pl.Crossings(counts); got != want {
		t.Fatalf("inactive objective %v != crossings %v", got, want)
	}
	var nilMO *MemoryObjective
	if nilMO.Active() || nilMO.StallSeconds(pl) != 0 || nilMO.StallPerToken(pl) != 0 {
		t.Fatal("nil objective must be inactive and free")
	}
}

func TestMemoryObjectiveTopSlotsModel(t *testing.T) {
	// 2 layers x 4 experts on 2 GPUs, 2 slots each (4 assigned per GPU):
	// hand-checkable. Affinity rows: expert e of layer 0 routes to e with
	// mass (e+1)*10, so layer-0 outgoing mass and layer-1 incoming mass are
	// both (e+1)*10 for expert e.
	aff := make([][][]float64, 1)
	aff[0] = make([][]float64, 4)
	for e := range aff[0] {
		row := make([]float64, 4)
		row[e] = float64(e+1) * 10
		aff[0][e] = row
	}
	cfg := expertmem.Config{
		Layers: 2, Experts: 4, GPUs: 2,
		ExpertBytes: 1 << 20,
		SlotsPerGPU: 2,
		HostLink:    topo.LinkCost{Latency: 1e-3, Bandwidth: 1 << 30},
		Affinity:    aff,
	}
	mo := NewMemoryObjective(cfg, 0)
	if !mo.Active() {
		t.Fatal("2 slots for 4 assigned must be active")
	}
	fetch := 1e-3 + float64(1<<20)/float64(1<<30)

	// Contiguous: GPU 0 holds experts {0,1} of both layers with masses
	// {10,20,10,20}; top-2 = the two 20s, stall = (10+10)*fetch. GPU 1 holds
	// {2,3}: masses {30,40,30,40}, stall = (30+30)*fetch.
	pl := Contiguous(2, 4, 2)
	want := (10 + 10 + 30 + 30) * fetch
	if got := mo.StallSeconds(pl); math.Abs(got-want) > 1e-12 {
		t.Fatalf("contiguous stall %v, want %v", got, want)
	}

	// Splitting the hot pair across GPUs covers more mass: GPU 0 = {0,3},
	// GPU 1 = {1,2} at both layers. GPU 0 masses {10,40,10,40} -> stall
	// (10+10)*fetch; GPU 1 masses {20,30,20,30} -> stall (20+20)*fetch.
	split := NewPlacement(2, 4, 2)
	for j := 0; j < 2; j++ {
		split.Assign[j] = []int{0, 1, 1, 0}
	}
	want = (10 + 10 + 20 + 20) * fetch
	if got := mo.StallSeconds(split); math.Abs(got-want) > 1e-12 {
		t.Fatalf("split stall %v, want %v", got, want)
	}

	// Per-token normalization: layer-0 mass totals 100.
	if got := mo.StallPerToken(split); math.Abs(got-want/100) > 1e-15 {
		t.Fatalf("stall/token %v, want %v", got, want/100)
	}
}

// TestMemoryObjectiveShapeMismatchPanics: pricing a placement whose shape
// does not match the objective's oracles used to silently mis-index mass and
// fetch (packed ids collide); now every entry point fails fast.
func TestMemoryObjectiveShapeMismatchPanics(t *testing.T) {
	_, mo := memFixture(t, 5, 16, 4, 2, 3)
	wrong := Random(5, 8, 4, 3) // 8 experts vs the objective's 16
	shallow := Random(3, 16, 4, 3)
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s accepted a mismatched placement", name)
			}
		}()
		f()
	}
	for _, p := range []*Placement{wrong, shallow} {
		expectPanic("StallSeconds", func() { mo.StallSeconds(p) })
		expectPanic("newMemState", func() { newMemState(mo, p) })
		expectPanic("newSortedMemState", func() { newSortedMemState(mo, p) })
	}
}

// TestStallPerTokenRobustToEmptyLayerZero: the per-token normalizer used to
// be layer 0's demand mass, so an oracle whose first layer saw no traffic
// (live windows can produce one) reported zero stall per token even with
// real downstream stall. The normalizer is now the max per-layer mass.
func TestStallPerTokenRobustToEmptyLayerZero(t *testing.T) {
	// 3 layers x 4 experts on 2 GPUs, 1 slot each: aff[0] is all zero (so
	// layer-0 and layer-1 masses vanish) while aff[1] carries real demand
	// into layer 2.
	aff := make([][][]float64, 2)
	for l := range aff {
		aff[l] = make([][]float64, 4)
		for e := range aff[l] {
			aff[l][e] = make([]float64, 4)
		}
	}
	for e := 0; e < 4; e++ {
		aff[1][e][e] = float64(e+1) * 10
	}
	cfg := expertmem.Config{
		Layers: 3, Experts: 4, GPUs: 2,
		ExpertBytes: 1 << 20,
		SlotsPerGPU: 1,
		HostLink:    topo.LinkCost{Latency: 1e-3, Bandwidth: 1 << 30},
		Affinity:    aff,
	}
	mo := NewMemoryObjective(cfg, 0)
	pl := Contiguous(3, 4, 2)
	if mo.StallSeconds(pl) <= 0 {
		t.Fatalf("fixture must stall: %v", mo.StallSeconds(pl))
	}
	// Layer 2 carries 10+20+30+40 = 100 mass; layers 0 and 1 carry none.
	if got := mo.StallPerToken(pl); got != mo.StallSeconds(pl)/100 {
		t.Fatalf("StallPerToken %v, want %v (max per-layer mass normalizer)", got, mo.StallSeconds(pl)/100)
	}
}

// TestRestrictEmptyAndRaggedResidents: restrict used to index residents[0]
// unconditionally and assume uniform row lengths; empty subproblems now
// price as nil and ragged rows are zero-padded phantoms that price nothing.
func TestRestrictEmptyAndRaggedResidents(t *testing.T) {
	_, mo := memFixture(t, 2, 8, 2, 2, 5)
	if sub := mo.restrict(nil); sub != nil {
		t.Fatal("restrict(nil) must be nil")
	}
	if sub := mo.restrict([][]int{{}, {}}); sub != nil {
		t.Fatal("restrict of all-empty rows must be nil")
	}
	var nilMO *MemoryObjective
	if nilMO.restrict([][]int{{0}}) != nil {
		t.Fatal("nil objective restricts to nil")
	}

	rect := mo.restrict([][]int{{0, 1}, {2, 3}})
	ragged := mo.restrict([][]int{{0, 1}, {2}})
	if ragged == nil || ragged.experts != 2 || ragged.layers != 2 {
		t.Fatalf("ragged restrict shape: %+v", ragged)
	}
	// The phantom slot (layer 1, slot 1) carries no mass and no fetch.
	if ragged.mass[1*2+1] != 0 || ragged.fetch[1*2+1] != 0 {
		t.Fatal("phantom slot must be massless")
	}
	// Real entries price identically to the rectangular projection.
	for l := 0; l < 2; l++ {
		for s := 0; s < 2; s++ {
			if l == 1 && s == 1 {
				continue
			}
			if ragged.mass[l*2+s] != rect.mass[l*2+s] || ragged.fetch[l*2+s] != rect.fetch[l*2+s] {
				t.Fatalf("real entry (%d,%d) mispriced under ragged restrict", l, s)
			}
		}
	}
}

func TestMemStateIncrementalMatchesFullEval(t *testing.T) {
	_, mo := memFixture(t, 5, 16, 4, 2, 11)
	if !mo.Active() {
		t.Fatal("fixture must be oversubscribed")
	}
	p := Random(5, 16, 4, 11)
	ms := newMemState(mo, p)
	if math.Abs(ms.total()-mo.StallSeconds(p)) > 1e-9 {
		t.Fatalf("initial memState total %v != full eval %v", ms.total(), mo.StallSeconds(p))
	}
	r := rng.New(99)
	for i := 0; i < 500; i++ {
		j, a, b := r.Intn(5), r.Intn(16), r.Intn(16)
		ga, gb := p.Assign[j][a], p.Assign[j][b]
		if a == b || ga == gb {
			continue
		}
		newGa, newGb := ms.swapCost(j, a, b, ga, gb)
		p.Assign[j][a], p.Assign[j][b] = gb, ga
		ms.apply(j, a, b, ga, gb, newGa, newGb)
		if full := mo.StallSeconds(p); math.Abs(ms.total()-full) > 1e-9 {
			t.Fatalf("step %d: incremental total %v != full eval %v", i, ms.total(), full)
		}
	}
}

func TestMemoryAwareAnnealTradesCrossingsForStall(t *testing.T) {
	counts, mo := memFixture(t, 8, 32, 4, 2, 7)
	if !mo.Active() {
		t.Fatal("fixture must be oversubscribed")
	}
	init := Contiguous(8, 32, 4)
	plain := Anneal(counts, init, AnnealOptions{Seed: 7})
	aware := Anneal(counts, init, AnnealOptions{Seed: 7, Memory: mo})
	if err := aware.Validate(); err != nil {
		t.Fatal(err)
	}
	// The memory-aware result must win on the blended objective...
	if mo.Objective(aware, counts) >= mo.Objective(plain, counts) {
		t.Fatalf("memory-aware anneal lost its own objective: %v vs %v",
			mo.Objective(aware, counts), mo.Objective(plain, counts))
	}
	// ...and on the stall term specifically: the crossing-only solver
	// concentrates the hot set, the memory-aware one dilutes it.
	if mo.StallSeconds(aware) >= mo.StallSeconds(plain) {
		t.Fatalf("memory-aware anneal did not reduce expected stall: %v vs %v",
			mo.StallSeconds(aware), mo.StallSeconds(plain))
	}
	// The blended objective never worsens relative to the start.
	if mo.Objective(aware, counts) > mo.Objective(init, counts)+1e-9 {
		t.Fatal("anneal worsened the blended objective")
	}
}

func TestStagedMemoryAwareValidAndImproves(t *testing.T) {
	layers, experts := 6, 32
	tp := topo.Wilkes3(2) // 2 nodes x 4 GPUs
	k := synth.NewKernel(synth.KernelParams{Seed: 5, Layers: layers, Experts: experts, Strength: 0.85})
	kr := synth.NewKernelRouter(k, synth.Pile(), 1)
	tr := trace.Collect(kr, layers, trace.SequentialIDs(1500, nil))
	counts := tr.AllTransitionCounts()
	cfg := expertmem.ConfigFor(tp, layers, experts, 16<<20, 2,
		expertmem.AffinityPrefetch(), 4, 0, counts)
	mo := NewMemoryObjective(cfg, 0)

	plain := Staged(counts, layers, experts, tp, 5)
	aware := StagedOpt(counts, layers, experts, tp, 5, StagedOptions{Memory: mo})
	if err := aware.Validate(); err != nil {
		t.Fatal(err)
	}
	if mo.StallSeconds(aware) >= mo.StallSeconds(plain) {
		t.Fatalf("memory-aware staged did not reduce expected stall: %v vs %v",
			mo.StallSeconds(aware), mo.StallSeconds(plain))
	}
	// Inactive options reproduce Staged bit-identically.
	same := StagedOpt(counts, layers, experts, tp, 5, StagedOptions{})
	for j := range plain.Assign {
		for e := range plain.Assign[j] {
			if plain.Assign[j][e] != same.Assign[j][e] {
				t.Fatalf("zero-options StagedOpt diverged at (%d,%d)", j, e)
			}
		}
	}
}
