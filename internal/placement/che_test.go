package placement

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/expertmem"
	"repro/internal/rng"
	"repro/internal/topo"
)

func TestParseResidencyModel(t *testing.T) {
	for _, c := range []struct {
		in   string
		want ResidencyModel
	}{{"", ResidencyStatic}, {"static", ResidencyStatic}, {"che", ResidencyChe}} {
		got, err := ParseResidencyModel(c.in)
		if err != nil || got != c.want {
			t.Fatalf("ParseResidencyModel(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	if _, err := ParseResidencyModel("clock"); err == nil {
		t.Fatal("ParseResidencyModel accepted an unknown model")
	}
}

// cheObjectiveFor builds a Che-model objective for a random instance; with
// prefetchK 0 the coverage discount is off (pure Che).
func cheObjectiveFor(counts [][][]float64, layers, experts, gpus int, oversub float64, prefetchK int) *MemoryObjective {
	cfg := expertmem.ConfigFor(topo.ForGPUs(gpus), layers, experts, 16<<20, oversub,
		expertmem.AffinityPrefetch(), prefetchK, 0, counts)
	mo := NewMemoryObjective(cfg, 0)
	mo.Model = ResidencyChe
	return mo
}

// TestPropertyCheObjectiveBounds pins the Che stall against its provable
// envelope on random instances: at least the static warm-set stall (the
// warm set is the stall-minimizing occupancy vector, so modeling churn can
// only cost more; fetch is uniform here), at most the every-access-misses
// sum, the prefetch-coverage discount only ever reduces it, and it
// collapses to exactly zero when the budget stops binding.
func TestPropertyCheObjectiveBounds(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		tr, layers, experts, gpus := randomInstance(seed)
		counts := tr.AllTransitionCounts()
		pl := Random(layers, experts, gpus, seed^0xC4E)

		static := memObjectiveFor(counts, layers, experts, gpus, 2)
		che := cheObjectiveFor(counts, layers, experts, gpus, 2, 0)
		cheCov := cheObjectiveFor(counts, layers, experts, gpus, 2, 4)
		if !che.Active() {
			return true // tiny instance where the budget does not bind
		}
		full := 0.0 // every access misses: the stall ceiling
		for i := range che.mass {
			full += che.mass[i] * che.fetch[i]
		}
		s := static.StallSeconds(pl)
		c := che.StallSeconds(pl)
		cc := cheCov.StallSeconds(pl)
		tol := 1e-9 * (1 + full)
		if c < s-tol || c > full+tol {
			t.Logf("che %v outside [static %v, full %v]", c, s, full)
			return false
		}
		if cc > c+tol {
			t.Logf("coverage discount increased stall: %v > %v", cc, c)
			return false
		}

		// Budget not binding: exactly zero, bitwise.
		at1x := cheObjectiveFor(counts, layers, experts, gpus, 1, 0)
		return !at1x.Active() && at1x.StallSeconds(pl) == 0
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestCheStallShrinksAsBudgetLoosens: widening the slot budget must
// monotonically shrink the Che stall toward zero — the "degenerates as the
// budget stops binding" half of the model contract.
func TestCheStallShrinksAsBudgetLoosens(t *testing.T) {
	counts, _ := memFixture(t, 6, 16, 4, 2, 9)
	pl := Random(6, 16, 4, 9)
	prev := math.Inf(1)
	base := cheObjectiveFor(counts, 6, 16, 4, 4, 0)
	for slots := 1; slots <= base.PerGPU; slots++ {
		mo := *base
		mo.Slots = slots
		cur := mo.StallSeconds(pl)
		if cur > prev+1e-12 {
			t.Fatalf("stall rose from %v to %v at slots %d", prev, cur, slots)
		}
		prev = cur
	}
	if prev != 0 {
		t.Fatalf("stall at a non-binding budget is %v, want exactly 0", prev)
	}
}

func TestCheMemStateIncrementalMatchesFullEval(t *testing.T) {
	counts, _ := memFixture(t, 5, 16, 4, 2, 11)
	mo := cheObjectiveFor(counts, 5, 16, 4, 2, 4)
	if !mo.Active() {
		t.Fatal("fixture must be oversubscribed")
	}
	p := Random(5, 16, 4, 11)
	ms := newCheMemState(mo, p)
	relEq := func(a, b float64) bool {
		return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
	}
	if full := mo.StallSeconds(p); !relEq(ms.total(), full) {
		t.Fatalf("initial cheMemState total %v != full eval %v", ms.total(), full)
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
		// The incremental path warm-starts its Newton solves from the
		// previous characteristic time; the from-scratch evaluation solves
		// cold. Both converge the bracket to 1e-12 relative, so they agree
		// far inside the 1e-9 tolerance here.
		if full := mo.StallSeconds(p); !relEq(ms.total(), full) {
			t.Fatalf("step %d: incremental total %v != full eval %v", i, ms.total(), full)
		}
	}
}

// TestCheStaticPathBitIdentical: an objective pinned to ResidencyStatic
// must anneal bit-identically to the default (empty) model — the Che
// machinery (coverage oracle, Model field) must not perturb the static
// path's float accumulation or RNG trajectory.
func TestCheStaticPathBitIdentical(t *testing.T) {
	counts, mo := memFixture(t, 8, 32, 4, 2, 7)
	init := Contiguous(8, 32, 4)
	def := Anneal(counts, init, AnnealOptions{Seed: 7, Memory: mo})
	pinned := *mo
	pinned.Model = ResidencyStatic
	got := Anneal(counts, init, AnnealOptions{Seed: 7, Memory: &pinned})
	if !def.Equal(got) {
		t.Fatal("explicit ResidencyStatic diverged from the default model")
	}
	if mo.StallSeconds(def) != pinned.StallSeconds(def) {
		t.Fatal("explicit ResidencyStatic StallSeconds diverged from the default model")
	}
}

func TestCheAwareAnnealReducesCheStall(t *testing.T) {
	counts, _ := memFixture(t, 8, 32, 4, 2, 7)
	mo := cheObjectiveFor(counts, 8, 32, 4, 2, 4)
	if !mo.Active() {
		t.Fatal("fixture must be oversubscribed")
	}
	init := Contiguous(8, 32, 4)
	plain := Anneal(counts, init, AnnealOptions{Seed: 7})
	aware := Anneal(counts, init, AnnealOptions{Seed: 7, Memory: mo})
	if err := aware.Validate(); err != nil {
		t.Fatal(err)
	}
	if mo.Objective(aware, counts) >= mo.Objective(plain, counts) {
		t.Fatalf("che-aware anneal lost its own objective: %v vs %v",
			mo.Objective(aware, counts), mo.Objective(plain, counts))
	}
	if mo.StallSeconds(aware) >= mo.StallSeconds(plain) {
		t.Fatalf("che-aware anneal did not reduce Che stall: %v vs %v",
			mo.StallSeconds(aware), mo.StallSeconds(plain))
	}
	if mo.Objective(aware, counts) > mo.Objective(init, counts)+1e-9 {
		t.Fatal("anneal worsened the blended objective")
	}
}

// TestStagedCheValidAndImproves threads the Che objective through both
// staged stages: the node stage pools slot budgets (group), the GPU stage
// prices the node-local subproblem (restrict), and the result must beat the
// crossing-only staged solve on Che stall.
func TestStagedCheValidAndImproves(t *testing.T) {
	layers, experts := 6, 32
	tp := topo.Wilkes3(2)
	counts, _ := memFixture(t, layers, experts, tp.TotalGPUs(), 2, 5)
	cfg := expertmem.ConfigFor(tp, layers, experts, 16<<20, 2,
		expertmem.AffinityPrefetch(), 4, 0, counts)
	mo := NewMemoryObjective(cfg, 0)
	mo.Model = ResidencyChe

	plain := Staged(counts, layers, experts, tp, 5)
	aware := StagedOpt(counts, layers, experts, tp, 5, StagedOptions{Memory: mo})
	if err := aware.Validate(); err != nil {
		t.Fatal(err)
	}
	if mo.StallSeconds(aware) >= mo.StallSeconds(plain) {
		t.Fatalf("che-aware staged did not reduce Che stall: %v vs %v",
			mo.StallSeconds(aware), mo.StallSeconds(plain))
	}
}

func TestFastExpNegBoundedError(t *testing.T) {
	// The table-plus-cubic path must stay within 1e-8 relative of math.Exp
	// across the whole tabled range (satellite 3's bound; the analytic
	// truncation error is ~2.5e-9 relative).
	check := func(x float64) {
		t.Helper()
		got, want := expNeg(x), math.Exp(-x)
		if diff := math.Abs(got - want); diff > 1e-8*want {
			t.Fatalf("expNeg(%v) = %v, want %v (rel err %v)", x, got, want, diff/want)
		}
	}
	for x := 0.0; x < 70; x += 0.0137 {
		check(x)
	}
	r := rng.New(42)
	for i := 0; i < 20000; i++ {
		check(r.Float64() * 70)
	}
	for _, x := range []float64{0, expNegStep / 2, expNegStep, 1, expNegMax - 1e-9, expNegMax, expNegMax + 1, 700} {
		check(x)
	}
	// Out-of-domain arguments take the exact fallback verbatim.
	for _, x := range []float64{-3, -0.5, math.Inf(1)} {
		if got, want := expNeg(x), math.Exp(-x); got != want {
			t.Fatalf("expNeg(%v) fallback = %v, want %v", x, got, want)
		}
	}
	if !math.IsNaN(expNeg(math.NaN())) {
		t.Fatal("expNeg(NaN) must be NaN")
	}
	// The cheExactExp toggle routes every call to math.Exp bit for bit.
	cheExactExp = true
	defer func() { cheExactExp = false }()
	for i := 0; i < 2000; i++ {
		x := r.Float64() * 70
		if expNeg(x) != math.Exp(-x) {
			t.Fatalf("cheExactExp path diverged at %v", x)
		}
	}
}

// TestPropertyCheStallTableVsExactClose compares whole Che pricings under
// the table path against the exact math.Exp reference: per-call error below
// 1e-8 relative must stay small through the Newton solve and the stall sum.
func TestPropertyCheStallTableVsExactClose(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		tr, layers, experts, gpus := randomInstance(seed)
		counts := tr.AllTransitionCounts()
		pl := Random(layers, experts, gpus, seed)
		mo := memObjectiveFor(counts, layers, experts, gpus, 2)
		mo.Model = ResidencyChe
		table := mo.StallSeconds(pl)
		cheExactExp = true
		exact := mo.StallSeconds(pl)
		cheExactExp = false
		return math.Abs(table-exact) <= 1e-6*(1+exact)
	}, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
