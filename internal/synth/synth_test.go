package synth

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/stats"
)

func testKernel(strength float64) *Kernel {
	return NewKernel(KernelParams{Seed: 1, Layers: 6, Experts: 16, Strength: strength})
}

func TestKernelDeterministic(t *testing.T) {
	k := testKernel(0.8)
	for tok := uint64(0); tok < 50; tok++ {
		a := k.Path(tok, 0)
		b := k.Path(tok, 0)
		for l := range a {
			if a[l] != b[l] {
				t.Fatal("kernel paths not deterministic")
			}
		}
	}
}

func TestKernelPathInRange(t *testing.T) {
	k := testKernel(0.8)
	if err := quick.Check(func(tok uint64, dRaw uint8) bool {
		path := k.Path(tok, int(dRaw))
		if len(path) != k.Layers {
			return false
		}
		for _, e := range path {
			if e < 0 || e >= k.Experts {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTransitionRowsStochastic(t *testing.T) {
	k := testKernel(0.8)
	for l := 0; l < k.Layers-1; l++ {
		for from := 0; from < k.Experts; from++ {
			row := k.Transition(l, from)
			sum := 0.0
			for _, p := range row {
				if p < 0 {
					t.Fatal("negative transition probability")
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("row (%d,%d) sums to %v", l, from, sum)
			}
		}
	}
}

func TestStrengthControlsConcentration(t *testing.T) {
	strong := testKernel(0.95)
	weak := testKernel(0.0)
	topMass := func(k *Kernel, top int) float64 {
		rows := make([][]float64, 0, k.Experts)
		for from := 0; from < k.Experts; from++ {
			rows = append(rows, k.Transition(0, from))
		}
		return stats.NewHeatmap("", rows).DominantColumnFraction(top)
	}
	// "For each row only a few columns are red" (Fig 2): the top few
	// successors capture most of the mass in a strong kernel, while a
	// zero-strength kernel is uniform (top-1 mass = 1/E).
	if s := topMass(strong, 3); s < 0.6 {
		t.Fatalf("strong kernel top-3 mass %v too low", s)
	}
	if w := topMass(weak, 1); w > 1.0/16+1e-9 {
		t.Fatalf("zero-strength kernel should be uniform, top-1 mass %v", w)
	}
	if s1, w1 := topMass(strong, 1), topMass(weak, 1); s1 <= 2*w1 {
		t.Fatalf("strength must sharpen rows: strong top-1 %v vs uniform %v", s1, w1)
	}
}

func TestEmpiricalTransitionsMatchKernel(t *testing.T) {
	// Token samples drawn through the kernel (single domain, to avoid the
	// domain tilt) must converge to the declared transition rows.
	k := NewKernel(KernelParams{Seed: 2, Layers: 3, Experts: 8, Strength: 0.7, Domains: 1})
	const tokens = 60000
	counts := make([][]float64, k.Experts)
	for i := range counts {
		counts[i] = make([]float64, k.Experts)
	}
	for tok := uint64(0); tok < tokens; tok++ {
		p := k.Path(tok, 0)
		counts[p[0]][p[1]]++
	}
	// With a single domain the tilt is constant per row, so compare against
	// the tilted row.
	for from := 0; from < k.Experts; from++ {
		row := k.tilted(k.Transition(0, from), 0)
		total := 0.0
		for _, c := range counts[from] {
			total += c
		}
		if total < 500 {
			continue // too few samples through this expert for a tight check
		}
		for to := 0; to < k.Experts; to++ {
			got := counts[from][to] / total
			if math.Abs(got-row[to]) > 0.04 {
				t.Fatalf("P(%d|%d): empirical %v vs kernel %v", to, from, got, row[to])
			}
		}
	}
}

func TestActiveExpertsRestriction(t *testing.T) {
	k := NewKernel(KernelParams{Seed: 3, Layers: 4, Experts: 16, Strength: 0.8, ActiveExperts: 3})
	for tok := uint64(0); tok < 500; tok++ {
		for _, e := range k.Path(tok, int(tok%4)) {
			if e >= 3 {
				t.Fatalf("inactive expert %d routed to", e)
			}
		}
	}
}

func TestKernelParamValidation(t *testing.T) {
	bad := []KernelParams{
		{Layers: 0, Experts: 4, Strength: 0.5},
		{Layers: 2, Experts: 0, Strength: 0.5},
		{Layers: 2, Experts: 4, Strength: 1.5},
		{Layers: 2, Experts: 4, Strength: -0.1},
	}
	for i, p := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			NewKernel(p)
		}()
	}
}

func TestNextArgumentValidation(t *testing.T) {
	k := testKernel(0.5)
	for _, f := range []func(){
		func() { k.Next(1, 0, 0, 0) },
		func() { k.Next(1, k.Layers, 0, 0) },
		func() { k.Next(1, 1, -1, 0) },
		func() { k.Next(1, 1, k.Experts, 0) },
		// A negative domain is rejected even when it is a multiple of
		// Domains, which the modulo alias would map onto domain 0.
		func() { k.Next(1, 1, 0, -1) },
		func() { k.Next(1, 1, 0, -k.Domains) },
		func() { k.First(1, -k.Domains) },
		func() { k.PathInto(1, -k.Domains, make([]int, k.Layers)) },
		// The router's walk writes exactly one entry per kernel layer.
		func() { NewKernelRouter(k, Pile(), 1).PathInto(1, make([]int, k.Layers-1)) },
		func() { NewKernelRouter(k, Pile(), 1).PathInto(1, make([]int, k.Layers+1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestDatasetProfilesValid(t *testing.T) {
	for _, d := range AllDatasets() {
		if err := d.Validate(); err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if len(d.Mix) != standardDomains {
			t.Fatalf("%s: wrong domain count", d.Name)
		}
	}
}

func TestDatasetValidateRejectsBad(t *testing.T) {
	bad := []*DatasetProfile{
		{Name: "empty"},
		{Name: "neg", Mix: []float64{0.5, -0.1}},
		{Name: "zero", Mix: []float64{0, 0}},
	}
	for _, d := range bad {
		if err := d.Validate(); err == nil {
			t.Fatalf("%s should be invalid", d.Name)
		}
	}
}

func TestTokenDomainFollowsMix(t *testing.T) {
	d := Yelp()
	counts := make([]float64, len(d.Mix))
	const n = 50000
	for i := uint64(0); i < n; i++ {
		counts[d.TokenDomain(i)]++
	}
	for dom, m := range d.Mix {
		got := counts[dom] / n
		if math.Abs(got-m) > 0.01 {
			t.Fatalf("domain %d frequency %v, want %v", dom, got, m)
		}
	}
}

func TestTokenIDsDisjointAcrossDatasets(t *testing.T) {
	pile, c4 := Pile(), C4()
	seen := map[uint64]bool{}
	for i := uint64(0); i < 1000; i++ {
		seen[pile.TokenID(i)] = true
	}
	collisions := 0
	for i := uint64(0); i < 1000; i++ {
		if seen[c4.TokenID(i)] {
			collisions++
		}
	}
	if collisions > 0 {
		t.Fatalf("%d token-id collisions across datasets", collisions)
	}
}

func TestKernelRouterMatchesKernel(t *testing.T) {
	k := testKernel(0.8)
	p := Pile()
	kr := NewKernelRouter(k, p, 1)
	for tok := uint64(0); tok < 100; tok++ {
		dom := p.TokenDomain(tok)
		want := k.First(tok, dom)
		got := kr.Route(0, tok, -1, nil)
		if len(got) != 1 || got[0] != want {
			t.Fatalf("layer-0 route mismatch: %v vs %d", got, want)
		}
		next := kr.Route(1, tok, want, nil)
		if next[0] != k.Next(tok, 1, want, dom) {
			t.Fatal("layer-1 route mismatch")
		}
	}
	// PathInto, the kernel's and the router's, is the per-layer
	// primary-expert walk through Route, whatever the gating fan-out: the
	// secondary draw never feeds the next layer.
	path := make([]int, k.Layers)
	walk := make([]int, k.Layers)
	for _, topK := range []int{1, 2} {
		kr := NewKernelRouter(k, p, topK)
		for tok := uint64(0); tok < 200; tok++ {
			k.PathInto(tok, p.TokenDomain(tok), path)
			kr.PathInto(tok, walk)
			prev := -1
			for j := 0; j < k.Layers; j++ {
				prev = kr.Route(j, tok, prev, nil)[0]
				if path[j] != prev || walk[j] != prev {
					t.Fatalf("top-%d token %d layer %d: Kernel.PathInto %d, KernelRouter.PathInto %d, Route walk %d",
						topK, tok, j, path[j], walk[j], prev)
				}
			}
		}
	}
}

// tiltedWeights is RouteWeighted's weighting from before top-1 skipped the
// tilted row, kept as the reference: each selected expert's probability in
// the token's domain-tilted row, normalized over the selection, or equal
// shares when the selection has no mass.
func tiltedWeights(kr *KernelRouter, layer int, tokenID uint64, prev int, experts []int) []float64 {
	row := kr.Kernel.initDist
	if layer > 0 && prev >= 0 {
		row = kr.Kernel.trans[layer-1][prev]
	}
	row = kr.Kernel.tilted(row, kr.Profile.TokenDomain(tokenID))
	weights := make([]float64, len(experts))
	total := 0.0
	for i, e := range experts {
		weights[i] = row[e]
		total += row[e]
	}
	for i := range weights {
		if total == 0 {
			weights[i] = 1 / float64(len(weights))
		} else {
			weights[i] /= total
		}
	}
	return weights
}

// TestRouteWeightedMatchesTiltedRow checks RouteWeighted against the tilted
// row for every (layer, prev, domain) of a small kernel: the experts are
// Route's, a top-1 weight is exactly []float64{1}, and a top-2 weighting is
// the row's. One hand-built row has no mass at all, so its draw lands on an
// expert of probability 0 and the weight comes from the zero-mass fallback.
func TestRouteWeightedMatchesTiltedRow(t *testing.T) {
	k := NewKernel(KernelParams{Seed: 9, Layers: 3, Experts: 8, Strength: 0.8, DomainTilt: 4})
	const emptyLayer, emptyFrom = 1, 5
	clear(k.trans[emptyLayer-1][emptyFrom])
	k.buildTable()
	p := Pile()
	// The first few tokens of every domain.
	byDomain := make([][]uint64, k.Domains)
	for tok, filled := uint64(0), 0; filled < k.Domains; tok++ {
		d := p.TokenDomain(tok)
		if len(byDomain[d]) < 3 {
			if byDomain[d] = append(byDomain[d], tok); len(byDomain[d]) == 3 {
				filled++
			}
		}
	}
	zeroMass := 0
	for _, topK := range []int{1, 2} {
		kr := NewKernelRouter(k, p, topK)
		for layer := 0; layer < k.Layers; layer++ {
			for prev := -1; prev < k.Experts; prev++ {
				if (layer == 0) != (prev < 0) {
					continue
				}
				for d, toks := range byDomain {
					for _, tok := range toks {
						experts, weights := kr.RouteWeighted(layer, tok, prev, nil)
						if route := kr.Route(layer, tok, prev, nil); !slices.Equal(experts, route) {
							t.Fatalf("top-%d layer %d prev %d domain %d: RouteWeighted experts %v, Route %v",
								topK, layer, prev, d, experts, route)
						}
						want := tiltedWeights(kr, layer, tok, prev, experts)
						if topK == 1 && !slices.Equal(want, []float64{1}) {
							t.Fatalf("reference top-1 weight %v, want exactly [1]", want)
						}
						if !slices.Equal(weights, want) {
							t.Fatalf("top-%d layer %d prev %d domain %d: weights %v, tilted row gives %v",
								topK, layer, prev, d, weights, want)
						}
						if layer == emptyLayer && prev == emptyFrom && topK == 1 {
							if row := k.tilted(k.trans[layer-1][prev], d); row[experts[0]] != 0 {
								t.Fatalf("hand-built row gives expert %d mass %v, want 0", experts[0], row[experts[0]])
							}
							zeroMass++
						}
					}
				}
			}
		}
	}
	if zeroMass == 0 {
		t.Fatal("no draw landed on the zero-mass row")
	}
}

// aliasMass returns the probability mass the cells give each column, in
// units of 2^-48/len(cells): cell i keeps column i with its threshold and
// hands the rest of its 2^48 to its alias.
func aliasMass(cells []uint64) []uint64 {
	mass := make([]uint64, len(cells))
	for i, c := range cells {
		thr := c >> 16
		mass[i] += thr
		mass[c&0xFFFF] += 1<<48 - thr
	}
	return mass
}

// checkAliasRow checks one row's cells against its weights w: the rebuilt
// probabilities match w within 1e-12, a zero-weight column keeps nothing
// and is nobody's alias, and the extreme uniforms 0 and 1-2^-53 draw a
// positive-weight column below len(w).
func checkAliasRow(t *testing.T, name string, cells []uint64, w []float64, pick func(f float64) int) {
	t.Helper()
	for i, m := range aliasMass(cells) {
		if got := float64(m) / 0x1p48 / float64(len(w)); math.Abs(got-w[i]) > 1e-12 {
			t.Fatalf("%s: column %d rebuilt probability %v, row %v", name, i, got, w[i])
		}
		if w[i] == 0 && m != 0 {
			t.Fatalf("%s: zero-weight column %d keeps mass %d", name, i, m)
		}
	}
	for _, f := range []float64{0, 1 - 0x1p-53} {
		if e := pick(f); e < 0 || e >= len(w) {
			t.Fatalf("%s: uniform %v draws column %d of %d", name, f, e, len(w))
		} else if w[e] == 0 {
			t.Fatalf("%s: uniform %v draws zero-weight column %d", name, f, e)
		}
	}
}

// TestKernelAliasTableExact checks the alias table: every slot's cells
// rebuild its tilted row, zero-weight columns are never drawn, including in
// rows where rounding leaves Vose's construction with under-full columns
// after the over-full ones run out, and hand-built integer rows come out
// exact to the last unit of the thresholds.
func TestKernelAliasTableExact(t *testing.T) {
	kernels := map[string]*Kernel{
		// The serving benchmark's shape and tilt.
		"bench": NewKernel(KernelParams{Seed: 7, Layers: 16, Experts: 32, Strength: 0.85, DomainTilt: 8}),
		// Zero-weight columns: 13 of every row's 16.
		"active3":    NewKernel(KernelParams{Seed: 3, Layers: 4, Experts: 16, Strength: 0.8, ActiveExperts: 3}),
		"one-domain": NewKernel(KernelParams{Seed: 2, Layers: 3, Experts: 8, Strength: 0.7, Domains: 1}),
		// Expert counts that are not powers of two.
		"e24": NewKernel(KernelParams{Seed: 5, Layers: 4, Experts: 24, Strength: 0.85, DomainTilt: 8}),
		"e48": NewKernel(KernelParams{Seed: 6, Layers: 3, Experts: 48, Strength: 0.6}),
		// One expert: every draw is 0.
		"e1": NewKernel(KernelParams{Seed: 8, Layers: 3, Experts: 1, Strength: 0.5}),
	}
	for name, k := range kernels {
		if len(k.cells) != (1+(k.Layers-1)*k.Experts)*k.Domains*k.Experts {
			t.Fatalf("%s: %d cells", name, len(k.cells))
		}
		for row := 0; row < 1+(k.Layers-1)*k.Experts; row++ {
			base := k.initDist
			if row > 0 {
				base = k.trans[(row-1)/k.Experts][(row-1)%k.Experts]
			}
			for d := 0; d < k.Domains; d++ {
				slot := row*k.Domains + d
				checkAliasRow(t, fmt.Sprintf("%s row %d domain %d", name, row, d),
					k.cells[slot*k.Experts:][:k.Experts], k.tilted(base, d),
					func(f float64) int { return k.pick(slot, f) })
			}
		}
	}

	// Random rows with zero-weight columns, built straight through vose.
	// Some of them end with under-full columns left over once rounding has
	// used up the over-full ones; those must still hold no zero column.
	r := rng.New(0xA11A5)
	exhausted := 0
	for n := 0; n < 2000; n++ {
		e := 2 + r.Intn(40)
		w := make([]float64, e)
		total := 0.0
		for i := range w {
			if r.Intn(3) > 0 {
				w[i] = r.Float64()
				total += w[i]
			}
		}
		if total == 0 {
			continue
		}
		for i := range w {
			w[i] /= total
		}
		cells, scaled := make([]uint64, e), make([]float64, e)
		vose(cells, w, scaled, make([]int, 0, e), make([]int, 0, e))
		for i, c := range cells {
			if c&0xFFFF == uint64(i) && scaled[i] < 1 {
				exhausted++
				break
			}
		}
		k := &Kernel{Experts: e, cells: cells}
		checkAliasRow(t, fmt.Sprintf("random row %v", w), cells, w, func(f float64) int { return k.pick(0, f) })
	}
	if exhausted == 0 {
		t.Fatal("no random row ran out of over-full columns early")
	}

	// Hand-built integer rows with zero-weight columns leading, inside and
	// trailing: every scaled weight is a multiple of 1/8, so the
	// construction runs without rounding and each column's mass, in units
	// of 2^-48/E, is exactly its weight times E·2^48/total.
	for _, weights := range [][]float64{
		{0, 1, 1, 0, 2, 4, 0, 8, 0, 0, 16, 0},
		{0, 0, 3, 1, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 8},
	} {
		k := NewKernel(KernelParams{Seed: 1, Layers: 1, Experts: len(weights), Strength: 0.5, Domains: 1})
		k.initDist = weights
		k.domPref[0] = slices.Repeat([]float64{1}, len(weights))
		k.buildTable()
		total := 0.0
		for _, w := range weights {
			total += w
		}
		for i, m := range aliasMass(k.cells) {
			if want := uint64(weights[i] / total * float64(len(weights)) * 0x1p48); m != want {
				t.Fatalf("weights %v: column %d mass %d, want %d", weights, i, m, want)
			}
		}
		for i := 0; i < 1<<12; i++ {
			if e := k.pick(0, float64(i)/(1<<12)); weights[e] == 0 {
				t.Fatalf("weights %v: uniform %v draws zero-weight column %d", weights, float64(i)/(1<<12), e)
			}
		}
	}
}

func TestKernelDrawAllocs(t *testing.T) {
	k := NewKernel(KernelParams{Seed: 7, Layers: 16, Experts: 32, Strength: 0.85, DomainTilt: 8})
	p := Pile()
	path := make([]int, k.Layers)
	tok := uint64(0)
	if a := testing.AllocsPerRun(200, func() {
		tok++
		k.PathInto(tok, p.TokenDomain(tok), path)
	}); a != 0 {
		t.Fatalf("PathInto+TokenDomain allocates %v objects per token, want 0", a)
	}
	// A top-1 Route returns a one-entry window of the kernel's expert-id
	// table, capped so an append cannot write into the table, and
	// allocates nothing; neither does the router's whole-path walk.
	kr := NewKernelRouter(k, p, 1)
	if a := testing.AllocsPerRun(200, func() {
		tok++
		_ = kr.Route(3, tok, 5, nil)
	}); a != 0 {
		t.Fatalf("top-1 Route allocates %v objects per call, want 0", a)
	}
	if es := kr.Route(3, tok, 5, nil); len(es) != 1 || cap(es) != 1 {
		t.Fatalf("top-1 Route returns len %d cap %d, want 1 and 1", len(es), cap(es))
	}
	if a := testing.AllocsPerRun(200, func() {
		tok++
		kr.PathInto(tok, path)
	}); a != 0 {
		t.Fatalf("KernelRouter.PathInto allocates %v objects per token, want 0", a)
	}
	// A top-1 RouteWeighted returns the kernel's shared unit weight, also
	// capped at one entry.
	if a := testing.AllocsPerRun(200, func() {
		tok++
		_, _ = kr.RouteWeighted(3, tok, 5, nil)
	}); a != 0 {
		t.Fatalf("top-1 RouteWeighted allocates %v objects per call, want 0", a)
	}
	if _, w := kr.RouteWeighted(3, tok, 5, nil); len(w) != 1 || cap(w) != 1 || w[0] != 1 {
		t.Fatalf("top-1 RouteWeighted returns %v with cap %d, want [1] with cap 1", w, cap(w))
	}
}

// BenchmarkKernelPathInto routes one token through every layer of the
// serving benchmark's kernel shape, domain draw included — one token of a
// serve iteration.
func BenchmarkKernelPathInto(b *testing.B) {
	k := NewKernel(KernelParams{Seed: 7, Layers: 16, Experts: 32, Strength: 0.85, DomainTilt: 8})
	p := Pile()
	path := make([]int, k.Layers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := uint64(i)
		k.PathInto(id, p.TokenDomain(id), path)
	}
}

func TestKernelRouterTop2Distinct(t *testing.T) {
	kr := NewKernelRouter(testKernel(0.8), Pile(), 2)
	for tok := uint64(0); tok < 200; tok++ {
		es := kr.Route(2, tok, int(tok)%16, nil)
		if len(es) != 2 {
			t.Fatalf("want 2 experts, got %v", es)
		}
		if es[0] == es[1] {
			t.Fatalf("top-2 experts must differ: %v", es)
		}
	}
}

func TestKernelRouterBadTopKPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewKernelRouter(testKernel(0.5), Pile(), 3)
}

func TestEvolutionActiveExpertsMonotone(t *testing.T) {
	ev := NewEvolution(1, 12, 32)
	prev := 0
	for _, iter := range []int{0, 100, 300, 600, 1000, 2000, 5000} {
		n := ev.ActiveExperts(iter)
		if n < prev {
			t.Fatalf("active experts decreased at iter %d", iter)
		}
		if n < 2 || n > 32 {
			t.Fatalf("active experts %d out of range", n)
		}
		prev = n
	}
	if ev.ActiveExperts(0) >= 16 {
		t.Fatalf("training should start collapsed, got %d active", ev.ActiveExperts(0))
	}
	if ev.ActiveExperts(5000) != 32 {
		t.Fatal("training should end with all experts active")
	}
}

func TestEvolutionLoadSharesShape(t *testing.T) {
	ev := NewEvolution(1, 6, 16)
	early := ev.LoadShares(0, 4000)
	late := ev.LoadShares(18000, 4000)
	sum := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s
	}
	if math.Abs(sum(early)-1) > 1e-9 || math.Abs(sum(late)-1) > 1e-9 {
		t.Fatal("shares must sum to 1")
	}
	// Early training is skewed, late training balanced (Fig 11).
	if stats.GiniImbalance(early) <= stats.GiniImbalance(late) {
		t.Fatalf("imbalance should fall during training: early=%v late=%v",
			stats.GiniImbalance(early), stats.GiniImbalance(late))
	}
	if stats.Max(late) > 3.0/16 {
		t.Fatalf("late-training load should be near-balanced, max share %v", stats.Max(late))
	}
}

func TestEvolutionStrengthShape(t *testing.T) {
	ev := NewEvolution(1, 6, 16)
	s0 := ev.Strength(0)
	sDip := ev.Strength(800)
	sLate := ev.Strength(18000)
	if !(s0 > sDip) {
		t.Fatalf("strength should dip after collapse: s0=%v s800=%v", s0, sDip)
	}
	if !(sLate > sDip) {
		t.Fatalf("strength should recover with specialization: s800=%v s18000=%v", sDip, sLate)
	}
	if sLate < 0.9 || sLate > 1 {
		t.Fatalf("late strength %v implausible", sLate)
	}
	// Steady climb in the 2k-18k window (Fig 12b).
	prev := 0.0
	for iter := 2000; iter <= 18000; iter += 1000 {
		s := ev.Strength(iter)
		if s < prev-1e-9 {
			t.Fatalf("strength not monotone in specialization phase at %d", iter)
		}
		prev = s
	}
}
