package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestMix64Deterministic(t *testing.T) {
	if Mix64(1, 2, 3) != Mix64(1, 2, 3) {
		t.Fatal("Mix64 not deterministic")
	}
	if Mix64(1, 2, 3) == Mix64(1, 2, 4) {
		t.Fatal("Mix64 collision on trivially different inputs")
	}
	if Mix64(1, 2) == Mix64(2, 1) {
		t.Fatal("Mix64 should be order-sensitive")
	}
}

func TestPrefixMatchesMix64(t *testing.T) {
	if err := quick.Check(func(a, b, v uint64) bool {
		return MixPrefix(a, b).Mix64(v) == Mix64(a, b, v) && MixPrefix().Mix64(v) == Mix64(v)
	}, &quick.Config{MaxCount: 10000}); err != nil {
		t.Fatal(err)
	}
}

func TestFirstFloat64MatchesNew(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		return FirstFloat64(seed) == New(seed).Float64()
	}, &quick.Config{MaxCount: 10000}); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %v too far from 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 17 {
		t.Fatalf("Intn(17) covered only %d values", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	r := New(5)
	s := []int{1, 2, 2, 3, 9, 9, 9}
	counts := map[int]int{}
	for _, v := range s {
		counts[v]++
	}
	r.Shuffle(s)
	for _, v := range s {
		counts[v]--
	}
	for k, c := range counts {
		if c != 0 {
			t.Fatalf("shuffle changed multiplicity of %d by %d", k, c)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(13)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %v too far from 1", variance)
	}
}

func TestCategoricalDistribution(t *testing.T) {
	r := New(17)
	weights := []float64{1, 2, 3, 4}
	counts := make([]float64, 4)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Categorical(weights)]++
	}
	for i, w := range weights {
		want := w / 10
		got := counts[i] / n
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("category %d: got frequency %v, want %v", i, got, want)
		}
	}
}

func TestCategoricalSingleton(t *testing.T) {
	r := New(19)
	for i := 0; i < 10; i++ {
		if r.Categorical([]float64{5}) != 0 {
			t.Fatal("singleton categorical must return 0")
		}
	}
}

func TestCategoricalZeroWeightNeverChosen(t *testing.T) {
	r := New(23)
	weights := []float64{0, 1, 0, 1}
	for i := 0; i < 10000; i++ {
		c := r.Categorical(weights)
		if c == 0 || c == 2 {
			t.Fatalf("chose zero-weight category %d", c)
		}
	}
}

func TestCategoricalPanics(t *testing.T) {
	cases := [][]float64{nil, {}, {0, 0}, {-1, 2}}
	for _, ws := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for weights %v", ws)
				}
			}()
			New(1).Categorical(ws)
		}()
	}
}

func TestDirichletSumsToOne(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		p := New(seed).Dirichlet(8, 0.5)
		sum := 0.0
		for _, v := range p {
			if v < 0 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDirichletConcentration(t *testing.T) {
	// High alpha should concentrate near uniform; low alpha should be spiky.
	high := New(29).Dirichlet(16, 100)
	low := New(29).Dirichlet(16, 0.05)
	maxHigh, maxLow := 0.0, 0.0
	for i := range high {
		maxHigh = math.Max(maxHigh, high[i])
		maxLow = math.Max(maxLow, low[i])
	}
	if maxHigh > 0.15 {
		t.Fatalf("high-concentration Dirichlet too spiky: max=%v", maxHigh)
	}
	if maxLow < 0.5 {
		t.Fatalf("low-concentration Dirichlet not spiky enough: max=%v", maxLow)
	}
}

func TestDirichletWeightedMean(t *testing.T) {
	base := []float64{0.7, 0.2, 0.1}
	const n = 5000
	sums := make([]float64, 3)
	r := New(31)
	for i := 0; i < n; i++ {
		p := r.DirichletWeighted(base, 50)
		for j, v := range p {
			sums[j] += v
		}
	}
	for j, b := range base {
		got := sums[j] / n
		if math.Abs(got-b) > 0.02 {
			t.Fatalf("component %d mean %v, want ~%v", j, got, b)
		}
	}
}

func TestGammaMoments(t *testing.T) {
	r := New(37)
	for _, shape := range []float64{0.5, 1, 2, 5} {
		const n = 100000
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += r.Gamma(shape)
		}
		mean := sum / n
		if math.Abs(mean-shape) > 0.05*shape+0.02 {
			t.Fatalf("Gamma(%v) mean %v, want ~%v", shape, mean, shape)
		}
	}
}

func TestExponentialMean(t *testing.T) {
	r := New(41)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exponential()
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("Exponential mean %v, want ~1", mean)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkCategorical32(b *testing.B) {
	r := New(1)
	w := make([]float64, 32)
	for i := range w {
		w[i] = float64(i + 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = r.Categorical(w)
	}
}
