package trace

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/moe"
	"repro/internal/rng"
	"repro/internal/synth"
)

func sampleTrace(tokens int) *Trace {
	k := synth.NewKernel(synth.KernelParams{Seed: 1, Layers: 5, Experts: 8, Strength: 0.8})
	kr := synth.NewKernelRouter(k, synth.Pile(), 1)
	return Collect(kr, 5, SequentialIDs(tokens, nil))
}

func TestCollectShape(t *testing.T) {
	tr := sampleTrace(100)
	if tr.Tokens() != 100 || tr.Layers != 5 || tr.Experts != 8 {
		t.Fatalf("bad shape: %d tokens, %dx%d", tr.Tokens(), tr.Layers, tr.Experts)
	}
	for _, path := range tr.Paths {
		for _, e := range path {
			if int(e) >= 8 {
				t.Fatal("expert out of range")
			}
		}
	}
}

// routeOnly hides a router's whole-path walk, so Collect routes through it
// one layer at a time.
type routeOnly struct{ moe.Router }

var _ PathWalker = (*synth.KernelRouter)(nil)

// TestCollectMatchesRouter: Collect records the primary expert Route picks
// at every layer, and through a kernel router's whole-path walk it
// records, path for path, what the per-layer Route walk records, for both
// gating fan-outs and two datasets.
func TestCollectMatchesRouter(t *testing.T) {
	k := synth.NewKernel(synth.KernelParams{Seed: 2, Layers: 4, Experts: 8, Strength: 0.7})
	kr := synth.NewKernelRouter(k, synth.Pile(), 1)
	tr := Collect(kr, 4, []uint64{42})
	prev := -1
	for j := 0; j < 4; j++ {
		want := kr.Route(j, 42, prev, nil)[0]
		if int(tr.Paths[0][j]) != want {
			t.Fatalf("layer %d: trace %d vs router %d", j, tr.Paths[0][j], want)
		}
		prev = want
	}

	k = synth.NewKernel(synth.KernelParams{Seed: 3, Layers: 6, Experts: 16, Strength: 0.85, DomainTilt: 8})
	for _, ds := range []*synth.DatasetProfile{synth.Pile(), synth.C4()} {
		ids := SequentialIDs(500, ds.TokenID)
		for _, topK := range []int{1, 2} {
			kr := synth.NewKernelRouter(k, ds, topK)
			got, want := Collect(kr, k.Layers, ids), Collect(routeOnly{kr}, k.Layers, ids)
			for i := range want.Paths {
				if !slices.Equal(got.Paths[i], want.Paths[i]) {
					t.Fatalf("%s top-%d token %d: walk %v, Route %v", ds.Name, topK, i, got.Paths[i], want.Paths[i])
				}
			}
		}
	}
}

func TestAppendValidation(t *testing.T) {
	tr := New(3, 4)
	for _, bad := range [][]int{{1, 2}, {1, 2, 4}, {1, 2, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for %v", bad)
				}
			}()
			tr.Append(bad)
		}()
	}
	tr.Append([]int{0, 3, 2})
	if tr.Tokens() != 1 {
		t.Fatal("append failed")
	}
}

func TestNewValidation(t *testing.T) {
	for _, f := range []func(){
		func() { New(0, 4) },
		func() { New(3, 0) },
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

func TestMergeAndHead(t *testing.T) {
	a := New(2, 4)
	a.Append([]int{0, 1})
	b := New(2, 4)
	b.Append([]int{2, 3})
	b.Append([]int{1, 1})
	a.Merge(b)
	if a.Tokens() != 3 {
		t.Fatalf("merge gave %d tokens", a.Tokens())
	}
	h := a.Head(2)
	if h.Tokens() != 2 || h.Paths[0][0] != 0 {
		t.Fatal("Head wrong")
	}
	if a.Head(99).Tokens() != 3 {
		t.Fatal("Head overflow wrong")
	}
}

func TestMergeShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 4).Merge(New(3, 4))
}

func TestSampleProperties(t *testing.T) {
	tr := sampleTrace(200)
	s := tr.Sample(50, 7)
	if s.Tokens() != 50 {
		t.Fatalf("sample size %d", s.Tokens())
	}
	// Sampling everything returns all paths.
	if tr.Sample(500, 7).Tokens() != 200 {
		t.Fatal("oversample should return all")
	}
	// Deterministic given the seed.
	s2 := tr.Sample(50, 7)
	for i := range s.Paths {
		for j := range s.Paths[i] {
			if s.Paths[i][j] != s2.Paths[i][j] {
				t.Fatal("sampling not deterministic")
			}
		}
	}
}

func TestTransitionCountsConsistency(t *testing.T) {
	tr := New(3, 4)
	tr.Append([]int{0, 1, 2})
	tr.Append([]int{0, 1, 3})
	tr.Append([]int{2, 1, 3})
	c0 := tr.TransitionCounts(0)
	if c0[0][1] != 2 || c0[2][1] != 1 {
		t.Fatalf("layer-0 counts wrong: %v", c0)
	}
	c1 := tr.TransitionCounts(1)
	if c1[1][3] != 2 || c1[1][2] != 1 {
		t.Fatalf("layer-1 counts wrong: %v", c1)
	}
	// Total counts per pair equals token count.
	for j := 0; j < 2; j++ {
		total := 0.0
		for _, row := range tr.TransitionCounts(j) {
			for _, v := range row {
				total += v
			}
		}
		if total != 3 {
			t.Fatalf("pair %d total %v", j, total)
		}
	}
}

func TestPairCountsArbitraryLayers(t *testing.T) {
	tr := New(4, 4)
	tr.Append([]int{0, 1, 2, 3})
	c := tr.PairCounts(0, 3)
	if c[0][3] != 1 {
		t.Fatal("PairCounts(0,3) wrong")
	}
	for _, bad := range [][2]int{{-1, 2}, {2, 2}, {3, 2}, {0, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for %v", bad)
				}
			}()
			tr.PairCounts(bad[0], bad[1])
		}()
	}
}

func TestAllTransitionCounts(t *testing.T) {
	tr := sampleTrace(50)
	all := tr.AllTransitionCounts()
	if len(all) != tr.Layers-1 {
		t.Fatalf("got %d pair matrices", len(all))
	}
}

func TestLayerLoad(t *testing.T) {
	tr := New(2, 3)
	tr.Append([]int{0, 2})
	tr.Append([]int{0, 1})
	load := tr.LayerLoad(0)
	if load[0] != 2 || load[1] != 0 {
		t.Fatalf("load wrong: %v", load)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.LayerLoad(2)
}

func TestCodecRoundTrip(t *testing.T) {
	tr := sampleTrace(123)
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Layers != tr.Layers || got.Experts != tr.Experts || got.Tokens() != tr.Tokens() {
		t.Fatal("shape mismatch after round trip")
	}
	for i := range tr.Paths {
		for j := range tr.Paths[i] {
			if got.Paths[i][j] != tr.Paths[i][j] {
				t.Fatalf("path (%d,%d) mismatch", i, j)
			}
		}
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw % 40)
		r := rng.New(seed)
		tr := New(3, 16)
		for i := 0; i < n; i++ {
			tr.Append([]int{r.Intn(16), r.Intn(16), r.Intn(16)})
		}
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			return false
		}
		got, err := Decode(&buf)
		if err != nil || got.Tokens() != n {
			return false
		}
		for i := range tr.Paths {
			for j := range tr.Paths[i] {
				if got.Paths[i][j] != tr.Paths[i][j] {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		[]byte("NOTMAGIC........................"),
	}
	for i, c := range cases {
		if _, err := Decode(bytes.NewReader(c)); err == nil {
			t.Fatalf("case %d: expected error", i)
		}
	}
	// Truncated payload.
	tr := sampleTrace(10)
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, err := Decode(bytes.NewReader(trunc)); err == nil {
		t.Fatal("expected error for truncated trace")
	}
}

func TestDecodeRejectsOutOfRangeExpert(t *testing.T) {
	tr := New(1, 2)
	tr.Append([]int{1})
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-2] = 0xFF // corrupt the expert id upward
	raw[len(raw)-1] = 0x00
	if _, err := Decode(bytes.NewReader(raw)); err == nil {
		t.Fatal("expected error for out-of-range expert")
	}
}

func TestSequentialIDs(t *testing.T) {
	plain := SequentialIDs(3, nil)
	if plain[0] != 0 || plain[2] != 2 {
		t.Fatal("plain ids wrong")
	}
	mapped := SequentialIDs(3, func(i uint64) uint64 { return i * 10 })
	if mapped[1] != 10 {
		t.Fatal("mapped ids wrong")
	}
}
