package placement

import (
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/topo"
)

// TestMemoryObjectiveGoldenDigest pins the memory-aware staged solve and the
// objective's pricing of its result to a digest recorded on an earlier
// build, so refactors of the stall model are checked across commits rather
// than between two paths of one build. The fixture spans two nodes, so the
// node stage prices pooled budgets (group) and each GPU stage prices a
// projected objective (restrict). The pin is amd64-only: other
// architectures may fuse multiply-adds and round differently.
func TestMemoryObjectiveGoldenDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digest recorded on amd64; FMA fusion elsewhere changes float bits")
	}
	const layers, experts, gpus = 8, 16, 8
	counts, mo := memFixture(t, layers, experts, gpus, 2, 23)
	mo.DeflateBatch(32)
	tp := topo.ForGPUs(gpus)
	if tp.Nodes != 2 {
		t.Fatalf("fixture topology has %d nodes, want 2", tp.Nodes)
	}
	solved := StagedOpt(counts, layers, experts, tp, 5, StagedOptions{Memory: mo})
	stall := mo.StallSeconds(solved)
	perToken := mo.StallPerToken(solved)
	rewarm := mo.RewarmSeconds(solved, Diff(Contiguous(layers, experts, gpus), solved))
	if stall <= 0 || rewarm <= 0 {
		t.Fatalf("degenerate fixture: stall %v rewarm %v", stall, rewarm)
	}

	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, row := range solved.Assign {
		for _, g := range row {
			put(uint64(g))
		}
	}
	for _, f := range []float64{stall, perToken, rewarm} {
		put(math.Float64bits(f))
	}
	const want = uint64(0x7692f196bec89fd0)
	if got := h.Sum64(); got != want {
		t.Errorf("digest %#x, want %#x (stall %v, per token %v, rewarm %v)", got, want, stall, perToken, rewarm)
	}
}
