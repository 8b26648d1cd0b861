package serve

import (
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/placement"
	"repro/internal/synth"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/workload"
)

// goldenSystem is a tiny 8-GPU x 8-layer serving fixture for the
// cross-commit digest pin.
func goldenSystem() (Deployment, Options, *synth.DatasetProfile) {
	tp := topo.ForGPUs(8)
	k := synth.NewKernel(synth.KernelParams{
		Seed: 0x601D, Layers: 8, Experts: 16, Strength: 0.85, DomainTilt: 8,
	})
	pile := synth.Pile()
	tr := trace.Collect(synth.NewKernelRouter(k, pile, 1), k.Layers, trace.SequentialIDs(1500, pile.TokenID))
	dep := Deployment{Topo: tp, Kernel: k, ExpertBytes: 16 << 20, Dataset: pile}
	opts := Options{
		Replicas:     2,
		MaxBatch:     32,
		DecodeTokens: 16,
		Window:       1024,
		Calibration: &Calibration{
			Trace:          tr,
			Placement:      placement.Staged(tr.AllTransitionCounts(), k.Layers, k.Experts, tp, 3),
			Metrics:        Metrics{Cost: workload.LocalityModel{Fixed: 500e-6, PerToken: 5e-6, PerNodeHop: 1e-6, PerCrossHop: 4e-6}},
			DriftThreshold: 0.02,
		},
		Seed: 21,
	}
	return dep, opts, synth.Custom("golden-drift", []float64{0, 0, 0, 0, 1, 0}, 0x601E)
}

// reportDigest hashes the float bits of the overall percentiles, throughput
// and charged memory stall, plus the token, iteration, migration and move
// counts.
func reportDigest(r *Report) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, f := range []float64{r.Overall.P50, r.Overall.P95, r.Overall.P99, r.Overall.Throughput, r.MemStallSeconds} {
		put(math.Float64bits(f))
	}
	moves := 0
	for _, m := range r.Migrations {
		moves += m.Moves
	}
	for _, n := range []int{r.Tokens, r.Iterations, len(r.Migrations), moves} {
		put(uint64(n))
	}
	return h.Sum64()
}

// TestServeGoldenDigest pins three tiny serve runs to digests recorded on an
// earlier build, so refactors that must not change simulated results are
// checked across commits rather than between two paths of one build. The
// pin is amd64-only: other architectures may fuse multiply-adds and round
// differently.
func TestServeGoldenDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded on amd64; FMA fusion elsewhere changes float bits")
	}
	dep, base, drifted := goldenSystem()
	rate := nearKneeRate(base, 0.9, 0.2, 0.5)
	drift := []Phase{
		{Name: "warm", Duration: 2, Rate: rate, Dataset: synth.Pile()},
		{Name: "drift", Duration: 5, Rate: rate, Dataset: drifted},
	}
	cases := []struct {
		name      string
		want      uint64
		migrating bool
		tweak     func(o *Options)
	}{
		{"steady-static", 0x54588e7fd6fc86a3, false, func(o *Options) {
			o.Phases = []Phase{{Name: "steady", Duration: 4, Rate: rate, Dataset: synth.Pile()}}
		}},
		{"drift-adaptive", 0x9ae6c5cea769b217, true, func(o *Options) {
			o.Adaptive = true
			o.Phases = drift
		}},
		{"drift-memaware-1.5x", 0xd5703fc5c9cd82c5, true, func(o *Options) {
			o.Adaptive = true
			o.Oversubscription = 1.5
			o.MemoryAware = true
			o.Phases = drift
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opts := base
			c.tweak(&opts)
			rep, err := Run(dep, opts)
			if err != nil {
				t.Fatal(err)
			}
			if c.migrating && len(rep.Migrations) == 0 {
				t.Fatal("fixture must migrate at least once")
			}
			if got := reportDigest(rep); got != c.want {
				t.Errorf("digest %#x, want %#x (migrations %d, iterations %d)",
					got, c.want, len(rep.Migrations), rep.Iterations)
			}
		})
	}
}
