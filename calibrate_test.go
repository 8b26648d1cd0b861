package exflow

import (
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"testing"

	"repro/internal/engine"
	"repro/internal/moe"
)

// calibSystem is the 8-GPU x 8-layer GPT-M/32E serving system that the
// calibration and engine-output pins and the set-up allocation gate share.
func calibSystem() *System {
	cfg := moe.GPTM(32)
	cfg.Layers = 8
	return NewSystem(SystemOptions{Model: cfg, GPUs: 8, AffinityStrength: 0.85, DomainTilt: 8, Seed: 7})
}

// calibOptions are the serving options calibSystem is calibrated under.
func calibOptions() ServeOptions { return ServeOptions{Replicas: 2, DecodeTokens: 32} }

// digest feeds float bits and integers, in order, into an FNV-1a hash.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{fnv.New64a()} }

func (d *digest) u64(v uint64) {
	var buf [8]byte
	for i := range buf {
		buf[i] = byte(v >> (8 * i))
	}
	d.h.Write(buf[:])
}

func (d *digest) f64(v float64) { d.u64(math.Float64bits(v)) }

func (d *digest) ints(vs []int) {
	for _, v := range vs {
		d.u64(uint64(v))
	}
}

// TestCalibrateServeGoldenDigest pins CalibrateServe's outputs to a digest
// recorded on an earlier build: the fitted cost coefficients, the staged
// placement's dispatch fractions, both capacities, the drift threshold and
// the placement itself. A change to how calibration runs the engine must
// keep it green. amd64 only, like the serve digest: other architectures may
// fuse multiply-adds and round differently.
func TestCalibrateServeGoldenDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digest recorded on amd64; FMA fusion elsewhere changes float bits")
	}
	const want = 0xbca1902a0e45e3ac
	cal, err := CalibrateServe(calibSystem(), calibOptions())
	if err != nil {
		t.Fatal(err)
	}
	m := cal.Metrics
	d := newDigest()
	for _, f := range []float64{m.Cost.Fixed, m.Cost.PerToken, m.Cost.PerNodeHop, m.Cost.PerCrossHop,
		m.FracNode, m.FracCross, m.TokenCapacity, m.RequestCapacity, cal.DriftThreshold} {
		d.f64(f)
	}
	for _, row := range cal.Placement.Assign {
		d.ints(row)
	}
	if got := d.h.Sum64(); got != want {
		t.Errorf("digest %#x, want %#x (cost %+v, capacity %v, threshold %v)",
			got, uint64(want), m.Cost, m.TokenCapacity, cal.DriftThreshold)
	}
}

// TestEngineOutputsGoldenDigest pins the public System.Run's generated
// tokens and simulated makespan under Vanilla (contiguous placement) and
// ExFlow (staged placement) to a digest recorded on an earlier build, so the
// full forward math is checked across commits, not only between modes.
func TestEngineOutputsGoldenDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digest recorded on amd64; FMA fusion elsewhere changes float bits")
	}
	const want = 0x50e043e4cd396e4f
	sys := calibSystem()
	w := Workload{RequestsPerGPU: 4, PromptLen: 8, GenerateTokens: 4}
	d := newDigest()
	for _, rep := range []*engine.Report{
		sys.Run(engine.Vanilla, sys.Baseline(), w),
		sys.Run(engine.ExFlow, sys.SolvePlacement(sys.Profile(1500)), w),
	} {
		if len(rep.Outputs) == 0 {
			t.Fatalf("%s run returned no outputs", rep.Mode)
		}
		for _, out := range rep.Outputs {
			d.ints(out)
		}
		d.f64(rep.SimSeconds)
	}
	if got := d.h.Sum64(); got != want {
		t.Errorf("digest %#x, want %#x", got, uint64(want))
	}
}

// TestHierarchicalEngineGoldenDigest pins the node-leader Alltoall's
// simulated clocks across commits: SimSeconds and every Breakdown value of
// hierarchical-dispatch runs under Vanilla (dispatch and combine-back both
// hierarchical) and ExFlow at 8, 16 and 32 GPUs, to a digest recorded on an
// earlier build. Runs are timing-only; their clocks equal the full-math
// ones (TestTimingOnlyMatchesFullMath).
func TestHierarchicalEngineGoldenDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digest recorded on amd64; FMA fusion elsewhere changes float bits")
	}
	const want = 0x72dc89c237541340
	w := Workload{Hierarchical: true}
	d := newDigest()
	for _, gpus := range []int{8, 16, 32} {
		cfg := moe.GPTM(32)
		cfg.Layers = 8
		sys := NewSystem(SystemOptions{Model: cfg, GPUs: gpus, AffinityStrength: 0.85, DomainTilt: 8, Seed: 7})
		for _, rep := range []*engine.Report{
			sys.run(engine.Vanilla, sys.Baseline(), w, true),
			sys.run(engine.ExFlow, sys.SolvePlacement(sys.Profile(1500)), w, true),
		} {
			d.f64(rep.SimSeconds)
			cats := make([]string, 0, len(rep.Breakdown))
			for k := range rep.Breakdown {
				cats = append(cats, k)
			}
			sort.Strings(cats)
			for _, k := range cats {
				d.h.Write([]byte(k))
				d.f64(rep.Breakdown[k])
			}
		}
	}
	if got := d.h.Sum64(); got != want {
		t.Errorf("digest %#x, want %#x", got, uint64(want))
	}
}

// setupAllocBudget bounds the heap bytes one NewSystem + CalibrateServe
// allocates at the calibSystem shape. On amd64 a set-up that runs the
// forward math allocates 37.5 MB there, a timing-only one 14.6 MB, one
// whose staged solve reuses its flow workspace and best placement 6.0 MB,
// one that profiles whole paths per call and keeps the engine's jobs and
// chunks in per-layer slabs 2.8 MB, and one whose flat collectives are
// lockstep exchanges and whose top-1 weight is shared 2.3 MB; the budget
// sits between the last two.
const setupAllocBudget = 5 << 19

// setupAllocCountBudget bounds the heap objects the same set-up allocates:
// 121,194 when every dispatched job, every per-layer combine map and every
// routed token's expert slice was its own allocation, about 19,500 when
// they shared slabs but every collective boxed each chunk into a message
// and every top-1 route allocated its weight, and about 8,000 since neither
// does. The budget sits between the last two, so a reintroduced per-message
// box, per-token weight, per-job allocation or per-layer map fails loudly.
const setupAllocCountBudget = 12000

// TestSetupAllocBudget gates set-up's allocation volume and count.
// Calibration reads only simulated seconds and dispatch counts from its
// engine runs, so it must not pay for the forward math or build the
// model's weights; the staged solve must not rebuild its flow network for
// every layer; and neither profiling nor the engine's dispatch may allocate
// per token or per job.
func TestSetupAllocBudget(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := CalibrateServe(calibSystem(), calibOptions()); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	objects := after.Mallocs - before.Mallocs
	t.Logf("set-up allocated %.1f MB in %d objects (budgets %.1f MB, %d objects)",
		float64(got)/(1<<20), objects, float64(setupAllocBudget)/(1<<20), setupAllocCountBudget)
	if got > setupAllocBudget {
		t.Errorf("set-up allocated %.1f MB, over its %.1f MB budget", float64(got)/(1<<20), float64(setupAllocBudget)/(1<<20))
	}
	if objects > setupAllocCountBudget {
		t.Errorf("set-up allocated %d objects, over its budget of %d", objects, setupAllocCountBudget)
	}
}

// benchSetup runs one fresh set-up at the repository benchmark's shape
// (GPT-M/32E cut to 16 layers, 16 GPUs, system seed 7): NewSystem plus
// CalibrateServe, the work behind the benchmark's setup_s.
func benchSetup(tb testing.TB) (*System, *ServeCalibration) {
	cfg := moe.GPTM(32)
	cfg.Layers = 16
	sys := NewSystem(SystemOptions{Model: cfg, GPUs: 16, AffinityStrength: 0.85, DomainTilt: 8, SolveWorkers: 1, Seed: 7})
	cal, err := CalibrateServe(sys, ServeOptions{Replicas: 2, DecodeTokens: 32, SolveWorkers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return sys, cal
}

// BenchmarkCalibrateServe times one benchSetup.
func BenchmarkCalibrateServe(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchSetup(b)
	}
}
