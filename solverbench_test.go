package exflow

// Solver benchmarks: the sparse-vs-dense annealing hot path and the
// parallel solve portfolio, at the same scale as BenchmarkMemoryAwareAnneal,
// and the whole staged solve and the whole set-up at the repository
// benchmark's set-up shape, the allocations of its serve loop, and one
// token's routing walk at its kernel shape.
// TestGenerateSolverBench (gated on SOLVER_BENCH=1) measures them with its
// own timer and writes BENCH_solver.json — the machine-readable record CI
// uploads as an artifact.

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/expertmem"
	"repro/internal/moe"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/synth"
)

// solverBenchFixture is the shared solver-benchmark instance: gptm-32 at 16
// layers on 8 GPUs, 3000 profiled tokens, 2x oversubscription — the default
// scale of BenchmarkMemoryAwareAnneal since PR 3.
func solverBenchFixture(tb testing.TB) (counts [][][]float64, mo *placement.MemoryObjective, init *placement.Placement, cfg moe.Config) {
	tb.Helper()
	cfg = moe.GPTM(32)
	cfg.Layers = 16
	sys := NewSystem(SystemOptions{Model: cfg, GPUs: 8, Seed: 1})
	tr := sys.Profile(3000)
	counts = tr.AllTransitionCounts()
	pol, err := expertmem.ParsePolicy("affinity")
	if err != nil {
		tb.Fatal(err)
	}
	mcfg := expertmem.ConfigFor(sys.Topo, cfg.Layers, cfg.Experts, int(cfg.ExpertParams())*2,
		2, pol, 4, 0, counts)
	mo = placement.NewMemoryObjective(mcfg, 0)
	init = placement.Contiguous(cfg.Layers, cfg.Experts, 8)
	return counts, mo, init, cfg
}

// stagedSolveFixture is the staged solve that set-up runs at the repository
// benchmark's shape: GPT-M/32E cut to 16 layers on 16 GPUs in 4-GPU nodes,
// a domain-specialized checkpoint (tilt 8, affinity 0.85), system seed 7 and
// CalibrateServe's default profile of stagedSolveProfileTokens tokens. solve
// runs it once.
func stagedSolveFixture(tb testing.TB) (sys *System, counts [][][]float64, solve func() *placement.Placement) {
	tb.Helper()
	cfg := moe.GPTM(32)
	cfg.Layers = 16
	sys = NewSystem(SystemOptions{Model: cfg, GPUs: 16, AffinityStrength: 0.85, DomainTilt: 8, SolveWorkers: 1, Seed: 7})
	counts = sys.Profile(stagedSolveProfileTokens).AllTransitionCounts()
	return sys, counts, func() *placement.Placement {
		return placement.StagedOpt(counts, cfg.Layers, cfg.Experts, sys.Topo, sys.Seed, placement.StagedOptions{Workers: 1})
	}
}

const stagedSolveProfileTokens = 3000

// stagedSolveCrossings is the crossing count of stagedSolveFixture's
// placement, the repository benchmark's placement.crossings.
const stagedSolveCrossings = 32509

// stagedSolveAllocBudget bounds the heap objects one stagedSolveFixture
// solve allocates. A solve that rebuilt the flow network for every layer and
// cloned the placement on every annealing improvement allocated 195,559; one
// flow workspace per sweep and one preallocated best placement per anneal
// allocate about 1,800. The budget sits between, so a reintroduced
// per-layer network or per-improvement clone fails loudly.
const stagedSolveAllocBudget = 10000

// TestStagedSolveAllocBudget gates the staged solve's allocation count and
// checks it still returns the benchmark's placement.
func TestStagedSolveAllocBudget(t *testing.T) {
	_, counts, solve := stagedSolveFixture(t)
	if got := solve().Crossings(counts); got != stagedSolveCrossings {
		t.Fatalf("staged solve crossings %v, want %v", got, stagedSolveCrossings)
	}
	allocs := testing.AllocsPerRun(2, func() { solve() })
	t.Logf("staged solve allocated %.0f objects (budget %d)", allocs, stagedSolveAllocBudget)
	if allocs > stagedSolveAllocBudget {
		t.Errorf("staged solve allocated %.0f objects, over its budget of %d", allocs, stagedSolveAllocBudget)
	}
}

// BenchmarkStagedSolve times one stagedSolveFixture solve: the placement
// half of set-up, and of every live re-solve at the benchmark's shape.
func BenchmarkStagedSolve(b *testing.B) {
	_, _, solve := stagedSolveFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solve()
	}
}

// BenchmarkMemoryAwareAnnealDense is the dense reference path: O(E) column
// scans per proposal plus a copy+sort residency re-price per swap — what
// the solver hot path was before the sparse TransIndex and sortedMemState.
// Compare against BenchmarkMemoryAwareAnneal (the sparse default).
func BenchmarkMemoryAwareAnnealDense(b *testing.B) {
	counts, mo, init, _ := solverBenchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = placement.Anneal(counts, init, placement.AnnealOptions{Seed: uint64(i), Memory: mo, Dense: true})
	}
}

// BenchmarkAnnealPortfolio measures the parallel solve portfolio at widths
// 1/2/4/8: N independently seeded annealing replicas race and the best
// blended objective wins. Wall-clock per op divided by Workers is the
// per-replica cost; on a machine with Workers free cores it stays near the
// Workers=1 wall-clock (near-linear scaling).
func BenchmarkAnnealPortfolio(b *testing.B) {
	counts, mo, init, _ := solverBenchFixture(b)
	idx := placement.NewTransIndex(counts, init.Layers, init.Experts)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(map[int]string{1: "workers-1", 2: "workers-2", 4: "workers-4", 8: "workers-8"}[workers], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = placement.Anneal(counts, init, placement.AnnealOptions{
					Seed: uint64(i), Memory: mo, Workers: workers, Index: idx,
				})
			}
		})
	}
}

// solverBenchJSON is the BENCH_solver.json shape.
type solverBenchJSON struct {
	Scale struct {
		Model            string  `json:"model"`
		Layers           int     `json:"layers"`
		Experts          int     `json:"experts"`
		GPUs             int     `json:"gpus"`
		ProfileTokens    int     `json:"profile_tokens"`
		Oversubscription float64 `json:"oversubscription"`
		Iterations       int     `json:"anneal_iterations"`
		NNZ              int     `json:"transition_nnz"`
		Density          float64 `json:"transition_density"`
		CPUs             int     `json:"cpus"`
	} `json:"scale"`

	// MemoryAwareAnneal / CrossingOnlyAnneal compare the dense reference
	// path against the sparse production path on identical instances and
	// seeds. BitIdentical asserts the two paths returned the same placement.
	MemoryAwareAnneal  solverCompareJSON `json:"memory_aware_anneal"`
	CrossingOnlyAnneal solverCompareJSON `json:"crossing_only_anneal"`

	// Portfolio is the Workers scaling curve (sparse path, memory-aware).
	// PerReplicaMS = WallMS/Workers: flat means near-linear scaling in
	// total replicas solved per second; on fewer cores than Workers the
	// wall-clock grows toward Workers x the serial time instead.
	Portfolio []portfolioPointJSON `json:"portfolio"`

	// StagedSolve is one whole staged solve (sweep, anneal, both stages) at
	// the repository benchmark's set-up shape, stagedSolveFixture, which
	// differs from Scale above. The generator fails if it allocates more
	// than stagedSolveAllocBudget objects or its crossings differ from the
	// benchmark's placement.crossings.
	StagedSolve stagedSolveJSON `json:"staged_solve"`

	// CalibrateServe is one whole set-up (NewSystem + CalibrateServe:
	// profiling, staged solve, drift threshold and the six timing-only
	// calibration engine runs) at the same shape, benchSetup. The generator
	// fails if it allocates more than calibrateServeAllocBudget objects.
	CalibrateServe calibrateServeJSON `json:"calibrate_serve"`

	// ServeLoop is one Serve of each serveLoopPrograms entry on benchSetup's
	// calibration: heap objects per decode iteration and heap bytes per
	// offered request, set-up and report of the serve run amortized in. The
	// generator fails if a program exceeds either budget.
	ServeLoop []serveLoopJSON `json:"serve_loop"`

	// KernelPath is one token's routing walk, Kernel.PathInto with its
	// domain draw, on the benchmark's kernel (BenchmarkKernelPathInto in
	// internal/synth). The generator fails if the walk allocates or the
	// alias table it reads outgrows one 8-byte cell per (row, domain,
	// expert).
	KernelPath kernelPathJSON `json:"kernel_path"`
}

type kernelPathJSON struct {
	Layers           int     `json:"layers"`
	Experts          int     `json:"experts"`
	Domains          int     `json:"domains"`
	NsPerOp          float64 `json:"ns_per_op"`
	AllocsPerOp      int64   `json:"allocs_per_op"`
	AllocBudget      int64   `json:"alloc_budget"`
	TableBytes       int     `json:"table_bytes"`
	TableBytesBudget int     `json:"table_bytes_budget"`
}

// serveLoopPrograms are the repository benchmark's steady and oversub
// traffic programs, one Serve each (serving seed 1). Neither runs a chaos
// schedule, so every offered request finishes and Report.Requests counts
// them all.
//
// A serve run allocated 3.70 (steady) and 4.71 (oversub) objects per decode
// iteration when it allocated one object per request, a queue array per
// admission burst, the trace window's rows while it filled and a slice per
// prefetch successor list; with requests in one array, rewinding queues, a
// flat window ring and flat successor lists it allocates about 0.09 and
// 0.22. The object budgets sit between, so any allocation per request or
// per token fails.
//
// It allocated 584 (steady) and 869 (oversub) bytes per request while every
// arrival was pushed into the event heap up front and the report grew its
// arrays by appending; with an arrival cursor and a report built at its
// final size it allocates about 289 and 570. The byte budgets sit between,
// so an event or a growing array per request fails.
var serveLoopPrograms = []serveLoopJSON{
	{Program: "steady", RateReqPerS: 3200, Seconds: 2.5, AllocBudget: 1, BytesBudget: 440},
	{Program: "oversub", RateReqPerS: 190, Seconds: 30, Oversubscription: 1.5, CachePolicy: "affinity", AllocBudget: 1, BytesBudget: 720},
}

type serveLoopJSON struct {
	Program          string  `json:"program"`
	RateReqPerS      float64 `json:"rate_req_per_s"`
	Seconds          float64 `json:"seconds"`
	Oversubscription float64 `json:"oversubscription"`
	CachePolicy      string  `json:"cache_policy,omitempty"`
	Seed             uint64  `json:"seed"`
	Iterations       int     `json:"iterations"`
	Requests         int     `json:"requests"`
	WallMS           float64 `json:"wall_ms"`
	Allocs           uint64  `json:"allocs"`
	AllocsPerIter    float64 `json:"allocs_per_iter"`
	AllocBudget      float64 `json:"alloc_budget"`
	Bytes            uint64  `json:"bytes"`
	BytesPerRequest  float64 `json:"bytes_per_request"`
	BytesBudget      float64 `json:"bytes_per_request_budget"`
}

// calibrateServeAllocBudget bounds the heap objects one benchSetup
// allocates. A set-up that routed every profiled token layer by layer,
// allocated every dispatched job on its own and grouped each layer's
// combine through a map allocated 339,243; with whole-path profiling and
// per-layer slabs it allocated about 74,300; with lockstep collectives,
// which box no message and build no mailbox, and a shared top-1 weight it
// allocates about 24,600. The budget sits between the last two.
const calibrateServeAllocBudget = 40000

type calibrateServeJSON struct {
	Layers         int     `json:"layers"`
	Experts        int     `json:"experts"`
	GPUs           int     `json:"gpus"`
	Nodes          int     `json:"nodes"`
	SystemSeed     int     `json:"system_seed"`
	WallMS         float64 `json:"wall_ms"`
	AllocsPerSetup uint64  `json:"allocs_per_setup"`
	BytesPerSetup  uint64  `json:"bytes_per_setup"`
	AllocBudget    int     `json:"alloc_budget"`
}

type stagedSolveJSON struct {
	Layers         int     `json:"layers"`
	Experts        int     `json:"experts"`
	GPUs           int     `json:"gpus"`
	Nodes          int     `json:"nodes"`
	ProfileTokens  int     `json:"profile_tokens"`
	SystemSeed     int     `json:"system_seed"`
	WallMS         float64 `json:"wall_ms"`
	AllocsPerSolve uint64  `json:"allocs_per_solve"`
	BytesPerSolve  uint64  `json:"bytes_per_solve"`
	AllocBudget    int     `json:"alloc_budget"`
	Crossings      float64 `json:"crossings"`
}

type solverCompareJSON struct {
	DenseMS      float64 `json:"dense_ms"`
	SparseMS     float64 `json:"sparse_ms"`
	Speedup      float64 `json:"speedup"`
	BitIdentical bool    `json:"bit_identical"`
}

type portfolioPointJSON struct {
	Workers      int     `json:"workers"`
	WallMS       float64 `json:"wall_ms"`
	PerReplicaMS float64 `json:"per_replica_ms"`
	Objective    float64 `json:"objective"`
}

// TestGenerateSolverBench measures the solver benchmarks with its own timer
// and writes BENCH_solver.json. Gated on SOLVER_BENCH=1 so the regular test
// suite stays fast; CI runs it in the bench job and uploads the artifact.
func TestGenerateSolverBench(t *testing.T) {
	if os.Getenv("SOLVER_BENCH") == "" {
		t.Skip("set SOLVER_BENCH=1 to run the solver benchmark generator")
	}
	counts, mo, init, cfg := solverBenchFixture(t)
	idx := placement.NewTransIndex(counts, init.Layers, init.Experts)

	var out solverBenchJSON
	out.Scale.Model = cfg.Name
	out.Scale.Layers = cfg.Layers
	out.Scale.Experts = cfg.Experts
	out.Scale.GPUs = 8
	out.Scale.ProfileTokens = 3000
	out.Scale.Oversubscription = 2
	out.Scale.Iterations = 20000
	out.Scale.NNZ = idx.NNZ()
	out.Scale.Density = float64(idx.NNZ()) / float64((cfg.Layers-1)*cfg.Experts*cfg.Experts)
	out.Scale.CPUs = runtime.NumCPU()

	// bestMS returns the best-of-3 wall-clock of f in milliseconds, after
	// one warmup — best-of-n damps scheduler noise without needing the full
	// benchmark harness. timeBest also returns a solve's last placement.
	bestMS := func(f func()) float64 {
		f() // warmup
		best := time.Duration(1 << 62)
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			f()
			if d := time.Since(t0); d < best {
				best = d
			}
		}
		return float64(best.Nanoseconds()) / 1e6
	}
	timeBest := func(f func() *placement.Placement) (float64, *placement.Placement) {
		var pl *placement.Placement
		ms := bestMS(func() { pl = f() })
		return ms, pl
	}
	// allocated returns the heap objects and bytes one call of f allocates.
	allocated := func(f func()) (objects, bytes uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}

	compare := func(mem *placement.MemoryObjective) solverCompareJSON {
		var c solverCompareJSON
		var dense, sparse *placement.Placement
		c.DenseMS, dense = timeBest(func() *placement.Placement {
			return placement.Anneal(counts, init, placement.AnnealOptions{Seed: 42, Memory: mem, Dense: true})
		})
		c.SparseMS, sparse = timeBest(func() *placement.Placement {
			return placement.Anneal(counts, init, placement.AnnealOptions{Seed: 42, Memory: mem, Index: idx})
		})
		c.Speedup = c.DenseMS / c.SparseMS
		c.BitIdentical = dense.Equal(sparse)
		return c
	}
	out.MemoryAwareAnneal = compare(mo)
	out.CrossingOnlyAnneal = compare(nil)

	for _, workers := range []int{1, 2, 4, 8} {
		ms, pl := timeBest(func() *placement.Placement {
			return placement.Anneal(counts, init, placement.AnnealOptions{
				Seed: 42, Memory: mo, Workers: workers, Index: idx,
			})
		})
		out.Portfolio = append(out.Portfolio, portfolioPointJSON{
			Workers:      workers,
			WallMS:       ms,
			PerReplicaMS: ms / float64(workers),
			Objective:    mo.Objective(pl, counts),
		})
	}

	stagedSys, stagedCounts, stagedSolve := stagedSolveFixture(t)
	st := &out.StagedSolve
	st.Layers, st.Experts = stagedSys.Model.Cfg.Layers, stagedSys.Model.Cfg.Experts
	st.GPUs, st.Nodes = stagedSys.Topo.TotalGPUs(), stagedSys.Topo.Nodes
	st.ProfileTokens, st.SystemSeed = stagedSolveProfileTokens, int(stagedSys.Seed)
	st.AllocBudget = stagedSolveAllocBudget
	var stagedPl *placement.Placement
	st.WallMS, stagedPl = timeBest(stagedSolve)
	st.AllocsPerSolve, st.BytesPerSolve = allocated(func() { stagedSolve() })
	st.Crossings = stagedPl.Crossings(stagedCounts)

	cs := &out.CalibrateServe
	cs.Layers, cs.Experts = st.Layers, st.Experts
	cs.GPUs, cs.Nodes, cs.SystemSeed = st.GPUs, st.Nodes, st.SystemSeed
	cs.AllocBudget = calibrateServeAllocBudget
	cs.WallMS = bestMS(func() { benchSetup(t) })
	cs.AllocsPerSetup, cs.BytesPerSetup = allocated(func() { benchSetup(t) })

	serveSys, serveCal := benchSetup(t)
	for _, sl := range serveLoopPrograms {
		sl.Seed = 1
		opts := ServeOptions{
			Replicas: 2, DecodeTokens: 32, SolveWorkers: 1, Calibration: serveCal, Seed: sl.Seed,
			Oversubscription: sl.Oversubscription, CachePolicy: sl.CachePolicy,
			Phases: []ServePhase{{Name: sl.Program, Duration: sl.Seconds, Rate: sl.RateReqPerS}},
		}
		var rep *ServeReport
		var err error
		t0 := time.Now()
		sl.Allocs, sl.Bytes = allocated(func() { rep, _, err = Serve(serveSys, opts) })
		sl.WallMS = float64(time.Since(t0).Nanoseconds()) / 1e6
		if err != nil {
			t.Fatal(err)
		}
		sl.Iterations, sl.Requests = rep.Iterations, rep.Requests
		sl.AllocsPerIter = float64(sl.Allocs) / float64(rep.Iterations)
		sl.BytesPerRequest = float64(sl.Bytes) / float64(rep.Requests)
		out.ServeLoop = append(out.ServeLoop, sl)
	}

	k := synth.NewKernel(synth.KernelParams{Seed: 7, Layers: 16, Experts: 32, Strength: 0.85, DomainTilt: 8})
	kp := &out.KernelPath
	kp.Layers, kp.Experts, kp.Domains = k.Layers, k.Experts, k.Domains
	kp.TableBytes = k.TableBytes()
	kp.TableBytesBudget = (1 + (k.Layers-1)*k.Experts) * k.Domains * k.Experts * 8
	pile := synth.Pile()
	path := make([]int, k.Layers)
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k.PathInto(uint64(i), pile.TokenDomain(uint64(i)), path)
		}
	})
	kp.NsPerOp = float64(res.T.Nanoseconds()) / float64(res.N)
	kp.AllocsPerOp = res.AllocsPerOp()

	// The acceptance gates: the sparse path must be a pure speedup.
	if !out.MemoryAwareAnneal.BitIdentical || !out.CrossingOnlyAnneal.BitIdentical {
		t.Fatal("sparse anneal not bit-identical to dense reference")
	}
	if out.MemoryAwareAnneal.Speedup < 3 {
		t.Fatalf("memory-aware sparse speedup %.2fx below the 3x acceptance floor", out.MemoryAwareAnneal.Speedup)
	}
	for i := 1; i < len(out.Portfolio); i++ {
		if out.Portfolio[i].Objective > out.Portfolio[0].Objective+1e-9 {
			t.Fatalf("portfolio Workers=%d objective %v worse than Workers=1 %v",
				out.Portfolio[i].Workers, out.Portfolio[i].Objective, out.Portfolio[0].Objective)
		}
	}

	// The staged solve must stay within its allocation budget and return
	// the benchmark's placement.
	if st.AllocsPerSolve > stagedSolveAllocBudget {
		t.Fatalf("staged solve allocated %d objects, over its budget of %d", st.AllocsPerSolve, stagedSolveAllocBudget)
	}
	if st.Crossings != stagedSolveCrossings {
		t.Fatalf("staged solve crossings %v, want %v", st.Crossings, stagedSolveCrossings)
	}
	// So must the whole set-up.
	if cs.AllocsPerSetup > calibrateServeAllocBudget {
		t.Fatalf("set-up allocated %d objects, over its budget of %d", cs.AllocsPerSetup, calibrateServeAllocBudget)
	}

	// So must every serve loop.
	for _, sl := range out.ServeLoop {
		if sl.AllocsPerIter > sl.AllocBudget {
			t.Fatalf("%s serve run allocated %.3f objects per iteration, over its budget of %g",
				sl.Program, sl.AllocsPerIter, sl.AllocBudget)
		}
		if sl.BytesPerRequest > sl.BytesBudget {
			t.Fatalf("%s serve run allocated %.1f bytes per request, over its budget of %g",
				sl.Program, sl.BytesPerRequest, sl.BytesBudget)
		}
	}

	// And so must the routing walk.
	if kp.AllocsPerOp > kp.AllocBudget {
		t.Fatalf("kernel path walk allocated %d objects per token, over its budget of %d", kp.AllocsPerOp, kp.AllocBudget)
	}
	if kp.TableBytes > kp.TableBytesBudget {
		t.Fatalf("kernel alias table holds %d bytes, over its budget of %d", kp.TableBytes, kp.TableBytesBudget)
	}

	blob, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteFileAtomic("BENCH_solver.json", append(blob, '\n')); err != nil {
		t.Fatal(err)
	}
	t.Logf("memory-aware anneal: dense %.1fms sparse %.1fms -> %.2fx (bit-identical %v)",
		out.MemoryAwareAnneal.DenseMS, out.MemoryAwareAnneal.SparseMS,
		out.MemoryAwareAnneal.Speedup, out.MemoryAwareAnneal.BitIdentical)
	t.Logf("staged solve: %.1fms, %d allocs, %d bytes, crossings %v",
		st.WallMS, st.AllocsPerSolve, st.BytesPerSolve, st.Crossings)
	t.Logf("set-up: %.1fms, %d allocs, %d bytes", cs.WallMS, cs.AllocsPerSetup, cs.BytesPerSetup)
	for _, sl := range out.ServeLoop {
		t.Logf("%s serve: %d iterations in %.0fms, %.3f allocs per iteration, %.1f bytes per request",
			sl.Program, sl.Iterations, sl.WallMS, sl.AllocsPerIter, sl.BytesPerRequest)
	}
	t.Logf("kernel path: %.1f ns, %d allocs per token, %d-byte table", kp.NsPerOp, kp.AllocsPerOp, kp.TableBytes)
	t.Log("wrote BENCH_solver.json")
}
