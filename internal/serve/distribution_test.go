package serve

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/placement"
	"repro/internal/stats"
	"repro/internal/synth"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The distribution pin checks that the serving system behaves the same,
// not that it replays the same bits. The digest pins (TestServeGoldenDigest
// and its kin) must be re-recorded whenever the routing stream changes —
// a different draw method or seed derivation — and after that re-record
// nothing else says whether the new digests describe the same system. This
// test does: it serves a grid of replicates on the golden fixture's shape
// and compares each (program, metric) mean over the grid with a mean
// recorded before such a change.
//
// A replicate is one kernel seed and one token namespace. Namespace j is a
// dataset with Pile's mix under its own seed: it supplies the profiling
// trace the placement is solved from and every served token (the drift
// program's second phase draws from a drifted mix under a seed of the same
// namespace), and serve seed j+1 goes with it (the serve seed draws only
// arrivals). A stream change keeps every kernel, so the tolerance is sized
// from the spread across namespaces within a kernel: the new grid mean and
// the recorded one are two means of 16 replicates with that spread, so they
// may differ by distPinT·sd·sqrt(2/16). A metric with no spread is pinned
// exactly: every replicate of the drift program migrates once, so a
// controller that skips or repeats that migration fails.
//
// The cost model is fixed, so no engine calibration runs. The memory
// program offers 8% of the memory-off knee, below the 1.5x memory tier's
// own knee, so its percentiles measure service rather than backlog.

// distPinKernelSeeds and distPinNamespaces span the replicate grid.
var distPinKernelSeeds = []uint64{0x601D, 0x7A11, 0x8B22, 0x9C33}

const distPinNamespaces = 4

// distPinT is the two-sided Student-t quantile at the pooled spread's
// 12 degrees of freedom (4 kernels × 3) for a 1% family-wise false-alarm
// rate over the 15 (program, metric) pairs, Bonferroni-split.
const distPinT = 4.55

// distPinMetric reads one metric from a run.
type distPinMetric struct {
	name string
	read func(*Report) float64
}

var (
	pinP50        = distPinMetric{"p50_s", func(r *Report) float64 { return r.Overall.P50 }}
	pinP95        = distPinMetric{"p95_s", func(r *Report) float64 { return r.Overall.P95 }}
	pinTokens     = distPinMetric{"tokens_per_s", func(r *Report) float64 { return r.Overall.Throughput }}
	pinCross      = distPinMetric{"cross_node_frac", func(r *Report) float64 { return stats.Mean(r.CrossFrac.Y) }}
	pinStall      = distPinMetric{"stall_s_per_token", func(r *Report) float64 { return r.MemStallSeconds / float64(r.Tokens) }}
	pinHitRate    = distPinMetric{"hit_rate", func(r *Report) float64 { return r.ExpertMem.HitRate() }}
	pinMigrations = distPinMetric{"migrations", func(r *Report) float64 { return float64(len(r.Migrations)) }}
)

// distPinProgram is one traffic program and the metrics it is judged on:
// memory metrics only where memory is on, migrations only where the
// controller runs.
type distPinProgram struct {
	name    string
	metrics []distPinMetric
	options func(o *Options, ns, drifted *synth.DatasetProfile)
}

var distPinPrograms = []distPinProgram{
	{"steady", []distPinMetric{pinP50, pinP95, pinTokens, pinCross}, func(o *Options, ns, _ *synth.DatasetProfile) {
		o.Phases = []Phase{{Name: "steady", Duration: 3, Rate: nearKneeRate(*o, 0.9, 0.2, 0.5), Dataset: ns}}
	}},
	{"memory-1.5x", []distPinMetric{pinP50, pinP95, pinTokens, pinCross, pinStall, pinHitRate}, func(o *Options, ns, _ *synth.DatasetProfile) {
		o.Oversubscription = 1.5
		o.CachePolicy = "affinity"
		o.Phases = []Phase{{Name: "steady", Duration: 3, Rate: nearKneeRate(*o, 0.08, 0.2, 0.5), Dataset: ns}}
	}},
	{"drift", []distPinMetric{pinP50, pinP95, pinTokens, pinCross, pinMigrations}, func(o *Options, ns, drifted *synth.DatasetProfile) {
		o.Adaptive = true
		rate := nearKneeRate(*o, 0.9, 0.2, 0.5)
		o.Phases = []Phase{
			{Name: "warm", Duration: 1.5, Rate: rate, Dataset: ns},
			{Name: "drift", Duration: 3, Rate: rate, Dataset: drifted},
		}
	}},
}

// distPinRecorded holds each (program, metric) grid mean and its pooled
// across-namespace standard deviation, as TestDistributionPin logs them,
// recorded while routing drew through rng.Categorical's running sums.
var distPinRecorded = map[string][2]float64{
	"steady/p50_s":                  {0.011302, 4.4219e-05},
	"steady/p95_s":                  {0.0128441, 0.000303037},
	"steady/tokens_per_s":           {78894.9, 624.627},
	"steady/cross_node_frac":        {0.320296, 0.00483532},
	"memory-1.5x/p50_s":             {0.101969, 0.00555878},
	"memory-1.5x/p95_s":             {0.110294, 0.00622814},
	"memory-1.5x/tokens_per_s":      {6934.08, 64.9788},
	"memory-1.5x/cross_node_frac":   {0.320771, 0.00513292},
	"memory-1.5x/stall_s_per_token": {0.000256914, 2.36556e-06},
	"memory-1.5x/hit_rate":          {0.823545, 0.00705583},
	"drift/p50_s":                   {0.0112791, 5.18145e-05},
	"drift/p95_s":                   {0.0129032, 0.00042345},
	"drift/tokens_per_s":            {78799.6, 720.702},
	"drift/cross_node_frac":         {0.314122, 0.00458153},
	"drift/migrations":              {1, 0},
}

// distPinGrid serves every (kernel, namespace, program) replicate and
// returns each program's metric values indexed [metric][kernel][namespace].
func distPinGrid(t *testing.T) map[string][][][]float64 {
	t.Helper()
	tp := topo.ForGPUs(8)
	pile := synth.Pile()
	type job struct {
		program, kernel, ns int
		dep                 Deployment
		opts                Options
	}
	var jobs []job
	for ki, kseed := range distPinKernelSeeds {
		k := synth.NewKernel(synth.KernelParams{Seed: kseed, Layers: 8, Experts: 16, Strength: 0.85, DomainTilt: 8})
		for j := 0; j < distPinNamespaces; j++ {
			nsSeed := uint64(j+1) << 40
			ns := synth.Custom(fmt.Sprintf("pin-%d", j), pile.Mix, nsSeed)
			drifted := synth.Custom(fmt.Sprintf("pin-%d-drift", j), []float64{0, 0, 0, 0, 1, 0}, nsSeed|1<<32)
			tr := trace.Collect(synth.NewKernelRouter(k, ns, 1), k.Layers, trace.SequentialIDs(1500, ns.TokenID))
			dep := Deployment{Topo: tp, Kernel: k, ExpertBytes: 16 << 20, Dataset: ns}
			cal := &Calibration{
				Trace:          tr,
				Placement:      placement.Staged(tr.AllTransitionCounts(), k.Layers, k.Experts, tp, 3),
				Metrics:        Metrics{Cost: workload.LocalityModel{Fixed: 500e-6, PerToken: 5e-6, PerNodeHop: 1e-6, PerCrossHop: 4e-6}},
				DriftThreshold: 0.02,
			}
			for p, prog := range distPinPrograms {
				opts := Options{Replicas: 2, MaxBatch: 32, DecodeTokens: 16, Window: 1024, Calibration: cal, Seed: uint64(j + 1)}
				prog.options(&opts, ns, drifted)
				jobs = append(jobs, job{p, ki, j, dep, opts})
			}
		}
	}
	reports := make([]*Report, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				reports[i], errs[i] = Run(jobs[i].dep, jobs[i].opts)
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()

	out := map[string][][][]float64{}
	for i, jb := range jobs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		prog := distPinPrograms[jb.program]
		vals := out[prog.name]
		if vals == nil {
			vals = make([][][]float64, len(prog.metrics))
			for m := range vals {
				vals[m] = make([][]float64, len(distPinKernelSeeds))
				for ki := range vals[m] {
					vals[m][ki] = make([]float64, distPinNamespaces)
				}
			}
			out[prog.name] = vals
		}
		for m, metric := range prog.metrics {
			vals[m][jb.kernel][jb.ns] = metric.read(reports[i])
		}
	}
	return out
}

// meanAndWithinSD returns the grid mean and the pooled standard deviation
// across namespaces within each kernel.
func meanAndWithinSD(x [][]float64) (mean, sd float64) {
	n, ss, df := 0, 0.0, 0
	for _, row := range x {
		m := stats.Mean(row)
		for _, v := range row {
			mean += v
			ss += (v - m) * (v - m)
		}
		n += len(row)
		df += len(row) - 1
	}
	return mean / float64(n), math.Sqrt(ss / float64(df))
}

// TestDistributionPin serves 4 kernels × 4 token namespaces × 3 programs
// and checks every (program, metric) grid mean against its recorded mean.
func TestDistributionPin(t *testing.T) {
	grid := distPinGrid(t)
	pairs := 0
	for _, prog := range distPinPrograms {
		for m, metric := range prog.metrics {
			pairs++
			key := prog.name + "/" + metric.name
			mean, sd := meanAndWithinSD(grid[prog.name][m])
			t.Logf("%q: {%.6g, %.6g},", key, mean, sd)
			rec, ok := distPinRecorded[key]
			if !ok {
				t.Errorf("%s: no recorded mean", key)
				continue
			}
			tol := distPinT * rec[1] * math.Sqrt(2.0/float64(len(distPinKernelSeeds)*distPinNamespaces))
			if d := mean - rec[0]; math.Abs(d) > tol {
				t.Errorf("%s: mean %.6g, recorded %.6g: moved %+.6g (%+.2f%%), tolerance ±%.3g",
					key, mean, rec[0], d, 100*d/rec[0], tol)
			}
		}
	}
	if pairs != 15 {
		t.Fatalf("%d (program, metric) pairs; distPinT is sized for 15", pairs)
	}
}
