package main

import (
	"fmt"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"syscall"
	"time"

	"repro"
	"repro/internal/engine"
	"repro/internal/expertmem"
	"repro/internal/serve"
	"repro/internal/stats"
)

// config is one benchmark run.
type config struct {
	fx   fixture
	w    workload
	seed uint64
	// seconds is the host-time budget for the main run: every sub-run runs
	// once, and sub-runs repeat in turn while half of another repetition
	// fits.
	seconds float64
	// traced switches to the traced run, which reports per-layer metrics
	// and writes its exports to out.
	traced bool
	out    string
	// root is the repository root, whose schema/ the traced run validates
	// its exports against.
	root string
}

// setups is how many fresh set-ups setup_s takes the median of.
const setups = 3

// run executes one benchmark run. Errors are failures to run at all; failed
// correctness gates land in result.failures.
func run(cfg config) (*result, error) {
	r := &result{values: map[string]float64{}}
	var sp *spans
	if cfg.traced {
		sp = newSpans()
	}
	root := sp.start("run", 0)
	clock := newHostClock()

	sys, cal, setupCalls, setupPeak, err := setUp(cfg.fx, clock, sp, root)
	if err != nil {
		return nil, err
	}
	main, err := measureServe(sys, cal, cfg, clock, sp, root)
	if err != nil {
		return nil, err
	}
	// The main run's first probe closes the last set-up.
	r.set("setup_s", clock.medianScaled(setupCalls))
	p := &main.pool
	sort.Float64s(p.lat)
	finished, withinLimit := 0, 0
	for _, l := range p.lat {
		if l > 0 {
			finished++
			if l <= cfg.w.limit {
				withinLimit++
			}
		}
	}
	// The workloads run no fleet tier or chaos schedule, so nothing is shed
	// and every offered request is admitted.
	r.attempted = p.requests
	r.failed = p.requests - finished
	r.set("p50_s", stats.SortedPercentile(p.lat, 50))
	r.set("p99_s", stats.SortedPercentile(p.lat, 99))
	r.set("tokens_per_s", float64(p.tokens)/p.makespan)
	r.set("slo_attain", float64(withinLimit)/float64(p.requests))
	r.set("run_host_s", main.wall)
	r.set("host_us_per_iter", main.wall/float64(p.iterations)*1e6)
	r.set("allocs_per_iter", main.allocs/float64(p.iterations))
	r.set("peak_rss_mb", max(setupPeak, main.peakRSS))
	r.check(r.failed == 0, "%d of %d admitted requests never finished", r.failed, p.requests)
	r.check(main.identical, "a repeated sub-run did not reproduce its first run")
	for _, rep := range main.reps {
		checkServe(r, cfg.w, rep)
	}

	slo := sp.start("slo", root)
	rps, err := maxRate(sys, cal, cfg, sp, slo)
	sp.stop(slo, sloHalvings)
	if err != nil {
		return nil, err
	}
	r.check(rps > 0, "no trial rate in [%g, %g] x nominal met P99 <= %gs unsaturated", sloLow, sloHigh, cfg.w.limit)
	r.set("max_rps_at_slo", rps)

	eng := sp.start("replay.engine", root)
	vanilla, exf := offlineBatch(sys, cal)
	sp.stop(eng, 2)
	r.check(slices.EqualFunc(vanilla.Outputs, exf.Outputs, slices.Equal[[]int]),
		"engine outputs differ between Vanilla and ExFlow")

	if cfg.traced {
		if err := measureLayers(cfg, sys, cal, main, clock, vanilla, exf, r, sp, root); err != nil {
			return nil, err
		}
	}
	sp.stop(root, 1)
	if cfg.traced {
		if err := writeSpans(cfg, sp); err != nil {
			return nil, err
		}
	}
	r.probe = median(clock.probes)
	return r, nil
}

// setUp builds a fresh System and calibrates it setups times, each on the
// host clock, and returns the last one, the set-ups' clock calls and the
// median of their peak resident sets in MB.
func setUp(fx fixture, clock *hostClock, sp *spans, parent int) (*exflow.System, *exflow.ServeCalibration, []int, float64, error) {
	id := sp.start("setup", parent)
	var (
		sys   *exflow.System
		cal   *exflow.ServeCalibration
		calls []int
		peaks []float64
	)
	for range setups {
		// Each set-up starts from an empty heap, as in a fresh process, so
		// neither its time nor its peak memory includes the previous one.
		sys, cal = nil, nil
		clock.probe()
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return nil, nil, nil, 0, err
		}
		c := sp.start("setup.calibrate", id)
		var err error
		calls = append(calls, clock.time(func() {
			sys = newSystem(fx)
			cal, err = exflow.CalibrateServe(sys, calibrationOptions())
		}))
		sp.stop(c, 1)
		if err != nil {
			return nil, nil, nil, 0, fmt.Errorf("calibrate: %w", err)
		}
		peak, err := peakRSS()
		if err != nil {
			return nil, nil, nil, 0, err
		}
		peaks = append(peaks, peak)
	}
	sp.stop(id, setups)
	return sys, cal, calls, median(peaks), nil
}

// resetPeakRSS restarts the kernel's resident-set high-water mark at the
// current resident set (Linux clear_refs), so that peakRSS covers only what
// follows.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSS is the resident-set high-water mark in MB.
func peakRSS() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// mainRun is the workload's traffic program served once per sub-run, at the
// nominal rate.
type mainRun struct {
	opts []exflow.ServeOptions // per sub-run
	reps []*exflow.ServeReport // per sub-run, from its first repetition
	pool pool
	// subWall is each sub-run's host seconds: the median of its
	// repetitions, each scaled to the reference host's speed by the probes
	// around it. wall sums them; allocs sums each sub-run's median heap
	// allocations.
	subWall      []float64
	wall, allocs float64
	// peakRSS is the median over repetitions of the resident-set high-water
	// mark in MB, each repetition starting from an empty heap.
	peakRSS float64
	// identical reports whether every repeated sub-run reproduced its first
	// run's simulated results bit for bit.
	identical bool
}

// pool aggregates the sub-runs' reports.
type pool struct {
	lat                              []float64 // every request's latency
	requests, tokens, iterations     int
	solves, discards, driftChecks    int
	makespan, memStall, crossFracSum float64
	migrations                       []serve.MigrationEvent
	mem                              *expertmem.Stats // nil with the memory layer off
	saturated                        bool
}

func (p *pool) add(rep *exflow.ServeReport) error {
	lat, err := latencies(rep)
	if err != nil {
		return err
	}
	p.lat = append(p.lat, lat...)
	p.requests += rep.Requests
	p.tokens += rep.Tokens
	p.iterations += rep.Iterations
	p.solves += rep.Solves
	p.discards += rep.DiscardedSolves
	p.driftChecks += len(rep.Drift.X)
	p.makespan += rep.Makespan
	p.memStall += rep.MemStallSeconds
	p.crossFracSum += stats.Mean(rep.CrossFrac.Y)
	p.migrations = append(p.migrations, rep.Migrations...)
	p.saturated = p.saturated || rep.Saturated
	if rep.ExpertMem != nil {
		if p.mem == nil {
			p.mem = &expertmem.Stats{}
		}
		p.mem.Add(*rep.ExpertMem)
	}
	return nil
}

// measureServe serves every sub-run once, then repeats sub-runs in turn
// while at least half of another repetition fits in cfg.seconds of host
// time, so that a workload with long repetitions still gets a second one of
// each sub-run. Every repetition runs on the host clock from an empty heap,
// and a probe closes the last one.
func measureServe(sys *exflow.System, cal *exflow.ServeCalibration, cfg config, clock *hostClock, sp *spans, parent int) (*mainRun, error) {
	m := &mainRun{identical: true}
	for k := range subRuns {
		m.opts = append(m.opts, cfg.w.serveOptions(cal, subSeed(cfg.seed, k), cfg.w.nominal(cfg.fx), 1))
	}
	walls := make([][]float64, subRuns)
	calls := make([][]int, subRuns)
	allocs := make([][]float64, subRuns)
	var peaks []float64
	start := time.Now()
	for i := 0; ; i++ {
		k := i % subRuns
		if i >= subRuns && time.Since(start).Seconds()+median(walls[k])/2 > cfg.seconds {
			break
		}
		clock.probe()
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		id := sp.start("serve.run", parent)
		var (
			rep *exflow.ServeReport
			err error
		)
		c := clock.time(func() { rep, _, err = exflow.Serve(sys, m.opts[k]) })
		sp.stop(id, 1)
		runtime.ReadMemStats(&after)
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		peak, err := peakRSS()
		if err != nil {
			return nil, err
		}
		peaks = append(peaks, peak)
		walls[k] = append(walls[k], clock.wall(c))
		calls[k] = append(calls[k], c)
		allocs[k] = append(allocs[k], float64(after.Mallocs-before.Mallocs))
		if i < subRuns {
			m.reps = append(m.reps, rep)
			if err := m.pool.add(rep); err != nil {
				return nil, err
			}
		} else if !sameSim(m.reps[k], rep) {
			m.identical = false
		}
	}
	clock.probe()
	for k := range subRuns {
		m.subWall = append(m.subWall, clock.medianScaled(calls[k]))
		m.wall += m.subWall[k]
		m.allocs += median(allocs[k])
	}
	m.peakRSS = median(peaks)
	return m, nil
}

// checkServe applies the correctness gates to one sub-run.
func checkServe(r *result, w workload, rep *exflow.ServeReport) {
	r.check(rep.Tokens == rep.Requests*decodeTokens, "tokens %d != requests %d x %d", rep.Tokens, rep.Requests, decodeTokens)
	r.check(!rep.Saturated, "queue still growing at the nominal rate")
	// Each workload must exercise the layer it exists for.
	if w.adaptive {
		r.check(len(rep.Migrations) >= 1, "adaptive workload completed no migration")
	} else {
		r.check(rep.Solves == 0, "static workload launched %d re-solves", rep.Solves)
	}
	if w.memory {
		r.check(rep.ExpertMem != nil && rep.ExpertMem.Misses > 0, "memory workload saw no expert misses")
	} else {
		r.check(rep.ExpertMem == nil, "memory layer active in a memory-off workload")
	}
}

// maxRate bisects [sloLow, sloHigh] x the nominal rate for the highest rate
// at which a trial-length run of the workload meets its P99 limit without a
// growing queue. Every trial serves sub-run 0's seed. It returns 0 when no
// trial passed.
func maxRate(sys *exflow.System, cal *exflow.ServeCalibration, cfg config, sp *spans, parent int) (float64, error) {
	nominal := cfg.w.nominal(cfg.fx)
	lo, hi := sloLow*nominal, sloHigh*nominal
	best := 0.0
	for range sloHalvings {
		mid := (lo + hi) / 2
		id := sp.start("slo.trial", parent)
		rep, _, err := exflow.Serve(sys, cfg.w.serveOptions(cal, subSeed(cfg.seed, 0), mid, cfg.w.trial))
		sp.stop(id, 1)
		if err != nil {
			return 0, fmt.Errorf("slo trial at %g req/s: %w", mid, err)
		}
		if rep.Overall.P99 <= cfg.w.limit && !rep.Saturated {
			best, lo = mid, mid
		} else {
			hi = mid
		}
	}
	return best, nil
}

// offlineBatch runs the paper's offline inference batch (8 requests per GPU,
// 8 decode tokens) under the Deepspeed-MoE baseline and under ExFlow with
// the calibrated placement.
func offlineBatch(sys *exflow.System, cal *exflow.ServeCalibration) (vanilla, exf *engine.Report) {
	w := exflow.Workload{RequestsPerGPU: 8, GenerateTokens: 8}
	return sys.Run(engine.Vanilla, sys.Baseline(), w), sys.Run(engine.ExFlow, cal.Placement, w)
}

// latencies returns the report's per-request latencies (finish minus
// scheduled arrival; not positive for a request that never finished).
// serve.Report keeps them unexported behind WindowStats, which only yields
// percentiles; slo_attain, pooling and the finished-request gate need every
// value, so they are read through reflection.
func latencies(rep *exflow.ServeReport) ([]float64, error) {
	v := reflect.ValueOf(rep).Elem().FieldByName("latencies")
	if v.Kind() != reflect.Slice || v.Type().Elem().Kind() != reflect.Float64 {
		return nil, fmt.Errorf("serve.Report no longer holds per-request latencies; update latencies()")
	}
	if v.Len() != rep.Requests {
		return nil, fmt.Errorf("serve.Report holds %d latencies for %d requests", v.Len(), rep.Requests)
	}
	out := make([]float64, v.Len())
	for i := range out {
		out[i] = v.Index(i).Float()
	}
	return out, nil
}

// sameSim reports whether two runs produced identical simulated results,
// bit for bit: every request's latency and every reported statistic.
func sameSim(a, b *exflow.ServeReport) bool {
	la, errA := latencies(a)
	lb, errB := latencies(b)
	if errA != nil || errB != nil || !slices.Equal(la, lb) {
		return false
	}
	if (a.ExpertMem == nil) != (b.ExpertMem == nil) || (a.ExpertMem != nil && *a.ExpertMem != *b.ExpertMem) {
		return false
	}
	return a.Overall == b.Overall && slices.Equal(a.Phases, b.Phases) &&
		slices.Equal(a.Migrations, b.Migrations) &&
		a.Iterations == b.Iterations && a.MeanBatch == b.MeanBatch && a.Makespan == b.Makespan &&
		a.Requests == b.Requests && a.Tokens == b.Tokens && a.Saturated == b.Saturated &&
		a.Solves == b.Solves && a.DiscardedSolves == b.DiscardedSolves &&
		a.MemStallSeconds == b.MemStallSeconds
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
