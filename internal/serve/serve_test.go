package serve

import (
	"math"
	"strings"
	"testing"

	"repro/internal/placement"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/synth"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/workload"
)

// testSystem builds a serving system without the engine: kernel, staged
// placement from a pile profile, and a hand-set locality cost model of
// engine-like magnitude.
func testSystem(t *testing.T) (Deployment, Options, *synth.DatasetProfile) {
	t.Helper()
	tp := topo.ForGPUs(8) // 2 nodes x 4 GPUs
	k := synth.NewKernel(synth.KernelParams{
		Seed: 0xBEEF, Layers: 12, Experts: 32, Strength: 0.85, DomainTilt: 8,
	})
	pile := synth.Pile()
	tr := trace.Collect(synth.NewKernelRouter(k, pile, 1), k.Layers, trace.SequentialIDs(2500, pile.TokenID))
	pl := placement.Staged(tr.AllTransitionCounts(), k.Layers, k.Experts, tp, 5)
	cost := workload.LocalityModel{Fixed: 500e-6, PerToken: 5e-6, PerNodeHop: 1e-6, PerCrossHop: 4e-6}
	dep := Deployment{Topo: tp, Kernel: k, ExpertBytes: 16 << 20, Dataset: pile}
	opts := Options{
		Replicas:     2,
		MaxBatch:     32,
		DecodeTokens: 16,
		Window:       2048,
		Calibration: &Calibration{
			Trace: tr, Placement: pl, Metrics: Metrics{Cost: cost},
			// The fixture's pooled sample mass (2048 paths x 11 layer pairs)
			// puts the JS noise floor near 0.011 and the drifted signal near
			// 0.05.
			DriftThreshold: 0.02,
		},
		Seed: 9,
	}
	drifted := synth.Custom("drifted", []float64{0, 0, 0, 0, 1, 0}, 0xD81F)
	return dep, opts, drifted
}

// nearKneeRate returns a request rate at the given fraction of the fleet's
// modeled capacity.
func nearKneeRate(o Options, frac, fracNode, fracCross float64) float64 {
	perReplica := float64(o.MaxBatch) / o.Calibration.Metrics.Cost.Time(o.MaxBatch, fracNode, fracCross)
	return frac * perReplica * float64(o.Replicas) / float64(o.DecodeTokens)
}

// driftProgram is the shared two-phase traffic program.
func driftProgram(o Options, drifted *synth.DatasetProfile) []Phase {
	rate := nearKneeRate(o, 0.95, 0.2, 0.5)
	return []Phase{
		{Name: "warm", Duration: 3, Rate: rate, Dataset: synth.Pile()},
		{Name: "drift", Duration: 6, Rate: rate, Dataset: drifted},
	}
}

func TestServeDeterministicReplay(t *testing.T) {
	dep, opts, drifted := testSystem(t)
	opts.Adaptive = true
	opts.Phases = driftProgram(opts, drifted)
	a, err := Run(dep, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(dep, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Requests != b.Requests || a.Makespan != b.Makespan || a.Iterations != b.Iterations {
		t.Fatalf("replay diverged: %d/%v/%d vs %d/%v/%d",
			a.Requests, a.Makespan, a.Iterations, b.Requests, b.Makespan, b.Iterations)
	}
	for i := range a.Phases {
		if a.Phases[i].P95 != b.Phases[i].P95 || a.Phases[i].P99 != b.Phases[i].P99 {
			t.Fatalf("phase %d percentiles diverged", i)
		}
	}
	if len(a.Migrations) != len(b.Migrations) {
		t.Fatalf("migration count diverged: %d vs %d", len(a.Migrations), len(b.Migrations))
	}
	for i := range a.Migrations {
		if a.Migrations[i] != b.Migrations[i] {
			t.Fatalf("migration %d diverged: %+v vs %+v", i, a.Migrations[i], b.Migrations[i])
		}
	}
}

func TestServeQuietInDistribution(t *testing.T) {
	dep, opts, _ := testSystem(t)
	opts.Adaptive = true
	rate := nearKneeRate(opts, 0.8, 0.2, 0.5)
	opts.Phases = []Phase{{Name: "steady", Duration: 6, Rate: rate, Dataset: synth.Pile()}}
	rep, err := Run(dep, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Migrations) != 0 {
		t.Fatalf("in-distribution traffic must not trigger re-placement, got %d", len(rep.Migrations))
	}
	if rep.Drift.Len() == 0 {
		t.Fatal("drift series missing")
	}
	if max := maxY(rep.Drift); max > 0.02 {
		t.Fatalf("in-distribution drift score %v above threshold", max)
	}
	if rep.Overall.Requests != rep.Requests || rep.Requests == 0 {
		t.Fatalf("request accounting wrong: %d vs %d", rep.Overall.Requests, rep.Requests)
	}
}

func TestServeAdaptiveRecoversUnderDrift(t *testing.T) {
	dep, opts, drifted := testSystem(t)
	opts.Phases = driftProgram(opts, drifted)

	opts.Adaptive = false
	static, err := Run(dep, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Adaptive = true
	adaptive, err := Run(dep, opts)
	if err != nil {
		t.Fatal(err)
	}

	if len(static.Migrations) != 0 {
		t.Fatal("static server must never migrate")
	}
	if len(adaptive.Migrations) == 0 {
		t.Fatal("adaptive server should have re-placed under drift")
	}
	mig := adaptive.Migrations[0]
	if mig.Time < 3 {
		t.Fatalf("migration at %v fired before the drift began", mig.Time)
	}
	if mig.Seconds <= 0 || mig.Moves == 0 {
		t.Fatalf("migration should cost something: %+v", mig)
	}

	// After recovery the adaptive fleet's cross-node fraction must sit below
	// the static fleet's, and its tail latency must be no worse.
	tail0, tail1 := mig.Completed+1, 9.0
	if avgIn(adaptive.CrossFrac, tail0, tail1) >= avgIn(static.CrossFrac, tail0, tail1) {
		t.Fatalf("re-placement did not reduce live cross-node dispatch: %v vs %v",
			avgIn(adaptive.CrossFrac, tail0, tail1), avgIn(static.CrossFrac, tail0, tail1))
	}
	at, st := adaptive.WindowStats(tail0, tail1), static.WindowStats(tail0, tail1)
	if at.Requests == 0 || st.Requests == 0 {
		t.Fatal("tail windows empty")
	}
	if at.P95 > st.P95 {
		t.Fatalf("adaptive tail P95 %v worse than static %v", at.P95, st.P95)
	}
	// The parameter-copy pause must be visible: the window spanning the
	// migration shows a higher P95 than the warm phase.
	pause := adaptive.WindowStats(mig.Time-0.5, mig.Completed+0.5)
	if pause.P95 <= adaptive.Phases[0].P95 {
		t.Fatalf("migration pause invisible: %v vs warm %v", pause.P95, adaptive.Phases[0].P95)
	}
}

func TestServeValidation(t *testing.T) {
	if _, err := Run(Deployment{}, Options{}); err == nil {
		t.Fatal("empty options must fail")
	}
	// NaN and +Inf slip past ordered comparisons and would spin the arrival
	// generator forever, so they are rejected alongside non-positive values,
	// as is a finite rate that would offer more requests than fit in memory.
	// A zero rate resolves to LoadFrac of the calibrated request capacity,
	// which the fixture's hand-built calibration leaves at zero: the phase
	// would offer no traffic. A dataset whose mix length differs from the
	// kernel's domain count would alias domains onto the wrong tilts (or
	// never route some).
	for _, c := range []struct {
		name           string
		duration, rate float64
		mix            []float64 // nil: the 6-domain Pile mix
	}{
		{"zero rate without a calibrated capacity", 1, 0, nil},
		{"NaN rate", 1, math.NaN(), nil},
		{"infinite rate", 1, math.Inf(1), nil},
		// Finite, but a run pre-draws every arrival before simulating.
		{"1e300 rate", 1, 1e300, nil},
		{"NaN duration", math.NaN(), 10, nil},
		{"infinite duration", math.Inf(1), 10, nil},
		{"8-domain mix on a 6-domain kernel", 1, 10, []float64{1, 1, 1, 1, 1, 1, 1, 1}},
		{"5-domain mix on a 6-domain kernel", 1, 10, []float64{1, 1, 1, 1, 1}},
	} {
		dep, opts, _ := testSystem(t)
		ds := synth.Pile()
		if c.mix != nil {
			ds = synth.Custom("mismatched", c.mix, 0xBAD)
		}
		opts.Phases = []Phase{{Name: "bad", Duration: c.duration, Rate: c.rate, Dataset: ds}}
		if _, err := Run(dep, opts); err == nil {
			t.Fatalf("%s phase must fail", c.name)
		}
	}
	dep, opts, _ := testSystem(t)
	opts.Phases = []Phase{{Name: "ok", Duration: 1, Rate: 10, Dataset: synth.Pile()}}
	dep.ExpertBytes = 0
	if _, err := Run(dep, opts); err == nil {
		t.Fatal("missing expert bytes must fail")
	}
	// Zero means "use the default" for these tunables. A negative value must
	// fail validation: past it, the window constructor panics on one and the
	// bucket width silently misconfigures the report.
	for _, c := range []struct {
		name string
		set  func(*Options)
	}{
		{"Window", func(o *Options) { o.Window = -1 }},
		{"LatencyBucket", func(o *Options) { o.LatencyBucket = -1 }},
	} {
		dep, opts, _ := testSystem(t)
		opts.Phases = []Phase{{Name: "ok", Duration: 1, Rate: 10, Dataset: synth.Pile()}}
		c.set(&opts)
		if _, err := Run(dep, opts); err == nil || !strings.Contains(err.Error(), c.name) {
			t.Errorf("out-of-range %s: got %v, want a validation error naming it", c.name, err)
		}
	}
	// NaN passes every "< 0" check and +Inf every lower bound. Both used to
	// get through and silently misconfigure the run: a NaN Oversubscription
	// dropped the memory layer and +Inf raised P95 a thousandfold. Each
	// setter satisfies the field's prerequisites, so the non-finite value is
	// the only fault.
	for _, c := range []struct {
		name string
		set  func(*Options, float64)
	}{
		{"SolveSeconds", func(o *Options, v float64) { o.SolveSeconds = v }},
		{"LatencyBucket", func(o *Options, v float64) { o.LatencyBucket = v }},
		{"Oversubscription", func(o *Options, v float64) { o.Oversubscription = v }},
	} {
		for _, v := range []float64{math.NaN(), math.Inf(1)} {
			dep, opts, _ := testSystem(t)
			opts.Phases = []Phase{{Name: "ok", Duration: 1, Rate: 10, Dataset: synth.Pile()}}
			c.set(&opts, v)
			if _, err := Run(dep, opts); err == nil || !strings.Contains(err.Error(), c.name) {
				t.Errorf("%s = %v: got %v, want a validation error naming it", c.name, v, err)
			}
		}
	}
}

func TestArrivalProcessesMeanRate(t *testing.T) {
	for _, kind := range []string{Poisson, Bursty, Diurnal} {
		p := Phase{Name: kind, Duration: 50, Rate: 200, Arrival: kind, Dataset: synth.Pile()}
		// The on/off process has heavy per-seed variance; average a few
		// independent streams to test the long-run rate.
		total := 0
		for seed := uint64(1); seed <= 5; seed++ {
			times := generateArrivals(rngFor(seed), p, 0)
			total += len(times)
			for i := 1; i < len(times); i++ {
				if times[i] < times[i-1] {
					t.Fatalf("%s: arrivals not sorted", kind)
				}
			}
			if len(times) > 0 && times[len(times)-1] >= p.Duration {
				t.Fatalf("%s: arrival beyond phase end", kind)
			}
		}
		got := float64(total) / (5 * p.Duration)
		if math.Abs(got-p.Rate)/p.Rate > 0.2 {
			t.Fatalf("%s: mean rate %v too far from %v", kind, got, p.Rate)
		}
	}
}

// Helpers.

func rngFor(seed uint64) *rng.RNG { return rng.New(rng.Mix64(seed, 0xA881)) }

func maxY(s *stats.Series) float64 {
	m := 0.0
	for _, y := range s.Y {
		if y > m {
			m = y
		}
	}
	return m
}

func avgIn(s *stats.Series, t0, t1 float64) float64 {
	sum, n := 0.0, 0
	for i, x := range s.X {
		if x >= t0 && x < t1 {
			sum += s.Y[i]
			n++
		}
	}
	if n == 0 {
		return -1
	}
	return sum / float64(n)
}
