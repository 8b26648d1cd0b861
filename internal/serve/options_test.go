package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/fleet"
	"repro/internal/synth"
)

// runWithin runs the options and fails the test if Run does not return
// within the limit. The abandoned run keeps spinning in its goroutine; the
// failure is what matters.
func runWithin(t *testing.T, limit time.Duration, dep Deployment, opts Options) (*Report, error) {
	t.Helper()
	type result struct {
		rep *Report
		err error
	}
	done := make(chan result, 1)
	go func() {
		rep, err := Run(dep, opts)
		done <- result{rep, err}
	}()
	select {
	case r := <-done:
		return r.rep, r.err
	case <-time.After(limit):
		t.Fatalf("Run did not return within %v", limit)
		return nil, nil
	}
}

// checkSeriesCapped asserts every time-bucketed series stays within the
// report's bucket cap.
func checkSeriesCapped(t *testing.T, rep *Report) {
	t.Helper()
	for _, s := range []struct {
		name string
		n    int
	}{
		{"LatencyP95", rep.LatencyP95.Len()},
		{"Throughput", rep.Throughput.Len()},
		{"CrossFrac", rep.CrossFrac.Len()},
	} {
		if s.n == 0 || s.n > maxReportBuckets+1 {
			t.Errorf("%s holds %d buckets, want 1..%d", s.name, s.n, maxReportBuckets+1)
		}
	}
}

// TestServeTinyLatencyBucketReturns: the series loops step once per bucket
// up to the makespan, so a 1e-12 s bucket on a ~3 s run used to mean 3e12
// steps. The bucket is now widened to the cap.
func TestServeTinyLatencyBucketReturns(t *testing.T) {
	dep, opts, drifted := testSystem(t)
	opts.Adaptive = true
	opts.LatencyBucket = 1e-12
	opts.Phases = driftProgram(opts, drifted)
	for i := range opts.Phases {
		opts.Phases[i].Duration /= 3
	}
	rep, err := runWithin(t, 20*time.Second, dep, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkSeriesCapped(t, rep)
}

// TestServeInfiniteLinkSlowdownRejected: an infinite degrade factor stalls
// the first fetch inside the window forever. It used to pass validation and
// hang the run; it must now fail fast with an error naming the factor.
func TestServeInfiniteLinkSlowdownRejected(t *testing.T) {
	dep, opts, _ := testSystem(t)
	opts.Oversubscription = 2
	opts.Phases = steadyProgram(opts, 0.7, 3)
	opts.Chaos = &chaos.Schedule{Faults: []chaos.Fault{chaos.DegradeLink(0.5, 1, math.Inf(1))}}
	if _, err := runWithin(t, 20*time.Second, dep, opts); err == nil || !strings.Contains(err.Error(), "factor") {
		t.Fatalf("got %v, want a validation error naming the degrade factor", err)
	}
}

// TestServeHugeLinkSlowdownReturns: a finite but enormous degrade factor
// pushes the makespan to ~1e297 s. With a 0.05 s bucket the series loops
// used to step ~1e298 times; the bucket is now widened to the cap.
func TestServeHugeLinkSlowdownReturns(t *testing.T) {
	dep, opts, _ := testSystem(t)
	opts.Oversubscription = 2
	opts.LatencyBucket = 0.05
	opts.Phases = steadyProgram(opts, 0.7, 3)
	opts.Chaos = &chaos.Schedule{Faults: []chaos.Fault{chaos.DegradeLink(0.5, 1, 1e300)}}
	rep, err := runWithin(t, 20*time.Second, dep, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan < 1e290 {
		t.Fatalf("makespan %v: the degraded link did not stretch the run", rep.Makespan)
	}
	checkSeriesCapped(t, rep)
}

// TestServeResolvesPhaseDefaults: a zero phase rate offers LoadFrac of the
// calibration's request capacity and a nil dataset draws from the
// deployment's, exactly as if both were spelled out.
func TestServeResolvesPhaseDefaults(t *testing.T) {
	dep, opts, _ := testSystem(t)
	cal := *opts.Calibration
	cal.Metrics.RequestCapacity = 400
	opts.Calibration = &cal
	opts.LoadFrac = 0.5
	opts.Phases = []Phase{{Duration: 1}}
	implicit, err := Run(dep, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Phases = []Phase{{Name: "phase0", Duration: 1, Rate: 200, Dataset: dep.Dataset}}
	explicit, err := Run(dep, opts)
	if err != nil {
		t.Fatal(err)
	}
	if implicit.Requests != explicit.Requests || implicit.Makespan != explicit.Makespan ||
		implicit.Overall.P95 != explicit.Overall.P95 || implicit.Phases[0].Name != "phase0" {
		t.Fatalf("resolved defaults differ from spelled-out ones: %d/%v/%v %q vs %d/%v/%v",
			implicit.Requests, implicit.Makespan, implicit.Overall.P95, implicit.Phases[0].Name,
			explicit.Requests, explicit.Makespan, explicit.Overall.P95)
	}
}

// fuzzKnobs is FuzzServeOptions' view of one configuration, decoded field by
// field (encoding/binary, little-endian) from the raw input: small unsigned
// integers for the integer knobs and raw IEEE-754 bits for every float, so
// NaN, ±Inf, denormals and 1e308 all reach the validator. Replica counts
// and crash targets keep their low three bits, DecodeTokens its low five
// and SolveWorkers its low two: host work grows with their product (a
// 255-wide portfolio solves 255 anneals per re-solve), and a legal but
// heavy run is not a finding.
//
// The layout is frozen at 242 bytes so the checked-in corpus replays the
// inputs it was found with: the blank fields held retired options (the
// controller's and admission control's tunables among them), and
// encoding/binary skips them on read.
type fuzzKnobs struct {
	Replicas, MaxBatch, DecodeTokens, Window, _, _, HostSlots, SolveWorkers uint8
	// Flags: Adaptive, MemoryAware, two unused bits, a second phase, a
	// drifted first phase, and the cache policy (top two bits).
	Flags uint8

	_, _, _, _, SolveSeconds, _                  float64
	Oversubscription, _, LatencyBucket, LoadFrac float64
	Dur0, Rate0, Dur1, Rate1                     float64

	// FleetFlags: a fleet spec at all and SharedHostCache; the next two
	// bits are unused.
	FleetFlags, MinReplicas, MaxReplicas, _, _, DownscaleStreak uint8
	_, ForecastHalfLife, ScaleUpCooldown, ScaleDownCooldown     float64
	ReconcileInterval, _, _                                     float64

	// ChaosFlags: a schedule at all, a crash, a degraded link,
	// PreemptibleDMA.
	ChaosFlags, CrashReplica, FetchRetries                           uint8
	CrashAt, RecoverAfter, DegradeAt, DegradeDuration, DegradeFactor float64
	FetchTimeout, FetchBackoff                                       float64
}

func (k fuzzKnobs) bytes() []byte {
	var b bytes.Buffer
	binary.Write(&b, binary.LittleEndian, k)
	return b.Bytes()
}

// clampPhase keeps a finite phase length and rate small enough for a fuzz
// execution: at most 1 s and twice the fixture's knee. Non-finite values
// pass through for the validator to reject.
func clampPhase(v, limit float64) float64 {
	if v > limit && !math.IsInf(v, 1) {
		return limit
	}
	return v
}

// options builds the serving options the knobs describe on top of base.
func (k fuzzKnobs) options(base Options, knee float64, drifted *synth.DatasetProfile) Options {
	o := base
	o.Replicas, o.MaxBatch, o.DecodeTokens = int(k.Replicas&7), int(k.MaxBatch), int(k.DecodeTokens&31)
	o.Window, o.HostSlots, o.SolveWorkers = int(k.Window), int(k.HostSlots), int(k.SolveWorkers&3)
	o.Adaptive = k.Flags&1 != 0
	o.MemoryAware = k.Flags&2 != 0
	o.CachePolicy = []string{"", "lru", "pin", "affinity"}[k.Flags>>6]
	o.SolveSeconds = k.SolveSeconds
	o.Oversubscription, o.LatencyBucket, o.LoadFrac = k.Oversubscription, k.LatencyBucket, k.LoadFrac

	first := Phase{Name: "first", Duration: clampPhase(k.Dur0, 1), Rate: clampPhase(k.Rate0, 2*knee)}
	if k.Flags&32 != 0 {
		first.Dataset = drifted
	}
	o.Phases = []Phase{first}
	if k.Flags&16 != 0 {
		o.Phases = append(o.Phases, Phase{Name: "second", Duration: clampPhase(k.Dur1, 1),
			Rate: clampPhase(k.Rate1, 2*knee), Arrival: Bursty, Dataset: drifted})
	}

	if k.FleetFlags&1 != 0 {
		o.Fleet = &fleet.Spec{
			MinReplicas: int(k.MinReplicas & 7), MaxReplicas: int(k.MaxReplicas & 7),
			ForecastHalfLife: k.ForecastHalfLife,
			ScaleUpCooldown:  k.ScaleUpCooldown, ScaleDownCooldown: k.ScaleDownCooldown,
			DownscaleStreak: int(k.DownscaleStreak), ReconcileInterval: k.ReconcileInterval,
			SharedHostCache: k.FleetFlags&2 != 0,
		}
	}
	if k.ChaosFlags&1 != 0 {
		s := &chaos.Schedule{
			PreemptibleDMA: k.ChaosFlags&8 != 0,
			FetchTimeout:   k.FetchTimeout, FetchRetries: int(k.FetchRetries), FetchBackoff: k.FetchBackoff,
		}
		if k.ChaosFlags&2 != 0 {
			s.Faults = append(s.Faults, chaos.Crash(k.CrashAt, int(k.CrashReplica&7), k.RecoverAfter))
		}
		if k.ChaosFlags&4 != 0 {
			s.Faults = append(s.Faults, chaos.DegradeLink(k.DegradeAt, k.DegradeDuration, k.DegradeFactor))
		}
		o.Chaos = s
	}
	return o
}

// FuzzServeOptions checks the validator's contract on the golden fixture:
// whenever Validate accepts a set of options, Run returns within 30 s
// without panicking, and every offered request either finishes or is shed
// by chaos retry exhaustion. Offered is the request count of the same
// options run with Fleet and Chaos nil, as the scenario matrix's
// retry-exhaustion row computes it.
func FuzzServeOptions(f *testing.F) {
	dep, base, drifted := goldenSystem()
	knee := nearKneeRate(base, 1, 0.2, 0.5)
	steady := fuzzKnobs{Dur0: 1, Rate0: knee / 2}
	f.Add(steady.bytes())
	// A 1e-12 s report bucket on an adaptive drift program: the series
	// loops used to step once per bucket across the whole makespan.
	tiny := fuzzKnobs{Flags: 1 | 16, Dur0: 1, Rate0: knee, Dur1: 1, Rate1: knee, LatencyBucket: 1e-12}
	f.Add(tiny.bytes())
	// An infinite link slowdown under 2x memory: it used to pass
	// validation and stall the first degraded fetch forever.
	inf := fuzzKnobs{Dur0: 1, Rate0: knee / 2, Oversubscription: 2,
		ChaosFlags: 1 | 4, DegradeAt: 0.5, DegradeDuration: 1, DegradeFactor: math.Inf(1)}
	f.Add(inf.bytes())
	// An adaptive run on drifted traffic at twice the knee, then a bursty
	// drifted phase: the controller fires, re-solves and migrates while the
	// overloaded fleet drains its backlog (one solve and one migration on
	// this fixture). With the controller's tunables as options this seed
	// drove a re-solve storm; they are constants now.
	storm := fuzzKnobs{Flags: 1 | 16 | 32, Dur0: 1, Rate0: 2 * knee, Dur1: 1, Rate1: 2 * knee}
	f.Add(storm.bytes())
	size := binary.Size(fuzzKnobs{})
	if size != 242 {
		f.Fatalf("fuzzKnobs encodes to %d bytes, want 242: the corpus would replay different inputs", size)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var k fuzzKnobs
		buf := make([]byte, size)
		copy(buf, data)
		if err := binary.Read(bytes.NewReader(buf), binary.LittleEndian, &k); err != nil {
			t.Fatal(err)
		}
		opts := k.options(base, knee, drifted)
		if err := opts.Validate(); err != nil {
			if _, runErr := Run(dep, opts); runErr == nil {
				t.Fatalf("Validate rejected (%v) but Run accepted", err)
			}
			return
		}
		plain := opts
		plain.Fleet, plain.Chaos = nil, nil
		offered, err := runWithin(t, 30*time.Second, dep, plain)
		if errors.Is(err, errNoArrivals) {
			return
		}
		if err != nil {
			t.Fatalf("Validate accepted but the plain run failed: %v", err)
		}
		rep, err := runWithin(t, 30*time.Second, dep, opts)
		if err != nil {
			t.Fatalf("Validate accepted but Run failed: %v", err)
		}
		finished := 0
		for _, l := range rep.latencies {
			if l > 0 {
				finished++
			}
		}
		shed := 0
		if rep.Faults != nil {
			shed = rep.Faults.ShedRetryExhausted
		}
		if finished+shed != offered.Requests {
			t.Fatalf("finished %d + shed %d != offered %d", finished, shed, offered.Requests)
		}
	})
}
