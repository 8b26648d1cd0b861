package serve

import (
	"testing"

	"repro/internal/rng"
)

// reportServerFixture builds a synthetic end-of-run server state of the given
// size: n requests over ~n/8 iterations with drift/locality/queue series at
// iteration granularity — the shape buildReport sees after a real run,
// without paying for one.
func reportServerFixture(n int) *server {
	r := rng.New(41)
	dur := 40.0
	s := &server{
		opts: runConfig{Options: Options{
			DecodeTokens:  16,
			LatencyBucket: dur / 80,
			Phases: []Phase{
				{Name: "warm", Duration: dur / 2},
				{Name: "steady", Duration: dur / 2},
			},
		}},
		ctrl: &controller{},
	}
	for i := 0; i < n; i++ {
		at := dur * float64(i) / float64(n)
		s.arrivals = append(s.arrivals, request{
			arrival: at,
			finish:  at + 0.05 + 0.3*r.Float64(),
		})
	}
	iters := n / 8
	for i := 0; i < iters; i++ {
		t := dur * float64(i) / float64(iters)
		s.decoded = append(s.decoded, tick{t: t, n: 8 + r.Intn(24)})
		s.fracT = append(s.fracT, t)
		s.fracY = append(s.fracY, r.Float64())
		s.memSamples = append(s.memSamples, memSample{t: t, stall: 1e-4 * r.Float64(), tokens: 16})
		if i%4 == 0 {
			s.driftT = append(s.driftT, t)
			s.driftY = append(s.driftY, 0.01*r.Float64())
			s.queueT = append(s.queueT, t)
			s.queueY = append(s.queueY, float64(r.Intn(40)))
		}
	}
	s.iterations = iters
	s.migrations = []MigrationEvent{{Time: dur / 2, Completed: dur/2 + 0.1, Seconds: 0.05}}
	return s
}

// BenchmarkBuildReport tracks the report path's allocation count: the
// windowed-percentile and throughput series used to copy and re-sort per
// bucket (stats.Percentile allocates a sorted copy per call; tokensIn
// rescanned every iteration tick per bucket). With in-place bucket sorts
// and an advancing cursor the per-bucket allocations are gone — the alloc
// budget below pins the reduction.
func BenchmarkBuildReport(b *testing.B) {
	s := reportServerFixture(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.buildReport()
	}
}

func TestBuildReportAllocBudget(t *testing.T) {
	// The pre-reuse report path allocated a sorted copy per series bucket:
	// 256 objects/run at this fixture size vs 166 with in-place sorts and
	// cursor-based bucketing. The budget sits between the two so a
	// reintroduced per-bucket copy fails loudly.
	s := reportServerFixture(4096)
	allocs := testing.AllocsPerRun(10, func() { _ = s.buildReport() })
	const budget = 200
	if allocs > budget {
		t.Fatalf("buildReport allocates %.0f objects/run, budget %d — per-bucket scratch reuse regressed", allocs, budget)
	}
}
