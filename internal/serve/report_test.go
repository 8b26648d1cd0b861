package serve

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/stats"
)

// reportFixture builds a Report directly from known arrivals/latencies.
func reportFixture(arrivals, latencies []float64) *Report {
	rep := &Report{}
	for i := range arrivals {
		rep.arrivalTimes = append(rep.arrivalTimes, arrivals[i])
		rep.latencies = append(rep.latencies, latencies[i])
		rep.finishTimes = append(rep.finishTimes, arrivals[i]+latencies[i])
	}
	return rep
}

func TestWindowStatsPercentiles(t *testing.T) {
	// 10 requests arriving at t=0..9 with latency = arrival index.
	var arr, lat []float64
	for i := 0; i < 10; i++ {
		arr = append(arr, float64(i))
		lat = append(lat, float64(i))
	}
	rep := reportFixture(arr, lat)

	// Full window: percentiles over 0..9.
	ps := rep.WindowStats(0, 10)
	if ps.Requests != 10 {
		t.Fatalf("requests %d", ps.Requests)
	}
	if want := stats.Mean(lat); ps.Mean != want {
		t.Fatalf("mean %v want %v", ps.Mean, want)
	}
	for _, c := range []struct {
		got, want float64
	}{
		{ps.P50, stats.Percentile(lat, 50)},
		{ps.P95, stats.Percentile(lat, 95)},
		{ps.P99, stats.Percentile(lat, 99)},
	} {
		if c.got != c.want {
			t.Fatalf("percentile %v want %v", c.got, c.want)
		}
	}

	// Half-open window [3, 7): only arrivals 3..6 counted.
	ps = rep.WindowStats(3, 7)
	if ps.Requests != 4 {
		t.Fatalf("windowed requests %d, want 4", ps.Requests)
	}
	if ps.P50 != stats.Percentile([]float64{3, 4, 5, 6}, 50) {
		t.Fatalf("windowed P50 %v", ps.P50)
	}

	// Empty window reports zeros, not NaNs.
	ps = rep.WindowStats(100, 200)
	if ps.Requests != 0 || ps.P95 != 0 || math.IsNaN(ps.Mean) {
		t.Fatalf("empty window %+v", ps)
	}
}

func TestBucketedMeanMath(t *testing.T) {
	times := []float64{0.1, 0.4, 1.2, 1.9, 4.5}
	vals := []float64{1, 3, 10, 20, 7}
	s := bucketedMean(times, vals, 1.0)
	// Buckets: [0,1): mean 2 @0.5; [1,2): mean 15 @1.5; [4,5): 7 @4.5.
	if s.Len() != 3 {
		t.Fatalf("bucket count %d: %+v", s.Len(), s)
	}
	wantX := []float64{0.5, 1.5, 4.5}
	wantY := []float64{2, 15, 7}
	for i := range wantX {
		if s.X[i] != wantX[i] || s.Y[i] != wantY[i] {
			t.Fatalf("bucket %d = (%v, %v), want (%v, %v)", i, s.X[i], s.Y[i], wantX[i], wantY[i])
		}
	}
	// Zero bucket width degrades to a copy.
	raw := bucketedMean(times, vals, 0)
	if raw.Len() != len(times) || raw.Y[2] != 10 {
		t.Fatalf("zero-bucket copy wrong: %+v", raw)
	}
}

func TestBucketedP95Math(t *testing.T) {
	// Bucket [0,1): latencies 1..20 -> P95 = Percentile(1..20, 95).
	// Bucket [1,2): single latency 100.
	var times, lats []float64
	var first []float64
	for i := 1; i <= 20; i++ {
		times = append(times, 0.02*float64(i))
		lats = append(lats, float64(i))
		first = append(first, float64(i))
	}
	times = append(times, 1.5)
	lats = append(lats, 100)
	s := bucketedP95(times, lats, 1.0)
	if s.Len() != 2 {
		t.Fatalf("bucket count %d", s.Len())
	}
	if want := stats.Percentile(first, 95); s.Y[0] != want {
		t.Fatalf("bucket-0 P95 %v, want %v", s.Y[0], want)
	}
	if s.Y[1] != 100 {
		t.Fatalf("bucket-1 P95 %v", s.Y[1])
	}
	// Input order must not matter (bucketedP95 sorts internally).
	rev := bucketedP95([]float64{1.5, 0.5}, []float64{100, 7}, 1.0)
	if rev.Len() != 2 || rev.Y[0] != 7 || rev.Y[1] != 100 {
		t.Fatalf("unsorted input mishandled: %+v", rev)
	}
}

func TestThroughputSeriesAndTokensIn(t *testing.T) {
	s := &server{opts: runConfig{Options: Options{DecodeTokens: 4}}}
	s.decoded = []tick{{t: 0.5, n: 10}, {t: 1.5, n: 20}, {t: 1.9, n: 30}}
	if got := s.tokensIn(1, 2); got != 50 {
		t.Fatalf("tokensIn [1,2) = %v", got)
	}
	series := s.throughputSeries(1.0)
	if series.Len() != 2 || series.Y[0] != 10 || series.Y[1] != 50 {
		t.Fatalf("throughput series %+v", series)
	}
}

func TestReportStringIncludesChurn(t *testing.T) {
	rep := &Report{
		Migrations: []MigrationEvent{{
			Time: 1, Completed: 2, Score: 0.05, Moves: 3, Seconds: 0.01,
			PredictedGain: 0.2, ResidencyChurn: 5, ChurnSeconds: 0.004,
		}},
	}
	out := rep.String()
	if !strings.Contains(out, "5 resident copies churned") {
		t.Fatalf("churn missing from report string:\n%s", out)
	}
}

// linearWindowStats is WindowStats as it was before the binary search: a
// filter over every arrival, appending each selected latency. It is the
// reference for TestWindowStatsMatchesLinearScan.
func linearWindowStats(r *Report, t0, t1 float64) PhaseStats {
	ps := PhaseStats{Name: fmt.Sprintf("[%.1f,%.1f)", t0, t1), Start: t0, End: t1}
	var lat []float64
	for i, at := range r.arrivalTimes {
		if at >= t0 && at < t1 {
			lat = append(lat, r.latencies[i])
		}
	}
	ps.Requests = len(lat)
	if len(lat) == 0 {
		return ps
	}
	ps.Mean = stats.Mean(lat)
	sort.Float64s(lat)
	ps.P50 = stats.SortedPercentile(lat, 50)
	ps.P95 = stats.SortedPercentile(lat, 95)
	ps.P99 = stats.SortedPercentile(lat, 99)
	return ps
}

// TestWindowStatsMatchesLinearScan compares the binary-searched window with
// the linear filter, every PhaseStats field by its bits, over random sorted
// arrival times with many duplicates. The windows start and end exactly on
// arrivals, between them and outside the run; they include empty, inverted
// and infinite windows and NaN bounds, which select nothing.
func TestWindowStatsMatchesLinearScan(t *testing.T) {
	r := rng.New(0x3157)
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for trial := 0; trial < 120; trial++ {
		n := r.Intn(40)
		if trial%3 == 0 {
			n = r.Intn(400)
		}
		arr, lat := make([]float64, n), make([]float64, n)
		at := r.Float64()
		for i := range arr {
			if r.Intn(3) > 0 { // otherwise a duplicate of the previous time
				at += float64(r.Intn(4)) * 0.25
			}
			arr[i], lat[i] = at, r.Float64()*float64(1+r.Intn(5))
		}
		rep := reportFixture(arr, lat)
		bounds := []float64{math.Inf(-1), math.Inf(1), math.NaN(), -1, 0, at + 1}
		for i := 0; i < 4 && n > 0; i++ {
			v := arr[r.Intn(n)]
			bounds = append(bounds, v, math.Nextafter(v, math.Inf(-1)), math.Nextafter(v, math.Inf(1)), v+0.125)
		}
		for _, t0 := range bounds {
			for _, t1 := range bounds {
				got, want := rep.WindowStats(t0, t1), linearWindowStats(rep, t0, t1)
				if got.Name != want.Name || got.Requests != want.Requests ||
					!same(got.Start, want.Start) || !same(got.End, want.End) ||
					!same(got.Mean, want.Mean) || !same(got.P50, want.P50) || !same(got.P95, want.P95) ||
					!same(got.P99, want.P99) || !same(got.Throughput, want.Throughput) {
					t.Fatalf("trial %d, %d arrivals, window [%v, %v): got %+v, want %+v", trial, n, t0, t1, got, want)
				}
			}
		}
	}
}
