package workload_test

import (
	"testing"

	"repro/internal/placement"
	"repro/internal/serve"
	"repro/internal/synth"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/workload"
)

// These tests check the serving-level behaviour of the iteration cost model
// as the serving simulator (internal/serve) runs it: one static replica,
// memory off, a linear locality-free cost, and one Poisson phase of
// servePhase seconds. Requests on a near-idle server take about
// serveDecode single-token iterations, the tail rises with offered load, a
// cheaper iteration cuts the tail at equal load, and an overloaded server
// runs full batches while its queue grows.

const (
	serveMaxBatch = 32
	serveDecode   = 16
	servePhase    = 4.0
)

// linearCost is an engine-like iteration cost with zero hop terms.
var linearCost = workload.LocalityModel{Fixed: 500e-6, PerToken: 5e-6}

// serveRate is the request rate at frac of linearCost's full-batch capacity.
func serveRate(frac float64) float64 {
	return frac * serveMaxBatch / linearCost.Time(serveMaxBatch, 0, 0) / serveDecode
}

// serveAt serves one phase at frac of linearCost's capacity with iterations
// priced by cost.
func serveAt(t *testing.T, cost workload.LocalityModel, frac float64) *serve.Report {
	t.Helper()
	tp := topo.ForGPUs(8)
	k := synth.NewKernel(synth.KernelParams{
		Seed: 0xBEEF, Layers: 12, Experts: 32, Strength: 0.85, DomainTilt: 8,
	})
	pile := synth.Pile()
	tr := trace.Collect(synth.NewKernelRouter(k, pile, 1), k.Layers, trace.SequentialIDs(2500, pile.TokenID))
	dep := serve.Deployment{Topo: tp, Kernel: k, ExpertBytes: 16 << 20, Dataset: pile}
	rep, err := serve.Run(dep, serve.Options{
		Replicas:     1,
		MaxBatch:     serveMaxBatch,
		DecodeTokens: serveDecode,
		Window:       2048,
		Phases:       []serve.Phase{{Name: "steady", Duration: servePhase, Rate: serveRate(frac), Dataset: pile}},
		Calibration: &serve.Calibration{
			Trace:     tr,
			Placement: placement.Contiguous(k.Layers, k.Experts, tp.TotalGPUs()),
			Metrics:   serve.Metrics{Cost: cost},
		},
		Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// queuePeaks returns the largest sampled queue depth in the first and the
// second half of the arrival phase.
func queuePeaks(rep *serve.Report) (first, second float64) {
	for i, x := range rep.QueueDepth.X {
		switch y := rep.QueueDepth.Y[i]; {
		case x < servePhase/2:
			first = max(first, y)
		case x < servePhase:
			second = max(second, y)
		}
	}
	return first, second
}

func TestSimulateLowLoad(t *testing.T) {
	rep := serveAt(t, linearCost, 0.05)
	ideal := serveDecode * linearCost.Time(1, 0, 0)
	if p50 := rep.Overall.P50; p50 < ideal || p50 > 1.5*ideal {
		t.Fatalf("P50 at 5%% of capacity %.4fs, want within 1.5x of the idle %.4fs", p50, ideal)
	}
	if rep.Saturated {
		t.Fatal("low load must not saturate")
	}
	if rep.Overall.P95 < rep.Overall.P50 || rep.Overall.P99 < rep.Overall.P95 {
		t.Fatalf("percentiles out of order: %+v", rep.Overall)
	}
}

func TestSimulateLatencyGrowsWithLoad(t *testing.T) {
	fracs := []float64{0.05, 0.3, 0.6, 0.9, 2}
	prev := 0.0
	for i, frac := range fracs {
		p95 := serveAt(t, linearCost, frac).Overall.P95
		if i > 0 && p95 <= prev {
			t.Fatalf("P95 %.4fs at %.0f%% of capacity does not rise above %.4fs at %.0f%%",
				p95, frac*100, prev, fracs[i-1]*100)
		}
		prev = p95
	}
}

// An overloaded server runs full batches and its queue keeps growing while
// arrivals last, so the backlog drains long after they stop; near the knee
// the queue stays flat. The queue is read over the arrival phase only.
func TestSimulateSaturationDetected(t *testing.T) {
	over := serveAt(t, linearCost, 2)
	if min := float64(serveMaxBatch - 1); over.MeanBatch < min {
		t.Fatalf("overloaded server mean batch %.1f, want at least %.0f", over.MeanBatch, min)
	}
	if first, second := queuePeaks(over); second <= 2*first {
		t.Fatalf("overloaded queue peaks %.0f then %.0f, want the second half above twice the first", first, second)
	}
	if over.Makespan < 1.5*servePhase {
		t.Fatalf("overloaded run ends at %.2fs, want its backlog to drain past %.1fs", over.Makespan, 1.5*servePhase)
	}
	knee := serveAt(t, linearCost, 0.9)
	if first, second := queuePeaks(knee); second > 2*first {
		t.Fatalf("queue at 90%% of capacity peaks %.0f then %.0f, want it flat", first, second)
	}
}

// The serving-level consequence of ExFlow: a smaller Fixed term (less
// Alltoall per iteration) gives lower tail latency at equal load.
func TestSimulateFasterModelLowerLatency(t *testing.T) {
	faster := linearCost
	faster.Fixed /= 2
	if fast, slow := serveAt(t, faster, 0.6).Overall.P95, serveAt(t, linearCost, 0.6).Overall.P95; fast >= slow {
		t.Fatalf("halving Fixed must cut P95 at 60%% of capacity: %.4fs vs %.4fs", fast, slow)
	}
}
