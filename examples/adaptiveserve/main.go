// Adaptive serving quickstart: keep the ExFlow placement fresh while the
// traffic drifts under it.
//
// The paper computes its expert placement once, offline, from a profiling
// trace. This example runs the online layer above it: a two-replica
// continuous-batching fleet serves a domain-specialized MoE checkpoint near
// its capacity knee while the traffic mixture shifts mid-run from the broad
// profiling distribution to a narrow viral burst. The serving subsystem
// watches live routing transitions in a sliding window, detects the drift
// (Jensen-Shannon divergence against the profiled baseline), re-solves the
// placement on the live window in the background, and migrates experts
// replica by replica — paying a short parameter-copy pause, then serving
// at a lower cross-node dispatch fraction than the stale placement.
//
//	go run ./examples/adaptiveserve
package main

import (
	"fmt"

	"repro"
	"repro/internal/moe"
)

func main() {
	cfg := moe.GPTM(32)
	cfg.Layers = 12
	sys := exflow.NewSystem(exflow.SystemOptions{
		Model:      cfg,
		GPUs:       16, // 4 nodes x 4 GPUs per replica
		DomainTilt: 8,  // a domain-specialized checkpoint: routing follows traffic
		Seed:       7,
	})

	opts := exflow.ServeOptions{
		Replicas:     2,
		DecodeTokens: 32,
		LoadFrac:     0.95, // near the knee, where placement quality is latency
		SolveSeconds: 0.25, // the re-solve overlaps serving; only the copy pauses
		SolveWorkers: 4,    // deterministic 4-replica solve portfolio
		Phases: []exflow.ServePhase{
			{Name: "warm", Duration: 10},                                  // profiled distribution
			{Name: "drift", Duration: 20, Dataset: exflow.ViralDataset()}, // viral burst
		},
	}

	// One calibration (profiling + engine runs) serves both fleets, side by
	// side; the comparison's tail is the second half of the drift phase.
	cmp, err := exflow.CompareDrift(sys, opts)
	if err != nil {
		panic(err)
	}
	sum, adaptive := cmp.Summary, cmp.Adaptive
	fmt.Println("static fleet (offline placement, never re-placed):")
	fmt.Printf("  calibrated capacity %.0f tok/s per replica (cross-node hop costs %.2fus/token)\n",
		sum.TokenCapacity, sum.CostCrossHopUS)
	fmt.Print(cmp.Static)
	fmt.Println("\nadaptive fleet (drift detection + live expert re-placement):")
	fmt.Print(adaptive)

	fmt.Printf("\nafter the fleet settles (last 10s): static P95 %.3fs, adaptive P95 %.3fs\n",
		sum.Static.TailP95, sum.Adaptive.TailP95)
	for _, m := range adaptive.Migrations {
		fmt.Printf("the re-placement solved for %.0fms in the background (serving continued), then moved %d experts (%d cross-node) for a %.0fms pause per replica\n",
			m.SolveSeconds*1e3, m.Moves, m.CrossNodeMoves, m.Seconds*1e3)
	}
	if adaptive.DiscardedSolves > 0 {
		fmt.Printf("%d of %d background solves were discarded by the staleness guard\n",
			adaptive.DiscardedSolves, adaptive.Solves)
	}
}
