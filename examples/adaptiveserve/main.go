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

	// Calibrate once (profiling + engine runs), share across both fleets.
	cal, err := exflow.CalibrateServe(sys, opts)
	if err != nil {
		panic(err)
	}
	opts.Calibration = cal

	fmt.Println("static fleet (offline placement, never re-placed):")
	opts.Adaptive = false
	static, met, err := exflow.Serve(sys, opts)
	if err != nil {
		panic(err)
	}
	fmt.Printf("  calibrated capacity %.0f tok/s per replica (cross-node hop costs %.2fus/token)\n",
		met.TokenCapacity, met.Cost.PerCrossHop*1e6)
	fmt.Print(static)

	fmt.Println("\nadaptive fleet (drift detection + live expert re-placement):")
	opts.Adaptive = true
	adaptive, _, err := exflow.Serve(sys, opts)
	if err != nil {
		panic(err)
	}
	fmt.Print(adaptive)

	tail0, tail1 := 20.0, 30.0
	st, ad := static.WindowStats(tail0, tail1), adaptive.WindowStats(tail0, tail1)
	fmt.Printf("\nafter the fleet settles (last 10s): static P95 %.3fs, adaptive P95 %.3fs\n", st.P95, ad.P95)
	for _, m := range adaptive.Migrations {
		fmt.Printf("the re-placement solved for %.0fms in the background (serving continued), then moved %d experts (%d cross-node) for a %.0fms pause per replica\n",
			m.SolveSeconds*1e3, m.Moves, m.CrossNodeMoves, m.Seconds*1e3)
	}
	if adaptive.DiscardedSolves > 0 {
		fmt.Printf("%d of %d background solves were discarded by the staleness guard\n",
			adaptive.DiscardedSolves, adaptive.Solves)
	}
}
