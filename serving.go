package exflow

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/engine"
	"repro/internal/fleet"
	"repro/internal/placement"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ServeOptions configures Serve and CalibrateServe; ServePhase is one era
// of its traffic program; ServeCalibration holds the offline artifacts a
// run starts from and ServeMetrics the cost model and capacity numbers
// calibration derived. All four are the serve package's types (see
// internal/serve): each option is declared, defaulted and validated there,
// once.
type (
	ServeOptions     = serve.Options
	ServePhase       = serve.Phase
	ServeCalibration = serve.Calibration
	ServeMetrics     = serve.Metrics
)

// ServeReport is the outcome of a serving run (see internal/serve.Report).
type ServeReport = serve.Report

// FleetSpec declares the fleet tier's desired state (see internal/fleet):
// shared host-DRAM master cache, and autoscaler bounds and cadences.
// FleetReport is its run summary (ServeReport.Fleet).
type (
	FleetSpec   = fleet.Spec
	FleetReport = fleet.Report
)

// ChaosSchedule declares a fault-injection program for Serve (see
// internal/chaos): build one from ChaosCrash / ChaosCrashForever /
// ChaosDegradeLink faults plus the fetch-timeout and preemptible-DMA knobs.
// ChaosReport is the per-run fault ledger (ServeReport.Faults).
type (
	ChaosSchedule = chaos.Schedule
	ChaosFault    = chaos.Fault
	ChaosReport   = chaos.Report
)

// ChaosCrash, ChaosCrashForever, and ChaosDegradeLink construct the typed
// faults a ChaosSchedule is built from.
var (
	ChaosCrash        = chaos.Crash
	ChaosCrashForever = chaos.CrashForever
	ChaosDegradeLink  = chaos.DegradeLink
)

// Serve runs the online serving subsystem on top of a System: it profiles
// the model, solves the initial ExFlow placement, fits the locality-aware
// iteration-cost model from real engine runs, and then drives the
// multi-replica continuous-batching simulation — with live routing-drift
// detection and (when opts.Adaptive) background expert re-placement.
func Serve(sys *System, opts ServeOptions) (*ServeReport, *ServeMetrics, error) {
	if opts.Calibration == nil {
		// CalibrateServe validates the options before its expensive engine
		// runs; with a calibration supplied, serve.Run validates them.
		cal, err := CalibrateServe(sys, opts)
		if err != nil {
			return nil, nil, err
		}
		opts.Calibration = cal
	}
	rep, err := serve.Run(sys.serveDeployment(), opts)
	if err != nil {
		return nil, nil, err
	}
	m := opts.Calibration.Metrics
	return rep, &m, nil
}

// serveDeployment is the system as the serve package sees it.
func (s *System) serveDeployment() serve.Deployment {
	return serve.Deployment{
		Topo:        s.Topo,
		Kernel:      s.Kernel,
		ExpertBytes: int(s.Model.Cfg.ExpertParams()) * 2, // fp16
		Dataset:     s.Dataset,
		Seed:        s.Seed,
	}
}

// CalibrateServe profiles the system, solves the initial placement, fits
// the locality-aware iteration-cost model from timing-only engine runs, and
// resolves the drift threshold.
func CalibrateServe(sys *System, opts ServeOptions) (*ServeCalibration, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.WithDefaults(sys.serveDeployment())
	tr := sys.Profile(opts.ProfileTokens)
	pl := sys.SolvePlacement(tr)
	threshold := calibrateDriftThreshold(sys, tr, opts.Window)
	cost, fracNode, fracCross, err := fitLocalityModel(sys, pl, calibIters)
	if err != nil {
		return nil, fmt.Errorf("exflow: serve calibration failed: %w", err)
	}
	met := ServeMetrics{Cost: cost, FracNode: fracNode, FracCross: fracCross}
	met.TokenCapacity = float64(opts.MaxBatch) / cost.Time(opts.MaxBatch, fracNode, fracCross)
	met.RequestCapacity = met.TokenCapacity * float64(opts.Replicas) / float64(opts.DecodeTokens)
	return &ServeCalibration{Trace: tr, Placement: pl, Metrics: met, DriftThreshold: threshold}, nil
}

// calibIters is the decode-iteration count of each calibration engine run.
const calibIters = 3

// calibrateDriftThreshold bootstraps the detector threshold from the model
// itself: it scores a held-out, window-sized slice of in-distribution
// traffic against the profiling baseline — pure sampling noise — and sets
// the threshold at three times that floor. This keeps the detector quiet on
// the profiled distribution while firing on genuine mixture shift, whatever
// the window size, layer count, and expert count imply for the noise scale.
func calibrateDriftThreshold(sys *System, tr *trace.Trace, window int) float64 {
	held := sys.ProfileOn(sys.Dataset, window, 1<<21)
	experts := sys.Model.Cfg.Experts
	noise := serve.Divergence(serve.JS,
		serve.Pool(tr.AllTransitionCounts(), experts),
		serve.Pool(held.AllTransitionCounts(), experts))
	return 3 * noise
}

// fitLocalityModel measures the engine at three placements of different
// dispatch locality (contiguous, random, affinity-staged), two batch sizes
// each, and least-squares fits the locality-aware iteration-cost model. It
// returns the model plus the staged placement's measured dispatch fractions.
// It reads only simulated seconds and dispatch counts, so the engine runs
// are timing-only.
func fitLocalityModel(sys *System, staged *placement.Placement, iters int) (workload.LocalityModel, float64, float64, error) {
	cfg := sys.Model.Cfg
	gpus := sys.Topo.TotalGPUs()
	placements := []struct {
		pl   *placement.Placement
		mode engine.Mode
	}{
		{sys.Baseline(), engine.ContextCoherent},
		{placement.Random(cfg.Layers, cfg.Experts, gpus, sys.Seed+0xBAD), engine.ContextCoherent},
		{staged, engine.ExFlow},
	}
	var points []workload.LocalityPoint
	var fracNode, fracCross float64
	for pi, p := range placements {
		for _, perGPU := range []int{2, 8} {
			rep := sys.run(p.mode, p.pl, Workload{RequestsPerGPU: perGPU, PromptLen: 8, GenerateTokens: iters}, true)
			total := rep.DispatchSameGPU + rep.DispatchSameNode + rep.DispatchCrossNode
			if total == 0 {
				return workload.LocalityModel{}, 0, 0, fmt.Errorf("calibration run produced no dispatches")
			}
			fn := float64(rep.DispatchSameNode) / float64(total)
			fc := float64(rep.DispatchCrossNode) / float64(total)
			points = append(points, workload.LocalityPoint{
				Batch:     perGPU * gpus,
				FracNode:  fn,
				FracCross: fc,
				Seconds:   (rep.SimSeconds - rep.Breakdown["prefill"]) / float64(iters),
			})
			if pi == len(placements)-1 {
				fracNode, fracCross = fn, fc
			}
		}
	}
	m, err := workload.FitLocalityModel(points)
	return m, fracNode, fracCross, err
}
