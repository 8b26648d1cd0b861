package main

import (
	"fmt"
	"math"

	"repro"
)

// fleetArmJSON is one serving run of the fleet benchmark.
type fleetArmJSON struct {
	Name string `json:"name"`
	// Spike / Recover stats are over the requests arriving in that phase;
	// Overall spans the run.
	SpikeP95   float64 `json:"spike_p95_s"`
	SpikeP99   float64 `json:"spike_p99_s"`
	RecoverP95 float64 `json:"recover_p95_s"`
	OverallP95 float64 `json:"overall_p95_s"`
	Makespan   float64 `json:"makespan_s"`
	Requests   int     `json:"requests"`
	// Fleet accounting (zero for the fleet-nil baseline).
	Arrivals    int `json:"arrivals"`
	ScaleUps    int `json:"scale_ups"`
	ScaleDowns  int `json:"scale_downs"`
	MaxLive     int `json:"max_live"`
	FinalLive   int `json:"final_live"`
	NVMeFetches int `json:"nvme_fetches"`
	DRAMHits    int `json:"dram_hits"`
}

// fleetSummaryJSON is the BENCH_fleet.json shape (schema/fleet.schema.json).
type fleetSummaryJSON struct {
	Model            string  `json:"model"`
	Layers           int     `json:"layers"`
	GPUs             int     `json:"gpus"`
	Replicas         int     `json:"replicas"`
	MaxReplicas      int     `json:"max_replicas"`
	Seed             uint64  `json:"seed"`
	Oversubscription float64 `json:"oversubscription"`
	HostSlots        int     `json:"host_slots"`
	WarmRPS          float64 `json:"warm_req_per_sec"`
	SpikeRPS         float64 `json:"spike_req_per_sec"`
	WarmSeconds      float64 `json:"warm_s"`
	SpikeSeconds     float64 `json:"spike_s"`
	RecoverSeconds   float64 `json:"recover_s"`

	Arms []fleetArmJSON `json:"arms"`

	Acceptance struct {
		// FleetDisabledBitIdentical: an all-zero FleetSpec (never scale, no
		// shared cache) reproduces the fleet-nil run exactly.
		FleetDisabledBitIdentical bool `json:"fleet_disabled_bit_identical"`
		// SharedCacheReducesNVMe: the shared node-level master tier strictly
		// reduces fleet-wide NVMe fetches vs per-replica static splits.
		SharedCacheReducesNVMe bool `json:"shared_cache_reduces_nvme_fetches"`
		NVMeIndependent        int  `json:"nvme_fetches_independent"`
		NVMeShared             int  `json:"nvme_fetches_shared"`
		// AutoscalerRecoversP95: scaling up within MaxReplicas beats the
		// fixed fleet's flash-crowd P95. AutoscalerScalesBackDown: the fleet
		// returns toward MinReplicas once the crowd passes.
		AutoscalerRecoversP95    bool `json:"autoscaler_recovers_p95"`
		AutoscalerScalesBackDown bool `json:"autoscaler_scales_back_down"`
	} `json:"acceptance"`
}

// toFleetArm summarizes one run.
func toFleetArm(name string, rep *exflow.ServeReport, warm, spike float64) fleetArmJSON {
	a := fleetArmJSON{
		Name:       name,
		SpikeP95:   rep.WindowStats(warm, warm+spike).P95,
		SpikeP99:   rep.WindowStats(warm, warm+spike).P99,
		RecoverP95: rep.WindowStats(warm+spike, rep.Makespan+1).P95,
		OverallP95: rep.Overall.P95,
		Makespan:   rep.Makespan,
		Requests:   rep.Requests,
		// Every arm serves under the memory tier.
		NVMeFetches: rep.ExpertMem.NVMeFetches,
	}
	if fl := rep.Fleet; fl != nil {
		a.Arrivals = fl.Arrivals
		a.ScaleUps, a.ScaleDowns = fl.ScaleUps, fl.ScaleDowns
		a.MaxLive, a.FinalLive = fl.MaxLive, fl.FinalLive
		if fl.HostCache != nil {
			a.DRAMHits = fl.HostCache.DRAMHits
		}
	}
	return a
}

// runFleet drives the fleet tier through a flash crowd: a warm era at
// comfortable load, a 2.5x spike on a shifted token mixture, and a recovery
// era — once per fleet configuration over the identical arrival stream. The
// arms establish the tier's two claims (shared host cache cuts NVMe traffic,
// the autoscaler recovers the spike and stands back down) plus the
// inert-spec bit-identity guarantee.
func runFleet(sys *exflow.System) (any, error) {
	cfg := sys.Model.Cfg
	const ratio = 2.0
	spikeDur, recoverDur := *duration/2, *duration/2
	hostSlots := cfg.Layers * cfg.Experts / 4
	maxReplicas := 3 * *replicas
	fmt.Printf("fleet benchmark: %s on %d GPUs x%d replicas, %.0fs warm + %.0fs flash crowd + %.0fs recovery at %.1fx oversubscription\n",
		cfg.String(), *gpus, *replicas, *warm, spikeDur, recoverDur, ratio)

	base := exflow.ServeOptions{
		Replicas:     *replicas,
		DecodeTokens: *decode,
		SolveWorkers: *workers,
		Seed:         *seed,
	}
	cal, err := exflow.CalibrateServe(sys, base)
	if err != nil {
		return nil, err
	}
	base.Calibration = cal
	base.Oversubscription, base.HostSlots = ratio, hostSlots
	capTok, err := exflow.ProbeMemoryCapacity(sys, base, ratio, *warm)
	if err != nil {
		return nil, err
	}
	warmRate := 0.6 * capTok / float64(*decode)
	spikeRate := 2.5 * warmRate
	base.Phases = []exflow.ServePhase{
		{Name: "warm", Duration: *warm, Rate: warmRate, Arrival: *arrival},
		{Name: "spike", Duration: spikeDur, Rate: spikeRate, Arrival: *arrival, Dataset: exflow.ViralDataset()},
		{Name: "recover", Duration: recoverDur, Rate: warmRate, Arrival: *arrival},
	}
	fmt.Printf("%.1f req/s warm, %.1f req/s spike\n", warmRate, spikeRate)

	// Reconciliation cadences scale with the traffic program so the bench
	// behaves at smoke scale too.
	recon := math.Max(0.25, *warm/16)
	specs := []*exflow.FleetSpec{
		nil,
		{},
		{SharedHostCache: true},
		{
			MinReplicas:       *replicas,
			MaxReplicas:       maxReplicas,
			ReconcileInterval: recon,
			ScaleUpCooldown:   2 * recon,
			ScaleDownCooldown: 4 * recon,
			DownscaleStreak:   2,
			ForecastHalfLife:  math.Max(1, *warm/8),
		},
	}
	// The arms share the arrival stream (same seed, same phases).
	opts := make([]exflow.ServeOptions, len(specs))
	for i, spec := range specs {
		opts[i] = base
		opts[i].Fleet = spec
	}
	reps, err := exflow.ServeAll(sys, opts)
	if err != nil {
		return nil, err
	}
	nilRun, inertRun, sharedRun, autoRun := reps[0], reps[1], reps[2], reps[3]

	sum := fleetSummaryJSON{
		Model: cfg.Name, Layers: cfg.Layers, GPUs: *gpus,
		Replicas: *replicas, MaxReplicas: maxReplicas, Seed: *seed,
		Oversubscription: ratio, HostSlots: hostSlots,
		WarmRPS: warmRate, SpikeRPS: spikeRate,
		WarmSeconds: *warm, SpikeSeconds: spikeDur, RecoverSeconds: recoverDur,
	}
	for i, name := range []string{"fleet-nil", "inert-spec", "shared-cache", "autoscaler"} {
		sum.Arms = append(sum.Arms, toFleetArm(name, reps[i], *warm, spikeDur))
	}

	a := &sum.Acceptance
	a.FleetDisabledBitIdentical = inertRun.Overall.P95 == nilRun.Overall.P95 &&
		inertRun.Makespan == nilRun.Makespan && inertRun.Requests == nilRun.Requests
	a.NVMeIndependent = nilRun.ExpertMem.NVMeFetches
	a.NVMeShared = sharedRun.ExpertMem.NVMeFetches
	a.SharedCacheReducesNVMe = a.NVMeShared < a.NVMeIndependent
	nilSpikeP95, autoSpikeP95 := sum.Arms[0].SpikeP95, sum.Arms[3].SpikeP95
	a.AutoscalerRecoversP95 = autoRun.Fleet.ScaleUps > 0 &&
		autoRun.Fleet.MaxLive <= maxReplicas && autoSpikeP95 < nilSpikeP95
	a.AutoscalerScalesBackDown = autoRun.Fleet.ScaleDowns > 0 &&
		autoRun.Fleet.FinalLive < autoRun.Fleet.MaxLive

	for _, arm := range sum.Arms {
		fmt.Printf("  %-17s spike P95 %8.4fs P99 %8.4fs  recover P95 %8.4fs  scale %d/%d  live max %d final %d  nvme %d\n",
			arm.Name, arm.SpikeP95, arm.SpikeP99, arm.RecoverP95,
			arm.ScaleUps, arm.ScaleDowns, arm.MaxLive, arm.FinalLive, arm.NVMeFetches)
	}
	fmt.Printf("\ninert spec bit-identical to fleet-nil: %v\n", a.FleetDisabledBitIdentical)
	fmt.Printf("shared host tier NVMe fetches %d vs independent %d -> reduces: %v\n",
		a.NVMeShared, a.NVMeIndependent, a.SharedCacheReducesNVMe)
	fmt.Printf("autoscaler spike P95 %.4fs vs fixed %.4fs, live max %d final %d -> recovers: %v, scales back down: %v\n",
		autoSpikeP95, nilSpikeP95, autoRun.Fleet.MaxLive, autoRun.Fleet.FinalLive,
		a.AutoscalerRecoversP95, a.AutoscalerScalesBackDown)
	return sum, nil
}
