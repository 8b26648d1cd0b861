package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// provenance identifies what produced an output: the code, the inputs and
// the host's parallelism.
type provenance struct {
	Commit     string      `json:"commit"`
	Workload   string      `json:"workload"`
	Seed       uint64      `json:"seed"`
	Seconds    float64     `json:"seconds"`
	Traced     bool        `json:"traced"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	NProc      int         `json:"nproc"`
	GoVersion  string      `json:"go_version"`
	Fixture    fixtureJSON `json:"fixture"`
}

type fixtureJSON struct {
	Model        string  `json:"model"`
	Layers       int     `json:"layers"`
	GPUs         int     `json:"gpus"`
	Replicas     int     `json:"replicas"`
	DomainTilt   float64 `json:"domain_tilt"`
	Affinity     float64 `json:"affinity_strength"`
	DecodeTokens int     `json:"decode_tokens"`
	SystemSeed   uint64  `json:"system_seed"`
	RateRPS      float64 `json:"rate_req_per_s"`
	MemRateRPS   float64 `json:"mem_rate_req_per_s"`
	MemRatio     float64 `json:"mem_oversubscription"`
	SubRuns      int     `json:"sub_runs"`
}

func newProvenance(cfg config) provenance {
	return provenance{
		Commit:     commit(),
		Workload:   cfg.w.name,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Traced:     cfg.traced,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Fixture: fixtureJSON{
			Model: "GPT-M/32E", Layers: cfg.fx.Layers, GPUs: cfg.fx.GPUs, Replicas: replicas,
			DomainTilt: domainTilt, Affinity: affinityStrength, DecodeTokens: decodeTokens, SystemSeed: systemSeed,
			RateRPS: cfg.fx.Rate, MemRateRPS: cfg.fx.MemRate, MemRatio: memRatio, SubRuns: subRuns,
		},
	}
}

// commit is the VCS revision stamped into the binary at build time, else
// `git rev-parse HEAD` run in the working directory (and not above it),
// else "unknown". A "+dirty" suffix marks uncommitted changes.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+dirty"
			}
			return rev
		}
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	if wd, err := os.Getwd(); err == nil {
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	if out, err := cmd.Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}
