package main

import (
	"encoding/json"
	"fmt"
	"sort"
)

// metricDef declares one reported metric. BENCHMARK.json at the repository
// root declares the same names, units and directions (pinned by
// TestNamesMatchBenchmarkJSON). Per-layer units prefixed sim_ are
// simulated-clock durations and unprefixed time units the host's wall clock.
// Every host time is reported at the reference host's speed (probe.go).
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd is what an untraced run reports: what a user of the served
// model sees (simulated clock) and what running the simulator costs (host
// clock).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"p50_s", "s", "lower"},
	{"p99_s", "s", "lower"},
	{"tokens_per_s", "tok/s", "higher"},
	{"slo_attain", "fraction", "higher"},
	{"max_rps_at_slo", "req/s", "higher"},
	{"run_host_s", "s", "lower"},
	{"host_us_per_iter", "us", "lower"},
	{"allocs_per_iter", "count", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer is what a traced run reports, grouped by the repository module
// each metric measures.
var perLayer = []metricDef{
	{"synth.route_ns", "ns", "lower"},
	{"synth.route_allocs", "count", "lower"},
	{"synth.route_host_frac", "fraction", "lower"},

	{"serve.iterations", "count", "lower"},
	{"serve.mean_batch", "requests", "higher"},
	{"serve.saturated", "flag", "lower"},
	{"serve.makespan_s", "sim_s", "lower"},
	{"serve.cross_node_frac", "fraction", "lower"},
	{"serve.window_push_ns", "ns", "lower"},
	{"serve.detector_observe_us", "us", "lower"},
	{"serve.window_host_frac", "fraction", "lower"},
	{"serve.residual_host_frac", "fraction", "lower"},

	{"controller.solves", "count", "lower"},
	{"controller.discarded_solves", "count", "lower"},
	{"controller.migrations", "count", "lower"},
	{"controller.moves", "count", "lower"},
	{"controller.cross_node_moves", "count", "lower"},
	{"controller.pause_s", "sim_s", "lower"},
	{"controller.stall_pred_abs_err", "sim_s/token", "lower"},
	{"controller.stall_pred_ratio", "ratio", "lower"},
	{"controller.resolve_host_s", "s", "lower"},
	{"controller.host_frac", "fraction", "lower"},

	{"expertmem.hit_rate", "fraction", "higher"},
	{"expertmem.late_hits", "count", "lower"},
	{"expertmem.misses", "count", "lower"},
	{"expertmem.evictions", "count", "lower"},
	{"expertmem.prefetches", "count", "lower"},
	{"expertmem.wasted_prefetches", "count", "lower"},
	{"expertmem.prefetch_precision", "fraction", "higher"},
	{"expertmem.fetched_gb", "GB", "lower"},
	{"expertmem.stall_s_per_token", "sim_s/token", "lower"},
	{"expertmem.replay_us_per_iter", "us", "lower"},
	{"expertmem.host_frac", "fraction", "lower"},

	{"placement.solve_host_s", "s", "lower"},
	{"placement.crossings", "count", "lower"},
	{"placement.intra_node_frac", "fraction", "higher"},

	{"trace.profile_host_s", "s", "lower"},

	{"engine.run_host_s", "s", "lower"},
	{"engine.exflow_tokens_per_s", "tok/s", "higher"},
	{"engine.vanilla_tokens_per_s", "tok/s", "higher"},
	{"engine.exflow_speedup", "ratio", "higher"},
	{"engine.alltoall_share", "fraction", "lower"},

	{"workload.cost_fixed_us", "sim_us", "lower"},
	{"workload.cost_per_token_us", "sim_us", "lower"},
	{"workload.cost_cross_hop_us", "sim_us", "lower"},
	{"workload.token_capacity", "tok/s", "higher"},

	{"obs.trace_overhead_frac", "fraction", "lower"},
	{"obs.trace_events", "count", "higher"},
}

// result is one run's outcome.
type result struct {
	values map[string]float64
	// probe is the run's median host-speed probe in seconds, for
	// diagnostics.
	probe     float64
	failures  []string
	attempted int // requests offered in the main run
	failed    int // offered requests that never finished
}

func (r *result) set(name string, v float64) { r.values[name] = v }

// check records a failed correctness gate unless ok holds.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// line renders the result as the one-line JSON object the benchmark prints
// last: the declared metric set for the mode, every value at full precision.
// A declared metric the run did not set is a bug in this program and fails
// the run.
func (r *result) line(traced bool) ([]byte, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	out := resultJSON{
		Correct:   len(r.failures) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricJSON, len(defs)),
	}
	var missing []string
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		out.Metrics[d.Name] = metricJSON{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("metrics not measured: %v", missing)
	}
	return json.Marshal(out)
}
