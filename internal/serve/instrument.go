package serve

import "repro/internal/obs"

// serveMetrics caches the registry handles the server loop updates, resolved
// once at run start. The zero value (all nil) is the observability-off fast
// path: every update is then a nil-check no-op.
type serveMetrics struct {
	requests   *obs.Counter // serve_requests_total: admitted requests
	finished   *obs.Counter // serve_requests_finished_total
	tokens     *obs.Counter // serve_tokens_decoded_total
	iterations *obs.Counter // serve_iterations_total
	// memStall mirrors server.memStall addition-for-addition (same float
	// order), so the snapshot equals Report.MemStallSeconds exactly.
	memStall *obs.Counter // mem_stall_seconds

	solves     *obs.Counter // controller_solves_total: background re-solves launched
	discards   *obs.Counter // controller_solve_discards_total: staleness guard
	rejects    *obs.Counter // controller_solve_rejects_total: below the minimum gain
	migrations *obs.Counter // migrations_total: completed rollouts

	drift          *obs.Gauge // controller_drift_score: last observed score
	predStallDelta *obs.Gauge // controller_predicted_stall_delta: last accepted solve's
	queueDepth     *obs.Gauge // serve_queue_depth: last sampled fleet depth

	pauseSeconds *obs.Histogram // migration_pause_seconds: per-replica pauses
	solverWall   *obs.Histogram // solver_wall_seconds: measured re-solve walls
	iterSeconds  *obs.Histogram // serve_iteration_seconds: per-iteration durations
}

// fleetMetrics caches the fleet tier's metric handles. Unlike serveMetrics
// these register only when the fleet tier is enabled, so runs without one
// keep exactly today's exported metric name set.
type fleetMetrics struct {
	committed  *obs.Gauge   // fleet_committed_replicas: live + warming
	stallEst   *obs.Gauge   // fleet_stall_estimate: predicted stall s/token
	scaleUps   *obs.Counter // fleet_scale_ups_total
	scaleDowns *obs.Counter // fleet_scale_downs_total
}

// chaosMetrics caches the fault-injection counters. Like fleetMetrics they
// register only when a chaos schedule is armed, so fault-free runs keep
// exactly today's exported metric name set.
type chaosMetrics struct {
	crashes    *obs.Counter // chaos_crashes_total: replica crash faults fired
	recoveries *obs.Counter // chaos_recoveries_total: replicas back in service
	redispatch *obs.Counter // chaos_redispatch_total: requests moved off crashed replicas
	lostIters  *obs.Counter // chaos_lost_iterations_total: in-flight iterations aborted
	degrades   *obs.Counter // chaos_link_degrade_windows_total
	sheds      *obs.Counter // chaos_shed_total: requests shed on retry-exhausted fetches
}

func newChaosMetrics(reg *obs.Registry) chaosMetrics {
	if reg == nil {
		return chaosMetrics{}
	}
	return chaosMetrics{
		crashes:    reg.Counter("chaos_crashes_total"),
		recoveries: reg.Counter("chaos_recoveries_total"),
		redispatch: reg.Counter("chaos_redispatch_total"),
		lostIters:  reg.Counter("chaos_lost_iterations_total"),
		degrades:   reg.Counter("chaos_link_degrade_windows_total"),
		sheds:      reg.Counter("chaos_shed_total"),
	}
}

func newFleetMetrics(reg *obs.Registry) fleetMetrics {
	if reg == nil {
		return fleetMetrics{}
	}
	return fleetMetrics{
		committed:  reg.Gauge("fleet_committed_replicas"),
		stallEst:   reg.Gauge("fleet_stall_estimate"),
		scaleUps:   reg.Counter("fleet_scale_ups_total"),
		scaleDowns: reg.Counter("fleet_scale_downs_total"),
	}
}

// newServeMetrics registers every serve-level metric up front so a snapshot
// always carries the full name set (zeros included), keeping exported
// metrics schema-stable across runs. A nil registry yields the zero value.
func newServeMetrics(reg *obs.Registry) serveMetrics {
	if reg == nil {
		return serveMetrics{}
	}
	return serveMetrics{
		requests:       reg.Counter("serve_requests_total"),
		finished:       reg.Counter("serve_requests_finished_total"),
		tokens:         reg.Counter("serve_tokens_decoded_total"),
		iterations:     reg.Counter("serve_iterations_total"),
		memStall:       reg.Counter("mem_stall_seconds"),
		solves:         reg.Counter("controller_solves_total"),
		discards:       reg.Counter("controller_solve_discards_total"),
		rejects:        reg.Counter("controller_solve_rejects_total"),
		migrations:     reg.Counter("migrations_total"),
		drift:          reg.Gauge("controller_drift_score"),
		predStallDelta: reg.Gauge("controller_predicted_stall_delta"),
		queueDepth:     reg.Gauge("serve_queue_depth"),
		pauseSeconds:   reg.Histogram("migration_pause_seconds", obs.SecondsBuckets()),
		solverWall:     reg.Histogram("solver_wall_seconds", obs.SecondsBuckets()),
		iterSeconds:    reg.Histogram("serve_iteration_seconds", obs.SecondsBuckets()),
	}
}
