package fleet

import "math"

// Decision is one reconcile step's outcome.
type Decision struct {
	// Time is the reconcile instant; Rate the EWMA arrival-rate forecast
	// (requests/second) it acted on.
	Time float64
	Rate float64
	// Desired is the clamped replica count the forecast wants; Delta is the
	// change actually committed this step (positive = scale up by Delta,
	// -1 = drain one replica). Delta 0 never reaches the caller.
	Desired int
	Delta   int
	// Streak is the consecutive-low-reconcile count at decision time
	// (scale-down hysteresis state, for the decision log).
	Streak int
}

// Autoscaler is the reconciliation loop's state: a declarative Spec is the
// desired world, Reconcile compares it against the committed replica count
// and moves one step toward it. Scale-ups jump straight to the clamped
// desired count (a flash crowd needs capacity now); scale-downs drain one
// replica at a time and only after DownscaleStreak consecutive reconciles
// agreed — the slow-back hysteresis that keeps a boundary arrival rate from
// flapping the fleet. All state advances only on Observe/Reconcile calls, so
// decisions are a pure function of the arrival sequence — deterministic for
// a fixed seed.
type Autoscaler struct {
	spec Spec

	pending  int // arrivals since the last rate update
	rate     float64
	lastTick float64
	haveRate bool

	upBlockedUntil   float64
	downBlockedUntil float64
	lowStreak        int
}

// NewAutoscaler builds the loop state for a defaulted spec.
func NewAutoscaler(spec Spec) *Autoscaler { return &Autoscaler{spec: spec} }

// ObserveArrival records one offered request.
func (a *Autoscaler) ObserveArrival() { a.pending++ }

// Rate is the current arrival-rate forecast in requests/second.
func (a *Autoscaler) Rate() float64 { return a.rate }

// tick folds the arrivals since the last update into the EWMA forecast. The
// smoothing factor depends on the elapsed interval — alpha = 1 - exp(-dt *
// ln2 / halfLife) — so the forecast's half-life is ForecastHalfLife seconds
// of simulated time regardless of the reconcile cadence.
func (a *Autoscaler) tick(now float64) {
	dt := now - a.lastTick
	if dt <= 0 {
		return
	}
	inst := float64(a.pending) / dt
	a.pending = 0
	a.lastTick = now
	if !a.haveRate {
		a.rate = inst
		a.haveRate = true
		return
	}
	alpha := 1 - math.Exp(-dt*math.Ln2/a.spec.ForecastHalfLife)
	a.rate += alpha * (inst - a.rate)
}

// Hold updates the forecast without acting — called while a migration
// rollout is in flight and the replica set must not change under it.
func (a *Autoscaler) Hold(now float64) { a.tick(now) }

// Reconcile runs one loop step: update the forecast, compute the desired
// replica count for it, and decide. committed is the current live+warming
// replica count; perReplicaTokensPerSec one replica's decode capacity
// including predicted paging stall; decodeTokens the per-request decode
// length. Returns false when no change is committed (at target, clamped, in
// cooldown, or inside the downscale streak).
func (a *Autoscaler) Reconcile(now float64, committed int, perReplicaTokensPerSec float64, decodeTokens int) (Decision, bool) {
	a.tick(now)
	dec := Decision{Time: now, Rate: a.rate}
	desired := committed
	if per := targetUtilization * perReplicaTokensPerSec; per > 0 {
		desired = int(math.Ceil(a.rate * float64(decodeTokens) / per))
	}
	if desired < a.spec.MinReplicas {
		desired = a.spec.MinReplicas
	}
	if desired > a.spec.MaxReplicas {
		desired = a.spec.MaxReplicas
	}
	dec.Desired = desired
	switch {
	case desired > committed:
		a.lowStreak = 0
		if now < a.upBlockedUntil {
			return dec, false
		}
		a.upBlockedUntil = now + a.spec.ScaleUpCooldown
		// An up expresses confidence demand is high; hold any down until the
		// new capacity has served for a cooldown (anti-flap, one direction).
		if t := now + a.spec.ScaleUpCooldown; t > a.downBlockedUntil {
			a.downBlockedUntil = t
		}
		dec.Delta = desired - committed
		return dec, true
	case desired < committed:
		a.lowStreak++
		dec.Streak = a.lowStreak
		if a.lowStreak < a.spec.DownscaleStreak || now < a.downBlockedUntil {
			return dec, false
		}
		a.lowStreak = 0
		a.downBlockedUntil = now + a.spec.ScaleDownCooldown
		// ... and a down expresses confidence demand is low; a desired-count
		// blip right after (committed just shrank past it) must not bounce
		// the fleet straight back up (anti-flap, the other direction).
		if t := now + a.spec.ScaleDownCooldown; t > a.upBlockedUntil {
			a.upBlockedUntil = t
		}
		dec.Delta = -1
		return dec, true
	default:
		a.lowStreak = 0
		return dec, false
	}
}
