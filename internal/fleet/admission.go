package fleet

// AdmissionDecision is the front-end's verdict on one arriving request.
type AdmissionDecision int

const (
	// Admit enqueues the request now.
	Admit AdmissionDecision = iota
	// Defer re-offers the request Spec.DeferSeconds later — brief overload
	// rides out a transient (a warming replica, a draining spike) without
	// dropping work. After Spec.MaxDefers the choice is admit-or-shed.
	Defer
	// Shed drops the request.
	Shed
)

// String names the decision.
func (d AdmissionDecision) String() string {
	switch d {
	case Admit:
		return "admit"
	case Defer:
		return "defer"
	case Shed:
		return "shed"
	}
	return "unknown"
}

// AdmissionInput is the fleet state one admission decision is priced on.
type AdmissionInput struct {
	// Queued is the fleet-wide queued+active request count; Live the serving
	// (non-draining) replica count.
	Queued int
	Live   int
	// Defers is how many times this request has already been deferred.
	Defers int
}

// Admit applies the spec's admission policy. The queue policy is over its
// bound once the fleet holds MaxQueuePerReplica queued+active requests per
// live replica; an over-bound request is deferred up to MaxDefers times and
// then shed.
func (s *Spec) Admit(in AdmissionInput) AdmissionDecision {
	if s.Admission != AdmissionQueue {
		return Admit
	}
	switch {
	case in.Live == 0 || in.Queued < s.MaxQueuePerReplica*in.Live:
		return Admit
	case in.Defers < s.MaxDefers:
		return Defer
	default:
		return Shed
	}
}
