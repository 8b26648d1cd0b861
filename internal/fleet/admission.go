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
	// BacklogTokens is the undecoded token backlog across the fleet
	// (queued requests at full decode length plus active remainders).
	BacklogTokens int
	// TokensPerSec is the fleet's decode capacity estimate including the
	// residency model's predicted expert-stall seconds per token — the same
	// warm-set oracle the placement solver prices re-solves with. Zero means
	// no estimate (admit).
	TokensPerSec float64
	// DecodeSeconds is the request's own pipelined decode stretch: its decode
	// length times the predicted (stall-inflated) iteration time. A decode
	// emits one token per iteration however much fleet throughput is spare,
	// so this floor, not DecodeTokens/TokensPerSec, is what the request adds
	// to its completion time.
	DecodeSeconds float64
	// Defers is how many times this request has already been deferred.
	Defers int
}

// Admit applies the spec's admission policy.
//
// The paging policy prices the request's expected completion time:
//
//	wait = BacklogTokens / TokensPerSec + DecodeSeconds
//
// — the backlog ahead of it drains at the fleet's stall-inflated decode
// rate, then the request itself decodes one token per (stall-inflated)
// iteration. When wait exceeds SLOSeconds the request is deferred (up to
// MaxDefers) and then shed: under a shifted hot set the same queue depth can
// be several times more expensive, and the policy sheds exactly when the
// paging-inflated backlog — not the raw count — breaks the SLO. The queue
// policy is the depth-threshold baseline.
func (s *Spec) Admit(in AdmissionInput) AdmissionDecision {
	over := false
	switch s.Admission {
	case AdmissionQueue:
		over = in.Live > 0 && in.Queued >= s.MaxQueuePerReplica*in.Live
	case AdmissionPaging:
		if in.TokensPerSec > 0 {
			wait := float64(in.BacklogTokens)/in.TokensPerSec + in.DecodeSeconds
			over = wait > s.SLOSeconds
		}
	default:
		return Admit
	}
	switch {
	case !over:
		return Admit
	case in.Defers < s.MaxDefers:
		return Defer
	default:
		return Shed
	}
}
