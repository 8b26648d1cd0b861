// Package chaos is the deterministic fault-injection layer for the serving
// simulator: a declarative Schedule of typed fault events pinned to the
// simulated clock, plus the fetch-path failure model (stall-timeout with
// bounded retry/backoff) and the preemptible-DMA switch that lets a demand
// fetch reclaim the host link from an in-flight speculative prefetch.
//
// The package holds only the fault taxonomy and its arithmetic; the serve
// event loop injects crashes and recoveries, expertmem applies the link
// degradation, retries, and preemption. Everything is a pure function of the
// schedule and the simulated time, so runs with identical seeds and
// identical schedules replay bit-identically — the property the scenario
// matrix's determinism gate pins.
package chaos

import (
	"fmt"
	"math"
)

// FaultKind is the typed fault taxonomy.
type FaultKind int

const (
	// FaultCrash kills a replica at At: its residency tables and in-flight
	// iteration are lost, queued and active requests re-dispatch to the
	// surviving replicas, and its shared-host-cache references are released.
	// With RecoverAfter >= 0 the replica begins recovery after that many dead
	// seconds: the parameter re-copy and HBM re-warm are charged to the
	// simulated clock (master copies re-fetched through the fleet HostCache
	// when one exists) before it serves again. RecoverAfter < 0 means the
	// replica never recovers — its slot is then free for an autoscaler to
	// re-commission.
	FaultCrash FaultKind = iota
	// FaultLinkDegrade multiplies every host/NVMe fetch duration by Factor
	// over the window [At, At+Duration) — a degraded PCIe/NVMe path.
	FaultLinkDegrade
)

// String names the kind as it appears in logs and scenario rows.
func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "crash"
	case FaultLinkDegrade:
		return "link-degrade"
	default:
		return "unknown"
	}
}

// Fault is one scheduled fault event. Which fields are read depends on Kind;
// the constructors below build well-formed values.
type Fault struct {
	Kind FaultKind
	// At is the simulated time the fault strikes.
	At float64
	// Replica is the crash target (FaultCrash). Replica 0 is the serving
	// stack's anchor — drift scoring and churn pricing read it — and is
	// rejected by Validate.
	Replica int
	// RecoverAfter is the dead time before the crash recovery's parameter
	// re-copy begins; negative means the replica stays dead (FaultCrash).
	RecoverAfter float64
	// Duration / Factor shape the degraded-link window (FaultLinkDegrade):
	// fetches starting inside [At, At+Duration) run Factor times slower.
	Duration float64
	Factor   float64
}

// Crash builds a replica-crash fault that begins recovery after recoverAfter
// dead seconds.
func Crash(at float64, replica int, recoverAfter float64) Fault {
	return Fault{Kind: FaultCrash, At: at, Replica: replica, RecoverAfter: recoverAfter}
}

// CrashForever builds a replica crash with no recovery.
func CrashForever(at float64, replica int) Fault {
	return Fault{Kind: FaultCrash, At: at, Replica: replica, RecoverAfter: -1}
}

// DegradeLink builds a degraded host/NVMe link window: fetches starting in
// [at, at+duration) run factor times slower.
func DegradeLink(at, duration, factor float64) Fault {
	return Fault{Kind: FaultLinkDegrade, At: at, Duration: duration, Factor: factor}
}

// Recovers reports whether a crash fault schedules a recovery.
func (f Fault) Recovers() bool { return f.Kind == FaultCrash && f.RecoverAfter >= 0 }

// Schedule is a declarative chaos plan: the fault events plus the fetch-path
// failure model. The zero value (and nil) injects nothing; a serving run
// with a nil or empty Schedule is bit-identical to one without the chaos
// layer at all.
type Schedule struct {
	// Faults are the scheduled events; order is irrelevant (the serve event
	// heap sequences them).
	Faults []Fault

	// FetchTimeout arms the fetch stall-timeout: a demand expert fetch whose
	// transfer would run longer than this many simulated seconds is abandoned
	// at the timeout and retried after FetchBackoff (doubling per attempt),
	// up to FetchRetries retries. A fetch that exhausts its retries fails,
	// and the serving layer sheds the requests stranded on it — graceful
	// degradation instead of an unbounded stall. Zero disables the model
	// (fetches wait as long as the link takes). Speculative prefetches are
	// never retried; they are preempted or evicted instead.
	FetchTimeout float64
	// FetchRetries bounds the retry attempts after the first timeout
	// (default 2 when FetchTimeout is set).
	FetchRetries int
	// FetchBackoff is the idle wait before the first retry, doubling each
	// attempt (default FetchTimeout/2).
	FetchBackoff float64

	// PreemptibleDMA lets a demand fetch preempt an in-flight speculative
	// prefetch occupying the same GPU's host link: the speculative transfer
	// is cancelled (slot freed, master reference released) and the demand
	// transfer starts immediately, instead of queueing FIFO behind
	// speculation — PR 2's open priority-DMA item.
	PreemptibleDMA bool
}

// Enabled reports whether the schedule injects anything at all. Nil-safe.
func (s *Schedule) Enabled() bool {
	if s == nil {
		return false
	}
	return len(s.Faults) > 0 || s.FetchTimeout > 0 || s.PreemptibleDMA
}

// WithDefaults returns the schedule with the retry model's derived defaults
// resolved.
func (s Schedule) WithDefaults() Schedule {
	if s.FetchTimeout > 0 {
		if s.FetchRetries == 0 {
			s.FetchRetries = 2
		}
		if s.FetchBackoff == 0 {
			s.FetchBackoff = s.FetchTimeout / 2
		}
	}
	return s
}

// Validate checks the schedule. Replica ids are validated against the
// serving fleet's slot count by the serve layer (the schedule cannot know
// it); everything else is checked here.
func (s *Schedule) Validate() error {
	if s == nil {
		return nil
	}
	// NaN passes every ordered comparison and +Inf every lower bound, so
	// each float is checked for finiteness explicitly: an infinite degrade
	// factor stalls a fetch forever.
	for i, f := range s.Faults {
		switch f.Kind {
		case FaultCrash:
			if !nonNegative(f.At) {
				return fmt.Errorf("chaos: fault %d: crash time At must be non-negative and finite, got %v", i, f.At)
			}
			if math.IsNaN(f.RecoverAfter) || math.IsInf(f.RecoverAfter, 0) {
				return fmt.Errorf("chaos: fault %d: crash RecoverAfter must be finite (negative for no recovery), got %v", i, f.RecoverAfter)
			}
			if f.Replica == 0 {
				// Replica 0 anchors drift scoring and churn pricing and is
				// never drained by the autoscaler either; crashing it would
				// leave the controller without a reference replica.
				return fmt.Errorf("chaos: fault %d: replica 0 is the controller anchor and cannot crash", i)
			}
			if f.Replica < 0 {
				return fmt.Errorf("chaos: fault %d: crash replica must be positive, got %d", i, f.Replica)
			}
		case FaultLinkDegrade:
			if !nonNegative(f.At) {
				return fmt.Errorf("chaos: fault %d: degrade start At must be non-negative and finite, got %v", i, f.At)
			}
			if !(f.Duration > 0) || math.IsInf(f.Duration, 1) {
				return fmt.Errorf("chaos: fault %d: degrade duration must be positive and finite, got %v", i, f.Duration)
			}
			if !(f.Factor >= 1) || math.IsInf(f.Factor, 1) {
				return fmt.Errorf("chaos: fault %d: degrade factor must be >= 1 and finite, got %v", i, f.Factor)
			}
		default:
			return fmt.Errorf("chaos: fault %d: unknown kind %d", i, int(f.Kind))
		}
	}
	switch {
	case !nonNegative(s.FetchTimeout):
		return fmt.Errorf("chaos: FetchTimeout must be non-negative and finite, got %v", s.FetchTimeout)
	case s.FetchRetries < 0:
		return fmt.Errorf("chaos: FetchRetries must be non-negative, got %d", s.FetchRetries)
	case !nonNegative(s.FetchBackoff):
		return fmt.Errorf("chaos: FetchBackoff must be non-negative and finite, got %v", s.FetchBackoff)
	case s.FetchTimeout == 0 && (s.FetchRetries > 0 || s.FetchBackoff > 0):
		return fmt.Errorf("chaos: FetchRetries/FetchBackoff set but FetchTimeout is 0 (retry model disabled); set FetchTimeout or drop them")
	}
	return nil
}

// nonNegative reports whether v is a non-negative finite number.
func nonNegative(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

// ValidateReplicas checks crash targets against the serving fleet's slot
// count (initial replicas plus any autoscaler headroom).
func (s *Schedule) ValidateReplicas(slots int) error {
	if s == nil {
		return nil
	}
	for i, f := range s.Faults {
		if f.Kind == FaultCrash && f.Replica >= slots {
			return fmt.Errorf("chaos: fault %d: crash replica %d out of range (fleet has %d slots)", i, f.Replica, slots)
		}
	}
	return nil
}

// LinkFactor is the bandwidth slowdown multiplying a fetch that starts at
// simulated time now: the product of every degrade window covering now, 1
// when none do. Nil-safe.
func (s *Schedule) LinkFactor(now float64) float64 {
	if s == nil {
		return 1
	}
	factor := 1.0
	for _, f := range s.Faults {
		if f.Kind == FaultLinkDegrade && now >= f.At && now < f.At+f.Duration {
			factor *= f.Factor
		}
	}
	return factor
}

// Degraded reports whether any degrade window exists, so integrations can
// skip installing the per-fetch LinkFactor hook entirely on schedules that
// never touch the link. Nil-safe.
func (s *Schedule) Degraded() bool {
	if s == nil {
		return false
	}
	for _, f := range s.Faults {
		if f.Kind == FaultLinkDegrade {
			return true
		}
	}
	return false
}

// Crashes returns the crash faults in schedule order.
func (s *Schedule) Crashes() []Fault {
	if s == nil {
		return nil
	}
	var out []Fault
	for _, f := range s.Faults {
		if f.Kind == FaultCrash {
			out = append(out, f)
		}
	}
	return out
}

// DegradeWindows counts the degraded-link windows.
func (s *Schedule) DegradeWindows() int {
	if s == nil {
		return 0
	}
	n := 0
	for _, f := range s.Faults {
		if f.Kind == FaultLinkDegrade {
			n++
		}
	}
	return n
}

// CrashOutcome records one crash fault's realized lifecycle for the report.
type CrashOutcome struct {
	// Replica and At echo the fault; Redispatched counts the queued plus
	// in-flight requests moved to surviving replicas at the crash instant.
	Replica      int
	At           float64
	Redispatched int
	// RecoveredAt is when the replica went live again (0 while dead; the
	// fault may never recover).
	RecoveredAt float64
}

// Report is the fault ledger a chaos-enabled serving run attaches to its
// report (ServeReport.Faults): what was injected and what it cost.
type Report struct {
	// Crashes is the per-crash ledger; Recoveries counts those that
	// completed recovery, and DowntimeSeconds sums their dead-to-live spans.
	Crashes         []CrashOutcome
	Recoveries      int
	DowntimeSeconds float64
	// Redispatched / LostIterations: requests moved off crashed replicas and
	// in-flight iterations aborted by crashes.
	Redispatched   int
	LostIterations int
	// LinkDegradeWindows counts the scheduled degraded-link windows.
	LinkDegradeWindows int
	// FetchRetries / FetchTimeouts / RetryExhausted are the fetch failure
	// model's counters (from expertmem): retry attempts issued, attempts
	// abandoned at the timeout, and fetches that exhausted their retries.
	FetchRetries   int
	FetchTimeouts  int
	RetryExhausted int
	// ShedRetryExhausted counts requests shed because their iteration
	// depended on a retry-exhausted fetch — the graceful-degradation path.
	ShedRetryExhausted int
	// Preemptions counts speculative transfers cancelled by demand fetches
	// under preemptible DMA.
	Preemptions int
}

// String renders a one-line summary.
func (r *Report) String() string {
	if r == nil {
		return "chaos: no faults"
	}
	return fmt.Sprintf("chaos: %d crashes (%d recovered, %.3fs down, %d redispatched, %d iterations lost), %d degrade windows, fetch %d retries/%d timeouts/%d exhausted (%d shed), %d preemptions",
		len(r.Crashes), r.Recoveries, r.DowntimeSeconds, r.Redispatched, r.LostIterations,
		r.LinkDegradeWindows, r.FetchRetries, r.FetchTimeouts, r.RetryExhausted, r.ShedRetryExhausted, r.Preemptions)
}
