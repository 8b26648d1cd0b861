package chaos

import (
	"math"
	"strings"
	"testing"
)

func TestScheduleEnabled(t *testing.T) {
	var nilSched *Schedule
	if nilSched.Enabled() {
		t.Error("nil schedule reported enabled")
	}
	if (&Schedule{}).Enabled() {
		t.Error("empty schedule reported enabled")
	}
	for _, s := range []*Schedule{
		{Faults: []Fault{Crash(1, 1, 0)}},
		{FetchTimeout: 0.01},
		{PreemptibleDMA: true},
	} {
		if !s.Enabled() {
			t.Errorf("schedule %+v reported disabled", s)
		}
	}
}

func TestScheduleValidate(t *testing.T) {
	var nilSched *Schedule
	if err := nilSched.Validate(); err != nil {
		t.Errorf("nil schedule rejected: %v", err)
	}
	good := &Schedule{
		Faults: []Fault{
			Crash(2, 1, 0.5),
			CrashForever(3, 2),
			DegradeLink(1, 2, 4),
		},
		FetchTimeout: 0.02, FetchRetries: 3, FetchBackoff: 0.01,
		PreemptibleDMA: true,
	}
	if err := good.Validate(); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
	bad := []struct {
		name string
		s    Schedule
		want string
	}{
		{"crash replica 0", Schedule{Faults: []Fault{Crash(1, 0, 0)}}, "anchor"},
		{"negative crash replica", Schedule{Faults: []Fault{Crash(1, -1, 0)}}, "positive"},
		{"negative crash time", Schedule{Faults: []Fault{Crash(-1, 1, 0)}}, "non-negative"},
		{"negative degrade start", Schedule{Faults: []Fault{DegradeLink(-1, 1, 2)}}, "non-negative"},
		{"zero degrade duration", Schedule{Faults: []Fault{DegradeLink(1, 0, 2)}}, "duration"},
		{"sub-1 degrade factor", Schedule{Faults: []Fault{DegradeLink(1, 1, 0.5)}}, "factor"},
		{"unknown kind", Schedule{Faults: []Fault{{Kind: FaultKind(99), At: 1}}}, "unknown"},
		{"negative timeout", Schedule{FetchTimeout: -1}, "FetchTimeout"},
		{"negative retries", Schedule{FetchTimeout: 1, FetchRetries: -1}, "FetchRetries"},
		{"negative backoff", Schedule{FetchTimeout: 1, FetchBackoff: -1}, "FetchBackoff"},
		{"retries without timeout", Schedule{FetchRetries: 2}, "retry model disabled"},
		// NaN passes every ordered comparison and +Inf every lower bound.
		{"NaN crash time", Schedule{Faults: []Fault{Crash(math.NaN(), 1, 0)}}, "At"},
		{"NaN crash recovery", Schedule{Faults: []Fault{Crash(1, 1, math.NaN())}}, "RecoverAfter"},
		{"NaN degrade start", Schedule{Faults: []Fault{DegradeLink(math.NaN(), 1, 2)}}, "At"},
		{"NaN degrade duration", Schedule{Faults: []Fault{DegradeLink(1, math.NaN(), 2)}}, "duration"},
		{"NaN degrade factor", Schedule{Faults: []Fault{DegradeLink(1, 1, math.NaN())}}, "factor"},
		{"infinite degrade factor", Schedule{Faults: []Fault{DegradeLink(0.5, 1, math.Inf(1))}}, "factor"},
		{"NaN timeout", Schedule{FetchTimeout: math.NaN()}, "FetchTimeout"},
		{"NaN backoff", Schedule{FetchTimeout: 1, FetchBackoff: math.NaN()}, "FetchBackoff"},
	}
	for _, tc := range bad {
		err := tc.s.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q missing %q", tc.name, err, tc.want)
		}
	}
}

func TestValidateReplicas(t *testing.T) {
	var nilSched *Schedule
	if err := nilSched.ValidateReplicas(2); err != nil {
		t.Errorf("nil schedule rejected: %v", err)
	}
	s := &Schedule{Faults: []Fault{Crash(1, 3, 0)}}
	if err := s.ValidateReplicas(4); err != nil {
		t.Errorf("in-range crash rejected: %v", err)
	}
	if err := s.ValidateReplicas(3); err == nil {
		t.Error("out-of-range crash replica accepted")
	}
}

func TestLinkFactorWindows(t *testing.T) {
	var nilSched *Schedule
	if got := nilSched.LinkFactor(1); got != 1 {
		t.Errorf("nil schedule factor = %v, want 1", got)
	}
	s := &Schedule{Faults: []Fault{
		DegradeLink(1, 2, 4), // [1, 3)
		DegradeLink(2, 2, 3), // [2, 4): overlaps -> factors multiply
		Crash(2.5, 1, 0),     // ignored by the link model
	}}
	cases := []struct {
		now, want float64
	}{
		{0.5, 1}, {1, 4}, {2.5, 12}, {3, 3}, {3.999, 3}, {4, 1},
	}
	for _, c := range cases {
		if got := s.LinkFactor(c.now); got != c.want {
			t.Errorf("LinkFactor(%v) = %v, want %v", c.now, got, c.want)
		}
	}
	if !s.Degraded() {
		t.Error("schedule with degrade windows reported un-degraded")
	}
	if (&Schedule{Faults: []Fault{Crash(1, 1, 0)}}).Degraded() {
		t.Error("crash-only schedule reported degraded")
	}
	if nilSched.Degraded() {
		t.Error("nil schedule reported degraded")
	}
}

func TestWithDefaultsResolvesRetryModel(t *testing.T) {
	s := (Schedule{FetchTimeout: 0.1}).WithDefaults()
	if s.FetchRetries != 2 {
		t.Errorf("default retries = %d, want 2", s.FetchRetries)
	}
	if s.FetchBackoff != 0.05 {
		t.Errorf("default backoff = %v, want 0.05", s.FetchBackoff)
	}
	// Explicit values survive; a disabled model stays untouched.
	s = (Schedule{FetchTimeout: 0.1, FetchRetries: 5, FetchBackoff: 0.2}).WithDefaults()
	if s.FetchRetries != 5 || s.FetchBackoff != 0.2 {
		t.Errorf("explicit retry model overwritten: %+v", s)
	}
	s = (Schedule{}).WithDefaults()
	if s.FetchRetries != 0 || s.FetchBackoff != 0 {
		t.Errorf("disabled model gained defaults: %+v", s)
	}
}

func TestScheduleAccessors(t *testing.T) {
	var nilSched *Schedule
	if nilSched.Crashes() != nil || nilSched.DegradeWindows() != 0 {
		t.Error("nil schedule accessors not empty")
	}
	s := &Schedule{Faults: []Fault{
		Crash(1, 1, 0.5),
		DegradeLink(2, 1, 2),
		CrashForever(3, 2),
	}}
	cr := s.Crashes()
	if len(cr) != 2 || cr[0].Replica != 1 || cr[1].Replica != 2 {
		t.Errorf("Crashes() = %+v", cr)
	}
	if !cr[0].Recovers() || cr[1].Recovers() {
		t.Errorf("Recovers wrong: %+v", cr)
	}
	if s.DegradeWindows() != 1 {
		t.Errorf("DegradeWindows = %d, want 1", s.DegradeWindows())
	}
	for k, want := range map[FaultKind]string{FaultCrash: "crash", FaultLinkDegrade: "link-degrade", FaultKind(9): "unknown"} {
		if k.String() != want {
			t.Errorf("FaultKind(%d).String() = %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestReportString(t *testing.T) {
	var nilRep *Report
	if !strings.Contains(nilRep.String(), "no faults") {
		t.Errorf("nil report string = %q", nilRep.String())
	}
	r := &Report{
		Crashes:            []CrashOutcome{{Replica: 1, At: 2, RecoveredAt: 3}},
		Recoveries:         1,
		DowntimeSeconds:    1,
		Redispatched:       4,
		LinkDegradeWindows: 1,
		RetryExhausted:     2,
		ShedRetryExhausted: 2,
		Preemptions:        7,
	}
	out := r.String()
	for _, want := range []string{"1 crashes", "1 recovered", "4 redispatched", "2 exhausted", "7 preemptions"} {
		if !strings.Contains(out, want) {
			t.Errorf("report string %q missing %q", out, want)
		}
	}
}
