package fleet

import "testing"

func TestAdmissionDefaultAdmitsEverything(t *testing.T) {
	s := Spec{}.WithDefaults()
	in := AdmissionInput{Queued: 1 << 20, Live: 1}
	if d := s.Admit(in); d != Admit {
		t.Errorf("inert spec admitted %v, want Admit regardless of load", d)
	}
}

func TestAdmissionQueuePolicy(t *testing.T) {
	s := Spec{Admission: AdmissionQueue, MaxQueuePerReplica: 4}.WithDefaults()
	cases := []struct {
		queued, live, defers int
		want                 AdmissionDecision
	}{
		{queued: 7, live: 2, want: Admit},             // under 4*2
		{queued: 8, live: 2, want: Defer},             // at the bound, first offenses defer
		{queued: 8, live: 2, defers: 1, want: Defer},  // still under MaxDefers (2)
		{queued: 8, live: 2, defers: 2, want: Shed},   // defers exhausted
		{queued: 100, live: 0, want: Admit},           // no live replicas: depth undefined, admit
		{queued: 100, live: 1, defers: 5, want: Shed}, // way over
	}
	for _, c := range cases {
		d := s.Admit(AdmissionInput{Queued: c.queued, Live: c.live, Defers: c.defers})
		if d != c.want {
			t.Errorf("queue admit(queued=%d live=%d defers=%d) = %v, want %v",
				c.queued, c.live, c.defers, d, c.want)
		}
	}
}

func TestAdmissionDecisionString(t *testing.T) {
	for d, want := range map[AdmissionDecision]string{
		Admit: "admit", Defer: "defer", Shed: "shed", AdmissionDecision(42): "unknown",
	} {
		if got := d.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", d, got, want)
		}
	}
}
