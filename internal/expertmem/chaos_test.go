package expertmem

import (
	"math"
	"testing"
)

// Chaos fetch-model tests: degraded link, stall-timeout retry, preemptible
// DMA, and the charged re-warm. The hooks mirror chaos.Schedule but are
// plain closures here so the package stays self-contained.

func TestLinkScaleStretchesFetch(t *testing.T) {
	m := New(testConfig(1, LRU()))
	m.SetLinkScale(func(now float64) float64 {
		if now < 1 {
			return 3
		}
		return 1
	})
	if st := m.Access(0, 0, 0, 0); !almost(st, 3*testFetch) {
		t.Fatalf("degraded miss stall %v, want %v", st, 3*testFetch)
	}
	// Outside the window the link is back to full speed.
	if st := m.Access(0, 0, 1, 2); !almost(st, testFetch) {
		t.Fatalf("post-window miss stall %v, want %v", st, testFetch)
	}
}

func TestFetchRetrySucceedsAfterDegradeWindow(t *testing.T) {
	const (
		windowEnd = 0.006
		timeout   = 0.005
		backoff   = 0.002
	)
	m := New(testConfig(1, LRU()))
	m.SetLinkScale(func(now float64) float64 {
		if now < windowEnd {
			return 10
		}
		return 1
	})
	m.SetFetchRetry(timeout, 2, backoff)
	// At t=0 the transfer would take 10*testFetch > timeout: abandoned at the
	// timeout, retried at timeout+backoff = 0.007 — past the window, where it
	// fits under the timeout and succeeds.
	stall, ok := m.AccessChecked(0, 0, 0, 0)
	if !ok {
		t.Fatal("retry past the degrade window should succeed")
	}
	want := timeout + backoff + testFetch
	if !almost(stall, want) {
		t.Fatalf("retried stall %v, want %v", stall, want)
	}
	st := m.Stats()
	if st.FetchTimeouts != 1 || st.FetchRetries != 1 || st.FetchFailures != 0 {
		t.Fatalf("retry stats %+v", st)
	}
	// The fetched expert is installed: the next access is a hit.
	if stall := m.Access(0, 0, 0, 1); stall != 0 {
		t.Fatalf("post-retry access stalled %v", stall)
	}
}

func TestFetchRetryExhaustionFails(t *testing.T) {
	const (
		timeout = 0.005
		backoff = 0.001
	)
	m := New(testConfig(1, LRU()))
	m.SetLinkScale(func(float64) float64 { return 100 }) // never recovers
	m.SetFetchRetry(timeout, 2, backoff)
	stall, ok := m.AccessChecked(0, 0, 0, 0)
	if ok {
		t.Fatal("permanently degraded fetch should exhaust retries")
	}
	// Attempts at 0, timeout+backoff, 2*timeout+3*backoff; give-up one
	// timeout after the last.
	want := 3*timeout + 3*backoff
	if !almost(stall, want) {
		t.Fatalf("give-up stall %v, want %v", stall, want)
	}
	st := m.Stats()
	if st.FetchTimeouts != 3 || st.FetchRetries != 2 || st.FetchFailures != 1 {
		t.Fatalf("exhaustion stats %+v", st)
	}
	// Nothing was installed: the expert is not resident and no slot is held.
	if m.Resident(0, 0, 0) {
		t.Fatal("failed fetch left the expert resident")
	}
	if m.shards[0].used != 0 {
		t.Fatalf("failed fetch holds %d slots", m.shards[0].used)
	}
}

func TestPreemptibleDMAYieldsLink(t *testing.T) {
	run := func(preempt bool) (float64, Stats) {
		m := New(testConfig(2, LRU()))
		m.SetPreemptibleDMA(preempt)
		m.Prefetch(0, 0, 0, 0) // speculative transfer occupies the link
		stall := m.Access(0, 0, 1, 0)
		return stall, m.Stats()
	}
	fifo, fst := run(false)
	if !almost(fifo, 2*testFetch) {
		t.Fatalf("FIFO demand stall %v, want %v", fifo, 2*testFetch)
	}
	if fst.Preemptions != 0 {
		t.Fatalf("FIFO run preempted: %+v", fst)
	}
	pre, pst := run(true)
	if !almost(pre, testFetch) {
		t.Fatalf("preemptive demand stall %v, want %v", pre, testFetch)
	}
	if pst.Preemptions != 1 {
		t.Fatalf("preemption stats %+v", pst)
	}
	if pre >= fifo {
		t.Fatalf("preemption did not beat FIFO: %v >= %v", pre, fifo)
	}
}

func TestPreemptSkipsDemandOwnedTransfer(t *testing.T) {
	m := New(testConfig(2, LRU()))
	m.SetPreemptibleDMA(true)
	m.Prefetch(0, 0, 0, 0)
	// A demand access adopts the speculative transfer (late hit): it is now
	// demand-owned and must not be preempted by the next miss.
	if st := m.Access(0, 0, 0, 0); !almost(st, testFetch) {
		t.Fatalf("late-hit stall %v", st)
	}
	if st := m.Access(0, 0, 1, 0); !almost(st, 2*testFetch) {
		t.Fatalf("second demand stall %v, want queued %v", st, 2*testFetch)
	}
	if st := m.Stats(); st.Preemptions != 0 {
		t.Fatalf("demand-owned transfer preempted: %+v", st)
	}
}

func TestWarmChargedPaysMasterHops(t *testing.T) {
	cfg := testConfig(6, LRU())
	cfg.HostSlots = 4 // 8 of 12 master copies fall through to NVMe
	m := New(cfg)
	extra := m.WarmCharged(contiguousAssign(), 0)
	nvmeTime := cfg.NVMeLink.Time(cfg.ExpertBytes)
	if extra <= 0 {
		t.Fatal("charged re-warm with NVMe-resident masters cost nothing")
	}
	// The surcharge is a whole number of NVMe hops (the slowest GPU's).
	hops := extra / nvmeTime
	if math.Abs(hops-math.Round(hops)) > 1e-9 || hops > 6 {
		t.Fatalf("surcharge %v is not a plausible hop multiple (%v hops)", extra, hops)
	}
	// Warm state is identical to the uncharged path: everything preloaded is
	// resident on its owner.
	if !m.Resident(0, 0, 0) || !m.Resident(1, 0, 2) {
		t.Fatal("charged warm did not preload")
	}
}
