package expertmem

import (
	"math"
	"strings"
	"testing"

	"repro/internal/topo"
)

const (
	testBytes   = 1 << 20
	testHostLat = 1e-3
	testHostBW  = float64(1 << 30)
	testNVMeLat = 10e-3
	testNVMeBW  = float64(1 << 28)
)

// testFetch is the host-DRAM fetch time under the test link.
var testFetch = testHostLat + testBytes/testHostBW

// testConfig is a 3-layer, 4-expert, 2-GPU universe (6 experts per GPU when
// balanced) with a hand-written affinity tensor whose rows have a clear
// top successor.
func testConfig(slots int, pol Policy) Config {
	aff := make([][][]float64, 2)
	for l := range aff {
		aff[l] = make([][]float64, 4)
		for from := range aff[l] {
			row := make([]float64, 4)
			// Successor (from+1)%4 dominates, (from+2)%4 second.
			row[(from+1)%4] = 10
			row[(from+2)%4] = 3
			row[from] = 1
			aff[l][from] = row
		}
	}
	return Config{
		Layers: 3, Experts: 4, GPUs: 2,
		ExpertBytes: testBytes,
		SlotsPerGPU: slots,
		HostLink:    topo.LinkCost{Latency: testHostLat, Bandwidth: testHostBW},
		NVMeLink:    topo.LinkCost{Latency: testNVMeLat, Bandwidth: testNVMeBW},
		Policy:      pol,
		PrefetchK:   2,
		Affinity:    aff,
	}
}

// contiguousAssign assigns experts 0-1 of every layer to GPU 0, 2-3 to GPU 1.
func contiguousAssign() [][]int {
	assign := make([][]int, 3)
	for l := range assign {
		assign[l] = []int{0, 0, 1, 1}
	}
	return assign
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestSlotsFor(t *testing.T) {
	cases := []struct {
		oversub float64
		want    int
	}{{0, 96}, {1, 96}, {1.5, 64}, {2, 48}, {4, 24}, {1000, 1}}
	for _, c := range cases {
		if got := SlotsFor(16, 48, 8, c.oversub); got != c.want {
			t.Fatalf("SlotsFor(oversub=%v) = %d, want %d", c.oversub, got, c.want)
		}
	}
	if got := SlotsForBytes(80e9, 16<<20); got != 4768 {
		t.Fatalf("SlotsForBytes = %d", got)
	}
}

func TestUnconstrainedIsFree(t *testing.T) {
	m := New(testConfig(6, LRU())) // 6 slots = everything fits
	m.Warm(contiguousAssign())
	if m.Oversubscribed() {
		t.Fatal("6 slots for 6 experts/GPU must not be oversubscribed")
	}
	for l := 0; l < 3; l++ {
		for e := 0; e < 4; e++ {
			g := contiguousAssign()[l][e]
			if st := m.Access(g, l, e, 1.0); st != 0 {
				t.Fatalf("unconstrained access stalled %v", st)
			}
		}
	}
	st := m.Stats()
	if st.Misses != 0 || st.StallSeconds != 0 || st.Hits != st.Accesses {
		t.Fatalf("unconstrained stats %+v", st)
	}
}

func TestMissStallAndLRUEviction(t *testing.T) {
	cfg := testConfig(1, LRU())
	m := New(cfg)
	// No warm: first access to each expert is a cold miss.
	if st := m.Access(0, 0, 0, 0); !almost(st, testFetch) {
		t.Fatalf("cold miss stall %v, want %v", st, testFetch)
	}
	// Same expert again: resident hit.
	if st := m.Access(0, 0, 0, 1); st != 0 {
		t.Fatalf("resident access stalled %v", st)
	}
	// A different expert evicts the only slot...
	if st := m.Access(0, 0, 1, 2); !almost(st, testFetch) {
		t.Fatalf("second miss stall %v", st)
	}
	// ...so the first misses again (thrash).
	if st := m.Access(0, 0, 0, 3); !almost(st, testFetch) {
		t.Fatalf("thrash miss stall %v", st)
	}
	st := m.Stats()
	if st.Misses != 3 || st.Hits != 1 || st.Evictions != 2 {
		t.Fatalf("stats %+v", st)
	}
	if !almost(st.StallSeconds, 3*testFetch) {
		t.Fatalf("stall total %v", st.StallSeconds)
	}
}

func TestHostLinkSerializes(t *testing.T) {
	m := New(testConfig(2, LRU()))
	// Two cold misses at the same instant: the second queues behind the
	// first on the GPU's host link.
	st1 := m.Access(0, 0, 0, 0)
	st2 := m.Access(0, 0, 1, 0)
	if !almost(st1, testFetch) {
		t.Fatalf("first stall %v", st1)
	}
	if !almost(st2, 2*testFetch) {
		t.Fatalf("queued stall %v, want %v", st2, 2*testFetch)
	}
}

func TestLFUKeepsHotExpert(t *testing.T) {
	m := New(testConfig(2, LFU()))
	m.Access(0, 0, 0, 0) // expert 0: 3 uses
	m.Access(0, 0, 0, 1)
	m.Access(0, 0, 0, 2)
	m.Access(0, 0, 1, 3) // expert 1: 1 use
	m.Access(0, 0, 2, 4) // needs a slot: must evict expert 1, not 0
	if !m.Resident(0, 0, 0) {
		t.Fatal("LFU evicted the hot expert")
	}
	if m.Resident(0, 0, 1) {
		t.Fatal("LFU kept the cold expert")
	}
}

func TestPinByPopularityStreamsMisses(t *testing.T) {
	cfg := testConfig(1, PinByPopularity())
	m := New(cfg)
	m.Warm(contiguousAssign())
	// GPU 0 holds experts 0 and 1 across 3 layers; one slot is pinned with
	// the most popular. Accesses to anything else must bypass (stream).
	pre := m.Stats()
	if pre.Accesses != 0 {
		t.Fatalf("warm should not count accesses: %+v", pre)
	}
	var pinnedKey *Entry
	for id := range m.shards[0].table {
		if e := m.shards[0].lookup(id); e != nil {
			pinnedKey = e
		}
	}
	if pinnedKey == nil || !pinnedKey.pinned {
		t.Fatal("warm did not pin")
	}
	// Access a non-pinned expert twice: both stream (full stall, no caching).
	other := 1
	if pinnedKey.Expert == 1 && pinnedKey.Layer == 0 {
		other = 0
	}
	st1 := m.Access(0, 0, other, 0)
	st2 := m.Access(0, 0, other, 10)
	if !almost(st1, testFetch) || !almost(st2, testFetch) {
		t.Fatalf("streamed stalls %v %v", st1, st2)
	}
	st := m.Stats()
	if st.Bypasses != 2 || st.Evictions != 0 {
		t.Fatalf("pin stats %+v", st)
	}
	// The pinned expert itself is a free hit.
	if s := m.Access(0, pinnedKey.Layer, pinnedKey.Expert, 20); s != 0 {
		t.Fatalf("pinned access stalled %v", s)
	}
}

func TestPrefetchOverlapsAndLateHit(t *testing.T) {
	m := New(testConfig(2, AffinityPrefetch()))
	// Prefetch at t=0; the fetch completes at testFetch.
	m.Prefetch(0, 1, 2, 0)
	// Demand access well after completion: free hit, credited to prefetch.
	if st := m.Access(0, 1, 2, 2*testFetch); st != 0 {
		t.Fatalf("prefetched access stalled %v", st)
	}
	// Prefetch another and demand it halfway through the transfer: the
	// stall is only the residual.
	m.Prefetch(0, 1, 3, 1.0)
	st := m.Access(0, 1, 3, 1.0+testFetch/2)
	if !almost(st, testFetch/2) {
		t.Fatalf("late-hit stall %v, want %v", st, testFetch/2)
	}
	stats := m.Stats()
	if stats.Prefetches != 2 || stats.PrefetchHits != 2 || stats.LateHits != 1 || stats.Misses != 0 {
		t.Fatalf("prefetch stats %+v", stats)
	}
}

func TestWastedPrefetchCounted(t *testing.T) {
	m := New(testConfig(1, AffinityPrefetch()))
	m.Prefetch(0, 0, 0, 0)
	// Demand a different expert after the prefetch landed: the untouched
	// prefetched entry is the only victim.
	m.Access(0, 0, 1, 2*testFetch)
	st := m.Stats()
	if st.WastedPrefetches != 1 {
		t.Fatalf("wasted prefetch not counted: %+v", st)
	}
	// In-flight transfers must never be evicted: a prefetch mid-flight
	// blocks caching of a new miss (bypass) rather than being cancelled.
	m2 := New(testConfig(1, AffinityPrefetch()))
	m2.Prefetch(0, 0, 0, 0)
	m2.Access(0, 0, 1, testFetch/10)
	if s := m2.Stats(); s.Bypasses != 1 || s.Evictions != 0 {
		t.Fatalf("in-flight eviction: %+v", s)
	}
}

func TestInFlightDemandFetchNotEvicted(t *testing.T) {
	// Two same-instant misses on a single slot: the second must NOT evict
	// the first (its transfer is still on the link) — it bypasses instead.
	m := New(testConfig(1, AffinityPrefetch()))
	m.Access(0, 0, 0, 0)
	m.Access(0, 0, 1, 0)
	st := m.Stats()
	if st.Evictions != 0 || st.Bypasses != 1 {
		t.Fatalf("in-flight demand fetch evicted: %+v", st)
	}
	// After the transfer lands the first expert is a hit.
	if s := m.Access(0, 0, 0, 3*testFetch); s != 0 {
		t.Fatalf("landed fetch stalled %v", s)
	}
}

func TestSuccessorsRankedByAffinity(t *testing.T) {
	m := New(testConfig(2, AffinityPrefetch()))
	got := m.Successors(0, 1)
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("successors of (0,1) = %v, want [2 3]", got)
	}
	if s := m.Successors(2, 0); s != nil {
		t.Fatalf("last layer has successors %v", s)
	}
	if !m.Prefetching() {
		t.Fatal("affinity policy should prefetch")
	}
	if New(testConfig(2, LRU())).Prefetching() {
		t.Fatal("lru policy should not prefetch")
	}
}

func TestNVMeTierPricesColdExperts(t *testing.T) {
	cfg := testConfig(1, LRU())
	cfg.HostSlots = 11 // exactly one master copy falls to NVMe
	m := New(cfg)
	nvme := testNVMeLat + testBytes/testNVMeBW
	cold, hot := -1.0, -1.0
	for l := 0; l < 3; l++ {
		for e := 0; e < 4; e++ {
			ft := m.FetchSeconds(l, e)
			if almost(ft, testFetch+nvme) {
				cold = ft
			} else if almost(ft, testFetch) {
				hot = ft
			} else {
				t.Fatalf("unexpected fetch time %v", ft)
			}
		}
	}
	if cold < 0 || hot < 0 {
		t.Fatal("expected both DRAM and NVMe master copies")
	}
	n := 0
	for i := range m.hostOnNVMe {
		if m.hostOnNVMe[i] {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("%d experts on NVMe, want 1", n)
	}
}

func TestRelocateChurnsResidency(t *testing.T) {
	m := New(testConfig(3, LRU()))
	m.Warm(contiguousAssign())
	if !m.Resident(0, 0, 0) {
		t.Fatal("warm missed (0,0)")
	}
	if churn := m.Relocate(0, 0, 0, 1, 5.0); !churn {
		t.Fatal("relocating a resident expert must report churn")
	}
	if m.Resident(0, 0, 0) {
		t.Fatal("source residency survived relocation")
	}
	if !m.Resident(1, 0, 0) {
		t.Fatal("target did not adopt the moved expert")
	}
	// Relocating a non-resident expert churns nothing.
	if churn := m.Relocate(2, 3, 0, 1, 6.0); churn {
		t.Fatal("non-resident relocation reported churn")
	}
}

func TestWarmPreloadsMostPopular(t *testing.T) {
	// Popularity of layer-1 experts is their incoming mass: expert
	// (from+1)%4 rows put mass 10 on each; all equal here, so check layer 0
	// vs capacity only: with 3 slots per GPU and 6 assigned, exactly 3
	// resident.
	m := New(testConfig(3, LRU()))
	m.Warm(contiguousAssign())
	for g := 0; g < 2; g++ {
		if m.shards[g].used != 3 {
			t.Fatalf("gpu %d warm used %d slots", g, m.shards[g].used)
		}
	}
}

func TestHostSlotsZeroKeepsEverythingInDRAM(t *testing.T) {
	// HostSlots == 0 means the DRAM working set is unbounded: no master
	// copy may fall to NVMe and every fetch pays the host link only.
	cfg := testConfig(1, LRU())
	cfg.HostSlots = 0
	m := New(cfg)
	if m.hostOnNVMe != nil {
		t.Fatalf("HostSlots=0 built an NVMe split: %v", m.hostOnNVMe)
	}
	for l := 0; l < 3; l++ {
		for e := 0; e < 4; e++ {
			if ft := m.FetchSeconds(l, e); !almost(ft, testFetch) {
				t.Fatalf("fetch(%d,%d) = %v, want host-only %v", l, e, ft, testFetch)
			}
		}
	}
	// A budget covering every expert behaves identically to zero.
	cfg.HostSlots = 12 // == Layers*Experts
	if m2 := New(cfg); m2.hostOnNVMe != nil {
		t.Fatal("all-fitting HostSlots built an NVMe split")
	}
}

func TestPrefetchKAtLeastExperts(t *testing.T) {
	// PrefetchK >= experts must clamp to the positive-mass successors, not
	// pad or panic; every successor list stays within the expert universe
	// and in decreasing-mass order.
	cfg := testConfig(2, AffinityPrefetch())
	cfg.PrefetchK = 100 // far beyond the 4-expert universe
	m := New(cfg)
	for l := 0; l < 2; l++ {
		for from := 0; from < 4; from++ {
			succ := m.Successors(l, from)
			// The test affinity rows have exactly 3 positive entries.
			if len(succ) != 3 {
				t.Fatalf("successors(%d,%d) = %v, want the 3 positive-mass entries", l, from, succ)
			}
			for i, e := range succ {
				if e < 0 || e >= 4 {
					t.Fatalf("successor out of range: %v", succ)
				}
				if i > 0 && m.cfg.Affinity[l][from][succ[i-1]] < m.cfg.Affinity[l][from][e] {
					t.Fatalf("successors not mass-ordered: %v", succ)
				}
			}
		}
	}
}

func TestSingleSlotThrash(t *testing.T) {
	// One HBM slot under a cyclic two-expert scan is the worst case for any
	// recency/frequency policy: every access misses, every miss evicts, and
	// the accounting must stay exact (no bypasses — a slot is always
	// reclaimable once the previous transfer landed).
	m := New(testConfig(1, LRU()))
	accesses := 0
	now := 0.0
	for round := 0; round < 10; round++ {
		for _, e := range []int{0, 1} {
			now += 2 * testFetch // let each transfer land before the next access
			if st := m.Access(0, 0, e, now); !almost(st, testFetch) {
				t.Fatalf("round %d expert %d: stall %v, want full fetch %v", round, e, st, testFetch)
			}
			accesses++
		}
	}
	st := m.Stats()
	if st.Accesses != accesses || st.Hits != 0 || st.Misses != accesses {
		t.Fatalf("thrash stats %+v, want %d pure misses", st, accesses)
	}
	if st.Evictions != accesses-1 || st.Bypasses != 0 {
		t.Fatalf("thrash stats %+v: want %d evictions, 0 bypasses", st, accesses-1)
	}
	if !almost(st.StallSeconds, float64(accesses)*testFetch) {
		t.Fatalf("thrash stall %v, want %v", st.StallSeconds, float64(accesses)*testFetch)
	}
}

func TestParsePolicyRejectionMessage(t *testing.T) {
	// The error must name the offending input and list every known policy —
	// it surfaces verbatim through CLI flags and ServeOptions.Validate.
	_, err := ParsePolicy("clockpro")
	if err == nil {
		t.Fatal("unknown policy accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"clockpro"`) {
		t.Fatalf("error %q does not quote the unknown name", msg)
	}
	for _, name := range PolicyNames() {
		if !strings.Contains(msg, name) {
			t.Fatalf("error %q does not list known policy %q", msg, name)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	for _, name := range PolicyNames() {
		p, err := ParsePolicy(name)
		if err != nil || p.Name() != name {
			t.Fatalf("ParsePolicy(%q) = %v, %v", name, p, err)
		}
	}
	if p, err := ParsePolicy(""); err != nil || p.Name() != "affinity" {
		t.Fatalf("default policy = %v, %v", p, err)
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

func TestResidentUnconstrained(t *testing.T) {
	m := New(testConfig(6, LRU())) // 6 slots = everything fits
	if !m.Resident(0, 2, 3) || !m.Resident(1, 0, 0) {
		t.Fatal("unconstrained memory must report everything resident")
	}
}
