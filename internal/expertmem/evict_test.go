package expertmem

import (
	"math/bits"
	"testing"

	"repro/internal/rng"
	"repro/internal/topo"
)

// fullScanVictim is the eviction scan the rank-ordered walk replaced, kept
// as its reference: Better over every held table row, skipping pinned and
// in-flight rows.
func fullScanVictim(m *Manager, s *shard, now float64) *Entry {
	var victim *Entry
	for id := range s.table {
		e := &s.table[id]
		if !e.held || e.pinned || (!e.resident && e.readyAt > now) {
			continue
		}
		victim = m.policy.Better(victim, e)
	}
	return victim
}

// randomTieConfig is a 1-3 GPU universe of up to 5 layers x 21 experts (up
// to two bitset words per shard) whose affinity tensor holds sparse 0/1/2
// transition counts, so popularities are small integers that tie often and
// are often zero.
func randomTieConfig(r *rng.RNG, pol Policy) Config {
	layers, experts := 2+r.Intn(4), 2+r.Intn(20)
	aff := make([][][]float64, layers-1)
	for l := range aff {
		aff[l] = make([][]float64, experts)
		for from := range aff[l] {
			row := make([]float64, experts)
			for to := range row {
				if r.Float64() < 0.15 {
					row[to] = float64(1 + r.Intn(2))
				}
			}
			aff[l][from] = row
		}
	}
	return Config{
		Layers: layers, Experts: experts, GPUs: 1 + r.Intn(3),
		ExpertBytes: testBytes,
		SlotsPerGPU: 1, // every freeSlot evicts
		HostLink:    topo.LinkCost{Latency: testHostLat, Bandwidth: testHostBW},
		Policy:      pol,
		Affinity:    aff,
	}
}

// randomRow is a held row for id with small-integer times and use counts
// (so LRU, LFU and the affinity policy's second key tie often) and random
// resident, pinned and prefetched flags.
func randomRow(r *rng.RNG, m *Manager, id int) Entry {
	return Entry{
		Layer: id / m.cfg.Experts, Expert: id % m.cfg.Experts,
		readyAt:    float64(r.Intn(8)),
		lastUse:    float64(r.Intn(6)),
		uses:       r.Intn(4),
		pop:        m.popularity[id],
		resident:   r.Float64() < 0.6,
		pinned:     r.Float64() < 0.15,
		prefetched: r.Float64() < 0.3,
	}
}

// checkOccupancy asserts that every shard's bitset marks exactly its held
// rows by rank and that its count matches.
func checkOccupancy(t *testing.T, m *Manager) {
	t.Helper()
	for g, s := range m.shards {
		set := 0
		for _, w := range s.occ {
			set += bits.OnesCount64(w)
		}
		held := 0
		for id := range s.table {
			e := &s.table[id]
			r := m.rank[id]
			if e.held {
				held++
			}
			if on := s.occ[r>>6]>>(r&63)&1 == 1; on != e.held {
				t.Fatalf("gpu %d id %d (rank %d): bit %v, held %v", g, id, r, on, e.held)
			}
		}
		if set != held || s.used != held {
			t.Fatalf("gpu %d: %d bits set, %d rows held, used %d", g, set, held, s.used)
		}
	}
}

// TestEvictionWalkMatchesFullScan replays random shard states through the
// rank-ordered walk and the full-scan reference under all four policies,
// evicting until no row is eligible and inserting fresh rows between
// evictions. It also counts the cases that separate the walk from its
// plausible shortcuts, and requires each to occur: an affinity victim that
// is not the first eligible row in rank order (a walk that stops at the
// first eligible row picks wrong), an LRU/LFU/pin victim ranked past the
// first eligible row's equal-popularity run (a walk that stops early under
// those policies picks wrong), and an in-flight row that Better prefers
// to the victim (a walk that does not skip in-flight rows picks wrong).
func TestEvictionWalkMatchesFullScan(t *testing.T) {
	r := rng.New(0xE71C7)
	policies := []Policy{LRU(), LFU(), PinByPopularity(), AffinityPrefetch()}
	var checks, zeroPop, runPicks, pastRun, inFlightBetter int
	for trial := 0; trial < 3000; trial++ {
		pol := policies[trial%len(policies)]
		m := New(randomTieConfig(r, pol))
		n := m.cfg.Layers * m.cfg.Experts
		s := m.shards[r.Intn(m.cfg.GPUs)]
		density := r.Float64()
		for id := 0; id < n; id++ {
			if r.Float64() < density {
				s.insert(id, randomRow(r, m, id))
			}
		}
		checkOccupancy(t, m)
		for step := 0; step < 2*n; step++ {
			now := float64(r.Intn(9))
			want := fullScanVictim(m, s, now)
			if got := m.victim(s, now); got != want {
				t.Fatalf("trial %d step %d (%s, now %v): walk picked %+v, full scan %+v",
					trial, step, pol.Name(), now, got, want)
			}
			checks++
			if want == nil {
				break
			}
			// The first eligible row in rank order: least popularity, then id.
			var first *Entry
			for id := range s.table {
				e := &s.table[id]
				if !e.held || e.pinned || (!e.resident && e.readyAt > now) {
					continue
				}
				if first == nil || e.pop < first.pop {
					first = e
				}
			}
			if want.pop == 0 {
				zeroPop++
			}
			if pol.Name() == "affinity" && want != first {
				runPicks++
			}
			if pol.Name() != "affinity" && want.pop > first.pop {
				pastRun++
			}
			for id := range s.table {
				e := &s.table[id]
				if e.held && !e.pinned && !e.resident && e.readyAt > now && pol.Better(want, e) == e {
					inFlightBetter++
					break
				}
			}
			id := want.Layer*m.cfg.Experts + want.Expert
			if !m.freeSlot(s, now) || s.table[id].held {
				t.Fatalf("trial %d step %d: freeSlot did not evict the victim %d", trial, step, id)
			}
			if fresh := r.Intn(n); r.Float64() < 0.4 && s.lookup(fresh) == nil {
				s.insert(fresh, randomRow(r, m, fresh))
			}
			checkOccupancy(t, m)
		}
	}
	t.Logf("%d victims compared: %d zero-popularity, %d affinity picks inside the run, %d picks past the run, %d with a better in-flight row",
		checks, zeroPop, runPicks, pastRun, inFlightBetter)
	if zeroPop < 100 || runPicks < 100 || pastRun < 100 || inFlightBetter < 100 {
		t.Fatal("random states too tame to separate the walk from its shortcuts")
	}
}
