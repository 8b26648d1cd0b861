package expertmem

import (
	"fmt"
	"strings"
)

// Policy governs HBM residency: which entry to evict when a slot is needed,
// whether warm-preloaded entries are pinned, and whether the affinity
// prefetcher should run on top of it.
//
// Better must impose a strict total order over eviction candidates (ties
// broken by (Layer, Expert)) and return the preferable victim of the two;
// either argument may be nil. The manager offers it a shard's held rows in
// eviction-rank order (popularity ascending, then layer and expert), and a
// total order makes the victim independent of that visiting order, which is
// what keeps the whole simulation deterministic. Only the affinity policy,
// whose first key is that same popularity, is not offered every row: the
// walk stops once it has passed the first eligible row's equal-popularity
// run, since no later row can beat it.
type Policy interface {
	Name() string
	// Better returns the preferable eviction victim of a and b.
	Better(a, b *Entry) *Entry
	// Pin reports whether warm-preloaded entries are immovable.
	Pin() bool
	// Prefetch reports whether the affinity prefetcher runs on top.
	Prefetch() bool
}

// tieBreak orders entries deterministically when a policy's metric ties.
func tieBreak(a, b *Entry) *Entry {
	if a.Layer != b.Layer {
		if a.Layer < b.Layer {
			return a
		}
		return b
	}
	if a.Expert <= b.Expert {
		return a
	}
	return b
}

// lruPolicy evicts the least recently used entry.
type lruPolicy struct{}

func (lruPolicy) Name() string   { return "lru" }
func (lruPolicy) Pin() bool      { return false }
func (lruPolicy) Prefetch() bool { return false }
func (lruPolicy) Better(a, b *Entry) *Entry {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if a.lastUse != b.lastUse {
		if a.lastUse < b.lastUse {
			return a
		}
		return b
	}
	return tieBreak(a, b)
}

// affinityPolicy is the headline policy: the inter-layer affinity matrix is
// read as a full memory oracle. Eviction drops the expert with the least
// affinity mass (the least expected future demand — LRU is pathological
// under decode's cyclic layer scan, popularity is not), and the prefetcher
// chases each routed expert's top-K successors so their fetches overlap the
// current layer's compute.
type affinityPolicy struct{}

func (affinityPolicy) Name() string   { return "affinity" }
func (affinityPolicy) Pin() bool      { return false }
func (affinityPolicy) Prefetch() bool { return true }
func (affinityPolicy) Better(a, b *Entry) *Entry {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if a.pop != b.pop {
		if a.pop < b.pop {
			return a
		}
		return b
	}
	if a.lastUse != b.lastUse {
		if a.lastUse < b.lastUse {
			return a
		}
		return b
	}
	return tieBreak(a, b)
}

// lfuPolicy evicts the least frequently used entry (LRU, then key, breaks
// ties).
type lfuPolicy struct{}

func (lfuPolicy) Name() string   { return "lfu" }
func (lfuPolicy) Pin() bool      { return false }
func (lfuPolicy) Prefetch() bool { return false }
func (lfuPolicy) Better(a, b *Entry) *Entry {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if a.uses != b.uses {
		if a.uses < b.uses {
			return a
		}
		return b
	}
	if a.lastUse != b.lastUse {
		if a.lastUse < b.lastUse {
			return a
		}
		return b
	}
	return tieBreak(a, b)
}

// pinPolicy is the static pin-by-popularity baseline: Warm fills every slot
// with the most popular assigned experts and pins them; everything else
// streams through HBM without caching.
type pinPolicy struct{}

func (pinPolicy) Name() string   { return "pin" }
func (pinPolicy) Pin() bool      { return true }
func (pinPolicy) Prefetch() bool { return false }
func (pinPolicy) Better(a, b *Entry) *Entry {
	// Pinned entries never reach Better; among any stragglers fall back to
	// LRU order so the policy still functions if warm missed a slot.
	return lruPolicy{}.Better(a, b)
}

// LRU returns the least-recently-used eviction policy.
func LRU() Policy { return lruPolicy{} }

// LFU returns the least-frequently-used eviction policy.
func LFU() Policy { return lfuPolicy{} }

// PinByPopularity returns the static pin-by-popularity policy.
func PinByPopularity() Policy { return pinPolicy{} }

// AffinityPrefetch returns the headline policy: affinity-mass eviction plus
// the affinity-guided prefetcher (Config.PrefetchK successors per routed
// expert).
func AffinityPrefetch() Policy { return affinityPolicy{} }

// PolicyNames lists the built-in policies in presentation order.
func PolicyNames() []string { return []string{"lru", "lfu", "pin", "affinity"} }

// ParsePolicy maps a CLI/API string to a built-in policy. The empty string
// selects affinity-prefetch, the headline default.
func ParsePolicy(name string) (Policy, error) {
	switch strings.ToLower(name) {
	case "", "affinity", "affinity-prefetch":
		return AffinityPrefetch(), nil
	case "lru":
		return LRU(), nil
	case "lfu":
		return LFU(), nil
	case "pin", "popularity", "pin-popular":
		return PinByPopularity(), nil
	default:
		return nil, fmt.Errorf("expertmem: unknown cache policy %q (known: %s)",
			name, strings.Join(PolicyNames(), ", "))
	}
}
