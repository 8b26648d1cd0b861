package serve

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/expertmem"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/synth"
)

// rowStallWalk is the per-row stall walk the set-granular layerStallCore
// replaced: the same demand pass, then one Prefetch call per surviving batch
// row per successor, repeats included. It is the reference layerStallCore
// must reproduce bit for bit, and it also returns how many distinct
// (layer, successor) hints its surviving rows asked for.
func rowStallWalk(mem *expertmem.Manager, pl *placement.Placement, paths [][]int, batch int, now, computeDur float64, checked bool) (float64, []int, int) {
	if !mem.Oversubscribed() {
		return 0, nil, 0
	}
	layers := pl.Layers
	perLayer := computeDur / float64(layers)
	prefetch := mem.Prefetching()
	t := now
	total := 0.0
	hints := 0
	gpuStall := make([]float64, pl.GPUs)
	failed := make([]bool, batch)
	var failedRows []int
	for j := 0; j < layers; j++ {
		clear(gpuStall)
		seen := make([]bool, pl.Experts)
		failedKeys := make([]bool, pl.Experts)
		stall := 0.0
		for i := 0; i < batch; i++ {
			if failed[i] {
				continue
			}
			e := paths[i][j]
			if seen[e] {
				continue
			}
			seen[e] = true
			gpu := pl.GPUOf(j, e)
			if checked {
				st, ok := mem.AccessChecked(gpu, j, e, t+gpuStall[gpu])
				gpuStall[gpu] += st
				if !ok {
					failedKeys[e] = true
				}
			} else {
				gpuStall[gpu] += mem.Access(gpu, j, e, t+gpuStall[gpu])
			}
			stall = max(stall, gpuStall[gpu])
		}
		for i := 0; i < batch; i++ {
			if !failed[i] && failedKeys[paths[i][j]] {
				failed[i] = true
				failedRows = append(failedRows, i)
			}
		}
		if prefetch && j+1 < layers {
			hinted := make([]bool, pl.Experts)
			for i := 0; i < batch; i++ {
				if failed[i] {
					continue
				}
				for _, sc := range mem.Successors(j, paths[i][j]) {
					if !hinted[sc] {
						hinted[sc] = true
						hints++
					}
					owner := pl.GPUOf(j+1, sc)
					mem.Prefetch(owner, j+1, sc, t+gpuStall[owner])
				}
			}
		}
		total += stall
		t += perLayer + stall
	}
	return total, failedRows, hints
}

// stallWalkSide is one side of the twin comparison: the managers (one per
// replica, sharing the side's host tier when there is one) and the registry
// they all count into.
type stallWalkSide struct {
	mems []*expertmem.Manager
	reg  *obs.Registry
}

// snapshotWithoutDrops is the side's registry snapshot minus the declined-hint
// counter, the one metric the two walks are allowed to disagree on.
func (s stallWalkSide) snapshotWithoutDrops() *obs.Snapshot {
	snap := s.reg.Snapshot()
	delete(snap.Counters, "expertmem_prefetch_drops_total")
	return snap
}

func (s stallWalkSide) stats() expertmem.Stats {
	var total expertmem.Stats
	for _, m := range s.mems {
		total.Add(m.Stats())
	}
	return total
}

func TestSetStallWalkMatchesRowWalk(t *testing.T) {
	dep, opts, drifted := goldenSystem()
	cal := opts.Calibration
	pl, k := cal.Placement, dep.Kernel
	counts := cal.Trace.AllTransitionCounts()

	// A churning token stream: in-distribution and drifted tokens
	// interleaved in blocks, so residency keeps turning over.
	const pool = 4096
	pile := synth.Pile()
	paths := make([][]int, pool)
	for i := range paths {
		ds := pile
		if (i/256)%2 == 1 {
			ds = drifted
		}
		id := ds.TokenID(uint64(i))
		paths[i] = k.Path(id, ds.TokenDomain(id))
	}
	compute := cal.Metrics.Cost.Time(32, 0.2, 0.5)
	const iters = 240

	// Each arm's setup adjusts one side's config and returns the hook that
	// arms each of that side's managers before Warm; reps managers share a
	// side (and its host tier, if any), taking the batches in turn.
	type arm struct {
		name    string
		checked bool
		reps    int
		setup   func(cfg *expertmem.Config) func(m *expertmem.Manager, rep int)
	}
	arms := []arm{
		{name: "plain", reps: 1, setup: func(*expertmem.Config) func(*expertmem.Manager, int) {
			return func(*expertmem.Manager, int) {}
		}},
		{name: "chaos", checked: true, reps: 1, setup: func(cfg *expertmem.Config) func(*expertmem.Manager, int) {
			fetch := cfg.HostLink.Time(cfg.ExpertBytes)
			// The link runs 3x slow in one of every three windows of a few
			// iterations: a demand fetch that starts there overruns the
			// timeout, and one whose retry lands there too fails.
			window := 4 * compute
			scale := func(now float64) float64 {
				if int(now/window)%3 == 0 {
					return 3
				}
				return 1
			}
			return func(m *expertmem.Manager, _ int) {
				m.SetLinkScale(scale)
				m.SetFetchRetry(2*fetch, 1, fetch)
				m.SetPreemptibleDMA(true)
			}
		}},
		{name: "hostcache", reps: 2, setup: func(cfg *expertmem.Config) func(*expertmem.Manager, int) {
			cfg.HostSlots = cfg.Layers * cfg.Experts / 2
			oracle := expertmem.New(*cfg)
			cache := fleet.NewHostCache(cfg.Layers, cfg.Experts, cfg.HostSlots,
				cfg.NVMeLink.Time(cfg.ExpertBytes), oracle.Popularity)
			return func(m *expertmem.Manager, rep int) { m.SetHostTier(cache, rep) }
		}},
	}
	for _, prefetchK := range []int{1, 4} {
		for _, ratio := range []float64{1.5, 2} {
			for _, a := range arms {
				t.Run(fmt.Sprintf("%s-%.1fx-k%d", a.name, ratio, prefetchK), func(t *testing.T) {
					newSide := func() stallWalkSide {
						cfg := expertmem.ConfigFor(dep.Topo, pl.Layers, pl.Experts, dep.ExpertBytes,
							ratio, expertmem.AffinityPrefetch(), prefetchK, 0, counts)
						hook := a.setup(&cfg)
						side := stallWalkSide{reg: obs.NewRegistry()}
						for r := 0; r < a.reps; r++ {
							m := expertmem.New(cfg)
							hook(m, r)
							m.Warm(pl.Assign)
							m.Instrument(nil, side.reg, r)
							side.mems = append(side.mems, m)
						}
						return side
					}
					ref, set := newSide(), newSide()
					var sc stallScratch
					now, hints, failures := 0.0, 0, 0
					for i := 0; i < iters; i++ {
						batch := 8 + (i*7)%25
						off := (i * 37) % (pool - batch)
						rows := paths[off : off+batch]
						r := i % a.reps
						wantStall, wantFailed, h := rowStallWalk(ref.mems[r], pl, rows, batch, now, compute, a.checked)
						gotStall, gotFailed := layerStallCore(&sc, set.mems[r], pl, rows, batch, now, compute, nil, r, a.checked)
						if gotStall != wantStall || !slices.Equal(gotFailed, wantFailed) {
							t.Fatalf("iteration %d: set walk stalled %v and failed rows %v, row walk %v and %v",
								i, gotStall, gotFailed, wantStall, wantFailed)
						}
						hints += h
						failures += len(wantFailed)
						now += compute + wantStall
					}
					if got, want := set.stats(), ref.stats(); got != want {
						t.Fatalf("Stats diverged:\nset %+v\nrow %+v", got, want)
					}
					if got, want := set.snapshotWithoutDrops(), ref.snapshotWithoutDrops(); !reflect.DeepEqual(got, want) {
						t.Fatalf("registry diverged:\nset %+v\nrow %+v", got, want)
					}
					st := set.stats()
					if st.Prefetches == 0 || st.Evictions == 0 {
						t.Fatalf("fixture too tame to compare walks: %+v", st)
					}
					if a.checked && (failures == 0 || st.Preemptions == 0) {
						t.Fatalf("chaos arm shed %d rows and preempted %d transfers; want both", failures, st.Preemptions)
					}
					if a.reps > 1 && st.NVMeFetches == 0 {
						t.Fatal("shared host tier sent no fetch to NVMe")
					}
					// The set walk calls Prefetch once per distinct hint:
					// each one is either issued or declined.
					c := set.reg.Snapshot().Counters
					if got := int(c["expertmem_prefetches_total"] + c["expertmem_prefetch_drops_total"]); got != hints {
						t.Fatalf("set walk made %d prefetch calls, want one per distinct (layer, successor) hint: %d", got, hints)
					}
				})
			}
		}
	}
}
