package engine

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/expertmem"
	"repro/internal/topo"
)

// rankMetrics accumulates per-rank counters outside the simulated clock.
type rankMetrics struct {
	alltoallBytes  int
	allgatherBytes int
	dispatchSame   int
	dispatchNode   int
	dispatchCross  int
	droppedJobs    int
}

func newRankMetrics() *rankMetrics { return &rankMetrics{} }

// recordDispatch classifies a token dispatch from the rank to the owner GPU.
func (m *rankMetrics) recordDispatch(rk *cluster.Rank, owner int) {
	switch rk.Cluster.Topo.Classify(rk.ID, owner) {
	case topo.SameGPU:
		m.dispatchSame++
	case topo.SameNode:
		m.dispatchNode++
	default:
		m.dispatchCross++
	}
}

// Report is the outcome of an engine run.
type Report struct {
	Mode Mode
	// SimSeconds is the modeled wall-clock of the whole run (max rank
	// clock).
	SimSeconds float64
	// GeneratedTokens is the total number of decode steps completed across
	// requests.
	GeneratedTokens int
	// Throughput is GeneratedTokens / SimSeconds.
	Throughput float64
	// Breakdown maps operation categories (attention, expert, gating,
	// alltoall, allgather, prefill) to average per-rank simulated seconds.
	Breakdown map[string]float64
	// AlltoallBytes / AllgatherBytes are total wire bytes across ranks.
	AlltoallBytes  int
	AllgatherBytes int
	// Dispatches classifies every token->expert dispatch by locality.
	DispatchSameGPU   int
	DispatchSameNode  int
	DispatchCrossNode int
	// DroppedJobs counts (token, expert) dispatches dropped by capacity
	// enforcement (zero unless Config.CapacityFactor is set).
	DroppedJobs int
	// ExpertMem summarizes tiered expert-weight memory activity: hits,
	// misses, prefetches and stall time (nil unless Config.Memory is set).
	// The stall time also appears as the "expert-stall" breakdown category.
	ExpertMem *expertmem.Stats
	// Outputs[r] is request r's generated token ids — identical across
	// modes for identical seeds (the no-accuracy-change invariant). Nil for
	// a timing-only run (Config.TimingOnly).
	Outputs [][]int
}

// FracDispatchLocal returns the fraction of dispatches that stayed on the
// token's current GPU (paper Fig 7's bar metric).
func (r *Report) FracDispatchLocal() float64 {
	total := r.DispatchSameGPU + r.DispatchSameNode + r.DispatchCrossNode
	if total == 0 {
		return 0
	}
	return float64(r.DispatchSameGPU) / float64(total)
}

// FracDispatchIntraNode returns the fraction of dispatches that stayed
// within the token's current node (paper Fig 8's bar metric).
func (r *Report) FracDispatchIntraNode() float64 {
	total := r.DispatchSameGPU + r.DispatchSameNode + r.DispatchCrossNode
	if total == 0 {
		return 0
	}
	return float64(r.DispatchSameGPU+r.DispatchSameNode) / float64(total)
}

// CommSeconds returns the average per-rank time in communication
// categories.
func (r *Report) CommSeconds() float64 {
	return r.Breakdown["alltoall"] + r.Breakdown["allgather"]
}

// ComputeSeconds returns the average per-rank time in compute categories
// (decode only; prefill excluded to match the paper's per-iteration view).
func (r *Report) ComputeSeconds() float64 {
	return r.Breakdown["attention"] + r.Breakdown["expert"] + r.Breakdown["gating"]
}

// AlltoallShare returns the Alltoall fraction of the decode-time budget —
// the quantity in the paper's Fig 9 pies.
func (r *Report) AlltoallShare() float64 {
	total := r.ComputeSeconds() + r.CommSeconds()
	if total == 0 {
		return 0
	}
	return r.Breakdown["alltoall"] / total
}

// String renders a compact human-readable summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mode=%s simTime=%.6fs tokens=%d throughput=%.1f tok/s\n",
		r.Mode, r.SimSeconds, r.GeneratedTokens, r.Throughput)
	cats := make([]string, 0, len(r.Breakdown))
	for k := range r.Breakdown {
		cats = append(cats, k)
	}
	sort.Strings(cats)
	for _, k := range cats {
		fmt.Fprintf(&b, "  %-10s %.6fs\n", k, r.Breakdown[k])
	}
	fmt.Fprintf(&b, "  dispatch: %.1f%% same-gpu, %.1f%% intra-node\n",
		r.FracDispatchLocal()*100, r.FracDispatchIntraNode()*100)
	if r.ExpertMem != nil {
		fmt.Fprintf(&b, "  %s\n", r.ExpertMem)
	}
	return b.String()
}

// buildReport aggregates rank results into a Report.
func buildReport(cfg *Config, reqs []*request, ranks []*cluster.Rank, perRank []*rankMetrics, mem *expertmem.Manager) *Report {
	rep := &Report{
		Mode:      cfg.Mode,
		Breakdown: cluster.MergedBreakdown(ranks),
	}
	if mem != nil {
		st := mem.Stats()
		rep.ExpertMem = &st
	}
	rep.SimSeconds = cluster.MaxClock(ranks)
	for _, m := range perRank {
		rep.AlltoallBytes += m.alltoallBytes
		rep.AllgatherBytes += m.allgatherBytes
		rep.DispatchSameGPU += m.dispatchSame
		rep.DispatchSameNode += m.dispatchNode
		rep.DispatchCrossNode += m.dispatchCross
		rep.DroppedJobs += m.droppedJobs
	}
	for _, rq := range reqs {
		rep.GeneratedTokens += len(rq.output)
	}
	if !cfg.TimingOnly {
		rep.Outputs = make([][]int, len(reqs))
		for i, rq := range reqs {
			rep.Outputs[i] = rq.output
		}
	}
	if rep.SimSeconds > 0 {
		rep.Throughput = float64(rep.GeneratedTokens) / rep.SimSeconds
	}
	return rep
}
