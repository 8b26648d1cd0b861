// Package engine runs distributed GPT MoE inference on the simulated
// cluster, implementing the three expert-parallelism schemes the paper
// compares:
//
//   - Vanilla (Deepspeed-MoE style): data parallelism keeps every token's
//     context on its home GPU, so every MoE layer needs TWO Alltoalls —
//     dispatch to the expert's GPU, combine back home for the next
//     attention (paper Fig 3).
//   - Context-coherent (ExFlow without affinity): every GPU replicates all
//     requests' contexts, so a token attends in place wherever its last
//     expert lived; each layer needs ONE Alltoall, plus one Allgather per
//     iteration to share newly generated tokens (paper Section IV-A).
//   - ExFlow: context-coherent execution under an affinity-optimized expert
//     placement, so most dispatches stay on the current GPU or node.
//
// The engine performs the real (ComputeDim-width) forward math — embeddings,
// attention over KV caches, gating, expert FFNs, greedy decode — so that all
// three modes provably generate identical tokens (the paper's "no accuracy
// degradation"), while the simulated clock is charged with paper-scale
// compute costs (moe.CostModel) and topology-aware communication costs.
// Nothing the clock, the collectives or the counters see depends on that
// math, so a run that needs only timing (Config.TimingOnly) skips it.
package engine

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/expertmem"
	"repro/internal/moe"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/rng"
	"repro/internal/topo"
)

// Mode selects the parallelism scheme.
type Mode int

const (
	// Vanilla is Deepspeed-MoE-style expert parallelism: two Alltoalls per
	// MoE layer.
	Vanilla Mode = iota
	// ContextCoherent is ExFlow's one-Alltoall scheme without affinity
	// placement.
	ContextCoherent
	// ExFlow is ContextCoherent plus an affinity-optimized placement; the
	// dataflow is identical to ContextCoherent, the distinction exists for
	// labeling in reports.
	ExFlow
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Vanilla:
		return "vanilla"
	case ContextCoherent:
		return "context-coherent"
	case ExFlow:
		return "exflow"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// coherent reports whether the mode uses context-coherent dataflow.
func (m Mode) coherent() bool { return m != Vanilla }

// Config describes one inference run.
type Config struct {
	Model     *moe.Model
	Router    moe.Router
	Topo      *topo.Topology
	Placement *placement.Placement
	Mode      Mode
	Cost      moe.CostModel

	// RequestsPerGPU is the data-parallel batch per GPU (the paper's N is
	// tokens per GPU; with one in-flight token per request per iteration,
	// N = RequestsPerGPU).
	RequestsPerGPU int
	// CapacityFactor, when positive, enforces GShard-style expert capacity:
	// each expert accepts at most ceil(CapacityFactor * totalTokens * TopK /
	// Experts) tokens per layer per iteration; the rest are dropped
	// (residual passthrough). Zero disables capacity limits ("variable
	// token capacity", Section V-A).
	CapacityFactor float64
	// HierarchicalA2A routes token dispatch through node leaders
	// (collective.HierarchicalAlltoall) instead of the flat pairwise
	// schedule — fewer inter-node messages when chunks are latency-bound.
	HierarchicalA2A bool
	// PromptLen is the number of context tokens prefilled per request.
	PromptLen int
	// GenerateTokens is the number of decode iterations.
	GenerateTokens int
	// TokenID maps (request, iteration) to the global token identity used
	// for routing; nil uses a seed-mixed default.
	TokenID func(req, iter int) uint64
	// Seed feeds workload generation and the default TokenID.
	Seed uint64
	// Memory, when non-nil, places the run under tiered expert-weight
	// memory: each rank's HBM holds at most Memory.SlotsPerGPU expert
	// weights, a non-resident expert stalls the rank for its host-link
	// fetch ("expert-stall" in the breakdown), and — under the
	// affinity-prefetch policy — ranks exchange prefetch hints each layer
	// so predicted successors are fetched while the current layer computes.
	// The memory layer only affects the simulated clock, never the math, so
	// the identical-outputs invariant across modes is preserved.
	Memory *expertmem.Config
	// Trace and Metrics optionally receive the run's observability stream:
	// per-rank iteration spans and — under tiered expert memory — fetch,
	// prefetch, and eviction events plus the expertmem_* metric family
	// (Manager.Instrument). Rank goroutines emit concurrently; the tracer
	// and registry are race-safe, but cross-rank ring order is
	// scheduling-dependent — byte-deterministic exports are pinned only on
	// the single-threaded serve path. Nil disables with zero overhead.
	Trace   *obs.Tracer
	Metrics *obs.Registry
	// TimingOnly skips the forward math: no embeddings, KV projections,
	// attention, expert FFNs, combine mixture or decode. The simulated
	// clock, the collectives and every counter are unchanged, because the
	// cost model charges them from shapes and routing alone; the report's
	// Outputs is nil. The router must ignore the hidden state.
	TimingOnly bool
}

// validate panics on inconsistent configuration (programmer error).
func (c *Config) validate() {
	if c.Model == nil || c.Router == nil || c.Topo == nil || c.Placement == nil {
		panic("engine: incomplete config")
	}
	if c.Placement.GPUs != c.Topo.TotalGPUs() {
		panic(fmt.Sprintf("engine: placement for %d gpus, topology has %d", c.Placement.GPUs, c.Topo.TotalGPUs()))
	}
	if c.Placement.Layers != c.Model.Cfg.Layers || c.Placement.Experts != c.Model.Cfg.Experts {
		panic("engine: placement shape does not match model")
	}
	if c.Router.Experts() != c.Model.Cfg.Experts {
		panic("engine: router expert count does not match model")
	}
	if c.RequestsPerGPU <= 0 || c.GenerateTokens <= 0 || c.PromptLen < 0 {
		panic("engine: invalid workload")
	}
	// A timing-only run never computes hidden states, so its router must not
	// read them; the learned gate is the one router that does.
	if _, gated := c.Router.(*moe.WeightRouter); gated && c.TimingOnly {
		panic("engine: TimingOnly needs a router that ignores the hidden state")
	}
	if c.Memory != nil {
		if c.Memory.Layers != c.Model.Cfg.Layers || c.Memory.Experts != c.Model.Cfg.Experts ||
			c.Memory.GPUs != c.Topo.TotalGPUs() {
			panic("engine: memory config shape does not match model/topology")
		}
	}
}

// tokenID resolves the token identity function.
func (c *Config) tokenID(req, iter int) uint64 {
	if c.TokenID != nil {
		return c.TokenID(req, iter)
	}
	return rng.Mix64(c.Seed, 0x70CE, uint64(req), uint64(iter))
}

// token is a unit of in-flight work: one request's current decode position.
type token struct {
	req    int
	id     uint64
	home   int
	hidden []float32
	prev   int // expert at the previous layer (-1 before layer 0)
}

// expertJob is one (token, expert) dispatch: top-k gating produces k jobs
// per token per layer. The primary job (k = 0) carries the token itself in
// coherent modes; every job's expert output is routed to combineAt, where
// the weighted mixture and the residual are applied.
type expertJob struct {
	tok       *token
	kIdx      int
	expert    int
	weight    float64
	combineAt int
	hidden    []float32 // expert input (post-attention activation)
	out       []float32 // expert output, nil when dropped
	dropped   bool
}

// enforceCapacity marks jobs beyond each expert's capacity as dropped,
// smallest token ids kept first — a deterministic rule that every mode and
// every rank applies identically, so capacity never breaks the
// identical-outputs invariant across modes.
func enforceCapacity(jobs []*expertJob, capacity int, m *rankMetrics) {
	byExpert := map[int][]*expertJob{}
	for _, j := range jobs {
		byExpert[j.expert] = append(byExpert[j.expert], j)
	}
	for _, js := range byExpert {
		if len(js) <= capacity {
			continue
		}
		sort.Slice(js, func(a, b int) bool {
			if js[a].tok.id != js[b].tok.id {
				return js[a].tok.id < js[b].tok.id
			}
			return js[a].kIdx < js[b].kIdx
		})
		for _, j := range js[capacity:] {
			j.dropped = true
			m.droppedJobs++
		}
	}
}

// combineJobs applies the weighted expert mixture plus residual and norm
// for every token whose jobs have arrived at this rank, returning the
// tokens now resident here, sorted by request for determinism. It sorts
// jobs in place by (request, kIdx): a layer holds one token per request and
// a token's jobs have distinct kIdx, so the order is total, and each
// token's jobs form one run that applies in kIdx order. Dropped jobs
// contribute nothing: the token passes through on its residual. A
// timing-only run only gathers the tokens.
func combineJobs(cfg *Config, jobs []*expertJob) []*token {
	slices.SortFunc(jobs, func(a, b *expertJob) int {
		if c := cmp.Compare(a.tok.req, b.tok.req); c != 0 {
			return c
		}
		return cmp.Compare(a.kIdx, b.kIdx)
	})
	out := make([]*token, 0, len(jobs))
	for i := 0; i < len(jobs); {
		t := jobs[i].tok
		end := i + 1
		for end < len(jobs) && jobs[end].tok == t {
			end++
		}
		out = append(out, t)
		if !cfg.TimingOnly {
			for _, j := range jobs[i:end] {
				if j.dropped || j.out == nil {
					continue
				}
				w := float32(j.weight)
				for x := range t.hidden {
					t.hidden[x] += w * j.out[x]
				}
			}
			cfg.Model.LayerNorm(t.hidden)
		}
		i = end
	}
	return out
}

// request holds the per-request state shared (coherently) across ranks.
// In coherent modes this sharing models the replicated context; in vanilla
// mode only the home rank ever touches it.
type request struct {
	home   int
	caches []moe.KVCache // per layer; nil in a timing-only run
	prompt []int
	output []int
}

// lastToken is the request's latest token, the next decode step's input:
// its last generated token, else its last prompt token, else 0.
func (r *request) lastToken() int {
	if n := len(r.output); n > 0 {
		return r.output[n-1]
	}
	if n := len(r.prompt); n > 0 {
		return r.prompt[n-1]
	}
	return 0
}

// Run executes the configured inference and returns the measurement report.
func Run(cfg Config) *Report {
	cfg.validate()
	mdl := cfg.Model
	mcfg := mdl.Cfg
	cl := cluster.New(cfg.Topo)
	gpus := cl.Size()
	totalReqs := gpus * cfg.RequestsPerGPU

	// Build requests with deterministic prompts. Each request's caches,
	// prompt and output are windows of one slab per kind, each window
	// capped at its own length so no append can reach a neighbour's.
	reqs := make([]*request, totalReqs)
	slab := make([]request, totalReqs)
	var caches []moe.KVCache
	if !cfg.TimingOnly {
		caches = make([]moe.KVCache, totalReqs*mcfg.Layers)
	}
	prompts := make([]int, totalReqs*cfg.PromptLen)
	outputs := make([]int, totalReqs*cfg.GenerateTokens)
	wr := rng.New(rng.Mix64(cfg.Seed, 0x9E9))
	for r := range reqs {
		req := &slab[r]
		req.home = r / cfg.RequestsPerGPU
		if caches != nil {
			req.caches, caches = caches[:mcfg.Layers:mcfg.Layers], caches[mcfg.Layers:]
		}
		req.prompt, prompts = prompts[:cfg.PromptLen:cfg.PromptLen], prompts[cfg.PromptLen:]
		for i := range req.prompt {
			req.prompt[i] = wr.Intn(1 << 16)
		}
		req.output, outputs = outputs[:0:cfg.GenerateTokens], outputs[cfg.GenerateTokens:]
		reqs[r] = req
	}

	// The tiered expert-weight memory is sharded per GPU; every rank only
	// touches its own shard (demand accesses and received prefetch hints),
	// so the shared Manager needs no locking and stays deterministic.
	var mem *expertmem.Manager
	if cfg.Memory != nil {
		mem = expertmem.New(*cfg.Memory)
		mem.Warm(cfg.Placement.Assign)
		mem.Instrument(cfg.Trace, cfg.Metrics, 0)
	}

	perRank := make([]*rankMetrics, gpus)
	ranks := cl.Run(func(rk *cluster.Rank) {
		m := newRankMetrics()
		perRank[rk.ID] = m
		runRank(rk, &cfg, reqs, m, mem)
	})

	return buildReport(&cfg, reqs, ranks, perRank, mem)
}

// runRank is the SPMD body executed by every simulated GPU.
func runRank(rk *cluster.Rank, cfg *Config, reqs []*request, m *rankMetrics, mem *expertmem.Manager) {
	mdl := cfg.Model
	mcfg := mdl.Cfg
	gpus := rk.Cluster.Size()
	wire := mcfg.TokenWireBytes()
	// paging: expert weights may miss HBM and stall; hinting: additionally
	// exchange affinity-prefetch hints each layer. Both off when every
	// assigned expert fits (the 1x case costs nothing, not even collectives).
	paging := mem != nil && mem.Oversubscribed()
	hinting := paging && mem.Prefetching()

	// --- Prefill ---------------------------------------------------------
	// Each home rank computes its requests' prompt KV caches. The per-token
	// per-layer cost is a KV projection; the math is shared Go memory, but
	// only the home rank writes a request's caches here.
	for _, req := range reqs {
		if req.home != rk.ID || cfg.TimingOnly {
			continue
		}
		for _, tok := range req.prompt {
			h := mdl.Embed(tok)
			for l := 0; l < mcfg.Layers; l++ {
				k, v := mdl.Attention(l).Project(h)
				req.caches[l].Append(k, v)
			}
		}
	}
	prefillTime := float64(cfg.PromptLen) * float64(mcfg.Layers) * cfg.Cost.Time(0.5*moe.AttentionFlops(mcfg, cfg.PromptLen))
	rk.Advance("prefill", float64(cfg.RequestsPerGPU)*prefillTime)

	// Context-coherent modes start by allgathering all contexts (paper
	// Fig 4, "before inference"). Volume: each rank's prompts.
	if cfg.Mode.coherent() {
		payload := make([]byte, cfg.RequestsPerGPU*cfg.PromptLen) // placeholder content
		all := collective.Allgather(rk, payload, wire, "allgather")
		m.allgatherBytes += collective.TotalBytes(all, wire) - len(payload)*wire
	}
	rk.Barrier()

	// Per-rank iteration observability, resolved once: nil handles when no
	// registry/tracer is attached make every update a no-op.
	iterSeconds := cfg.Metrics.Histogram("engine_iteration_seconds", obs.SecondsBuckets())
	iterations := cfg.Metrics.Counter("engine_iterations_total")

	// Chunk tables and per-destination job counts, reused across layers.
	// No peer reads these once a collective returns: the flat Alltoall's
	// last arriver copies every chunk header into its receiver's table
	// while all ranks are still inside the call, and the hierarchical
	// schedule copies the headers into its messages. The chunks' backing
	// buffers and the jobs they point at do cross ranks, and a peer may
	// still read them after this rank has moved a collective ahead, so
	// those are allocated fresh for every collective (see carve).
	send := make([][]*expertJob, gpus)
	back := make([][]*expertJob, gpus)
	counts := make([]int, gpus)

	// --- Decode iterations ----------------------------------------------
	for iter := 0; iter < cfg.GenerateTokens; iter++ {
		iterStart := rk.Now()
		// Tokens resident on this rank at the current layer boundary: one
		// per home request, from one slab per iteration (peers hold them
		// through jobs until the iteration's barrier).
		toks := make([]token, cfg.RequestsPerGPU)
		resident := make([]*token, 0, len(toks))
		for r, req := range reqs {
			if req.home != rk.ID {
				continue
			}
			t := &toks[len(resident)]
			*t = token{req: r, id: cfg.tokenID(r, iter), home: rk.ID, prev: -1}
			if !cfg.TimingOnly {
				t.hidden = mdl.Embed(req.lastToken())
			}
			resident = append(resident, t)
		}

		topK := mcfg.TopK
		// GShard capacity per expert per layer (0 = unlimited).
		capacity := 0
		if cfg.CapacityFactor > 0 {
			totalTokens := gpus * cfg.RequestsPerGPU
			capacity = int(math.Ceil(cfg.CapacityFactor * float64(totalTokens) * float64(topK) / float64(mcfg.Experts)))
			if capacity < 1 {
				capacity = 1
			}
		}

		// Every token attends once per layer per iteration, so each cache
		// holds the prompt plus one position per earlier iteration.
		ctxLen := cfg.PromptLen + iter
		for layer := 0; layer < mcfg.Layers; layer++ {
			// 1. Attention in place for resident tokens.
			for _, t := range resident {
				if !cfg.TimingOnly {
					cache := &reqs[t.req].caches[layer]
					if cache.Len() != ctxLen {
						panic(fmt.Sprintf("engine: request %d layer %d caches %d positions, want %d", t.req, layer, cache.Len(), ctxLen))
					}
					addResidualNorm(mdl, t.hidden, mdl.Attention(layer).Forward(t.hidden, cache))
				}
				rk.Advance("attention", cfg.Cost.AttentionTime(mcfg, ctxLen+1))
			}
			// 2. Gating: top-k experts and mixture weights per token, one
			// job per (token, expert) in one slab, with counts tallying the
			// jobs bound for each owner.
			rk.Advance("gating", cfg.Cost.GatingTime(mcfg, len(resident)))
			jobs := make([]expertJob, 0, len(resident)*topK)
			clear(counts)
			// Affinity-prefetch hints for the next layer, keyed by the GPU
			// that owns the predicted successor expert.
			var hints [][]int
			var hinted map[[2]int]bool
			if hinting && layer+1 < mcfg.Layers {
				hints = make([][]int, gpus)
				hinted = make(map[[2]int]bool)
			}
			for _, t := range resident {
				experts, weights := moe.RouteWeights(cfg.Router, layer, t.id, t.prev, t.hidden)
				t.prev = experts[0]
				if hints != nil {
					for _, sc := range mem.Successors(layer, experts[0]) {
						owner := cfg.Placement.GPUOf(layer+1, sc)
						if k := [2]int{owner, sc}; !hinted[k] {
							hinted[k] = true
							hints[owner] = append(hints[owner], sc)
						}
					}
				}
				// The combine site: the primary expert's GPU in coherent
				// modes (the token continues there), the home GPU in
				// vanilla mode (the context lives there).
				combineAt := cfg.Placement.GPUOf(layer, experts[0])
				if !cfg.Mode.coherent() {
					combineAt = t.home
				}
				for k, e := range experts {
					owner := cfg.Placement.GPUOf(layer, e)
					m.recordDispatch(rk, owner)
					counts[owner]++
					jobs = append(jobs, expertJob{
						tok: t, kIdx: k, expert: e, weight: weights[k],
						combineAt: combineAt, hidden: t.hidden,
					})
				}
			}
			// Each owner's chunk lists its jobs in routing order.
			carve(send, counts)
			for i := range jobs {
				owner := cfg.Placement.GPUOf(layer, jobs[i].expert)
				send[owner] = append(send[owner], &jobs[i])
			}
			// 3. Alltoall #1: dispatch jobs to expert owners.
			recvJobs := dispatchAlltoall(rk, cfg, send, wire)
			m.alltoallBytes += outboundBytes(send, rk.ID, wire)
			working := appendChunks(nil, recvJobs, -1)
			// 3b. Exchange prefetch hints: each rank learns which of its
			// layer-(l+1) experts the affinity oracle predicts it will need.
			var hintRecv [][]int
			if hints != nil {
				hintRecv = collective.Alltoall(rk, hints, prefetchHintWire, "prefetch-hint")
			}
			// 4. Expert FFN on the owner, with capacity enforcement: each
			// expert serves at most `capacity` jobs, smallest token ids
			// first (a deterministic rule every mode agrees on); the rest
			// are dropped and pass through as residual-only.
			if capacity > 0 {
				enforceCapacity(working, capacity, m)
			}
			// 4a. Page in this layer's expert weights: each distinct expert
			// with surviving jobs must be HBM-resident before its FFN runs;
			// misses stall the rank for the (serialized) host-link fetch.
			// Demand accesses go first so same-instant speculation can never
			// delay them; then the layer-(l+1) prefetches start, overlapping
			// this layer's expert compute.
			if paging {
				for _, e := range distinctExperts(working) {
					rk.Advance("expert-stall", mem.Access(rk.ID, layer, e, rk.Now()))
				}
			}
			for _, chunk := range hintRecv {
				for _, e := range chunk {
					mem.Prefetch(rk.ID, layer+1, e, rk.Now())
				}
			}
			for _, job := range working {
				if job.dropped {
					continue
				}
				if !cfg.TimingOnly {
					job.out = mdl.Expert(layer, job.expert).Forward(job.hidden)
				}
				rk.Advance("expert", cfg.Cost.ExpertTime(mcfg))
			}
			// 5. Route outputs to their combine sites. Coherent top-1 skips
			// the collective entirely: every job is already at its combine
			// site (owner == combineAt).
			var combineInput []*expertJob
			if cfg.Mode.coherent() && topK == 1 {
				combineInput = working
			} else {
				clear(counts)
				for _, job := range working {
					counts[job.combineAt]++
				}
				carve(back, counts)
				for _, job := range working {
					back[job.combineAt] = append(back[job.combineAt], job)
				}
				// Jobs combining here stay local; the collective's own
				// chunk is an empty placeholder.
				local := back[rk.ID]
				back[rk.ID] = nil
				m.alltoallBytes += outboundBytes(back, rk.ID, wire)
				ret := dispatchAlltoall(rk, cfg, back, wire)
				combineInput = appendChunks(local, ret, rk.ID)
			}
			// 6. Weighted combine + residual + norm per token; the tokens
			// whose combine happened here are resident for the next layer
			// (coherent) or remain the home batch (vanilla).
			resident = combineJobs(cfg, combineInput)
		}

		// Decode next token wherever each token ended up; the LM head is
		// replicated (it is part of the dense backbone). A timing-only run
		// still sends one message per token but records token 0.
		type genMsg struct {
			req int
			tok int
		}
		gen := make([]genMsg, 0, len(resident))
		for _, t := range resident {
			g := genMsg{req: t.req}
			if !cfg.TimingOnly {
				g.tok = mdl.NextToken(t.hidden)
			}
			gen = append(gen, g)
		}
		if cfg.Mode.coherent() {
			// Allgather newly generated tokens so every rank's context stays
			// coherent (paper Fig 4, "upon iteration completion").
			all := collective.Allgather(rk, gen, wire, "allgather")
			m.allgatherBytes += collective.TotalBytes(all, wire) - len(gen)*wire
			// Rank 0 applies the appends once; shared memory models the
			// replicated context, so a single writer keeps it race-free.
			if rk.ID == 0 {
				for _, chunk := range all {
					for _, g := range chunk {
						reqs[g.req].output = append(reqs[g.req].output, g.tok)
					}
				}
			}
		} else {
			// Vanilla: tokens are home; the home rank records its own.
			for _, g := range gen {
				reqs[g.req].output = append(reqs[g.req].output, g.tok)
			}
		}
		// Span the rank's own work this iteration (pre-barrier, so the
		// duration excludes waiting for slower ranks).
		if cfg.Trace != nil {
			cfg.Trace.Emit(obs.Event{Kind: obs.EvIteration, Rep: 0, GPU: int32(rk.ID),
				Layer: -1, Expert: -1, T: iterStart, Dur: rk.Now() - iterStart, Aux: int64(iter)})
		}
		iterations.Inc()
		iterSeconds.Observe(rk.Now() - iterStart)
		rk.Barrier()
	}
}

// addResidualNorm applies x = LayerNorm(x + out) in place.
func addResidualNorm(mdl *moe.Model, x, out []float32) {
	for i := range x {
		x[i] += out[i]
	}
	mdl.LayerNorm(x)
}

// prefetchHintWire is the wire size of one prefetch hint (an expert index).
const prefetchHintWire = 4

// distinctExperts returns the sorted distinct experts among non-dropped
// jobs — the weights the rank must page in this layer.
func distinctExperts(jobs []*expertJob) []int {
	seen := map[int]bool{}
	var out []int
	for _, j := range jobs {
		if !j.dropped && !seen[j.expert] {
			seen[j.expert] = true
			out = append(out, j.expert)
		}
	}
	sort.Ints(out)
	return out
}

// carve points each chunks[d] at an empty window, with room for exactly
// counts[d] jobs, of one buffer allocated fresh for the collective that
// will carry the chunks. Appending each destination's jobs in order then
// fills its chunk without growing it, and no append can reach a
// neighbouring chunk. A destination with no jobs gets a nil chunk.
func carve(chunks [][]*expertJob, counts []int) {
	total := 0
	for _, n := range counts {
		total += n
	}
	buf := make([]*expertJob, total)
	for d, n := range counts {
		chunks[d] = nil
		if n > 0 {
			chunks[d], buf = buf[:0:n], buf[n:]
		}
	}
}

// appendChunks appends every chunk except chunks[skip] to dst, in source
// order, growing dst at most once.
func appendChunks(dst []*expertJob, chunks [][]*expertJob, skip int) []*expertJob {
	n := 0
	for d, c := range chunks {
		if d != skip {
			n += len(c)
		}
	}
	dst = slices.Grow(dst, n)
	for d, c := range chunks {
		if d != skip {
			dst = append(dst, c...)
		}
	}
	return dst
}

// dispatchAlltoall selects the flat or hierarchical token-dispatch
// schedule.
func dispatchAlltoall(rk *cluster.Rank, cfg *Config, send [][]*expertJob, wire int) [][]*expertJob {
	if cfg.HierarchicalA2A {
		return collective.HierarchicalAlltoall(rk, send, wire, "alltoall")
	}
	return collective.Alltoall(rk, send, wire, "alltoall")
}

// outboundBytes sums the wire size of chunks addressed to other ranks.
func outboundBytes[T any](send [][]T, self, elemBytes int) int {
	total := 0
	for d, chunk := range send {
		if d != self {
			total += len(chunk) * elemBytes
		}
	}
	return total
}
