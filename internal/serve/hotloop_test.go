package serve

import (
	"container/heap"
	"runtime"
	"sort"
	"testing"

	"repro/internal/expertmem"
	"repro/internal/placement"
	"repro/internal/rng"
	"repro/internal/synth"
	"repro/internal/topo"
	"repro/internal/trace"
)

// boxedHeap drives eventHeap's ordering through container/heap, the
// interface-boxed heap the typed push/pop replaced: the reference for
// their pop order.
type boxedHeap []event

func (h boxedHeap) Len() int           { return len(h) }
func (h boxedHeap) Less(i, j int) bool { return eventHeap(h).less(i, j) }
func (h boxedHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *boxedHeap) Push(x any)        { *h = append(*h, x.(event)) }
func (h *boxedHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

func TestEventHeapMatchesContainerHeap(t *testing.T) {
	// Few distinct keys, so many events compare equal and differ only in
	// gen, which the order ignores: both heaps must still pop them in the
	// same sequence.
	r := rng.New(0xEE)
	var typed eventHeap
	var boxed boxedHeap
	randEvent := func(gen int) event {
		return event{t: float64(r.Intn(4)), kind: r.Intn(3), rep: r.Intn(2), seq: r.Intn(3), gen: gen}
	}
	for i := 0; i < 5000; i++ {
		if r.Intn(3) > 0 || len(typed) == 0 {
			e := randEvent(i)
			typed.push(e)
			heap.Push(&boxed, e)
			continue
		}
		if got, want := typed.pop(), heap.Pop(&boxed).(event); got != want {
			t.Fatalf("op %d: typed heap popped %+v, container/heap %+v", i, got, want)
		}
	}
	for len(typed) > 0 {
		if got, want := typed.pop(), heap.Pop(&boxed).(event); got != want {
			t.Fatalf("drain: typed heap popped %+v, container/heap %+v", got, want)
		}
	}
}

// heapLoop is the serve loop's event order before the arrival cursor, the
// reference for TestArrivalCursorMatchesHeap: every arrival pushed into one
// heap up front, after the chaos schedule's crashes, then popped together
// with whatever handle schedules. It returns the pop sequence.
func heapLoop(arrivals []request, crashes []event, handle func(event, *eventHeap)) []event {
	var h eventHeap
	for _, c := range crashes {
		h.push(c)
	}
	for i := range arrivals {
		h.push(event{t: arrivals[i].arrival, kind: evArrival, seq: i})
	}
	var out []event
	for len(h) > 0 {
		e := h.pop()
		out = append(out, e)
		handle(e, &h)
	}
	return out
}

// cursorLoop is the serve loop's event order: the same crashes in the heap,
// the arrivals behind server.nextEvent's cursor.
func cursorLoop(arrivals []request, crashes []event, handle func(event, *eventHeap)) []event {
	s := &server{arrivals: arrivals}
	for _, c := range crashes {
		s.events.push(c)
	}
	var out []event
	for {
		e, ok := s.nextEvent()
		if !ok {
			return out
		}
		out = append(out, e)
		handle(e, &s.events)
	}
}

// TestArrivalCursorMatchesHeap runs random sorted arrival streams through
// both loops and compares their full pop sequences. Arrival times tie often,
// also across phase boundaries. A fake handler answers each popped event by
// scheduling non-arrival events of every kind, the way the serve loop's
// handlers do (a fresh sequence number each), at the popped event's time, at
// upcoming arrival times and in between, on the replicas arrivals use, so
// every tie the order must break between an arrival and another event
// occurs. Crashes carry their fault index, as scheduleChaos pushes them.
func TestArrivalCursorMatchesHeap(t *testing.T) {
	r := rng.New(0xC0450)
	kinds := []int{evCrash, evScaleUp, evRecover, evStallEnd, evSolveEnd, evIterEnd}
	for trial := 0; trial < 200; trial++ {
		var arrivals []request
		at, phases := 0.0, 1+r.Intn(4)
		for phase := 0; phase < phases; phase++ {
			end := at + float64(1+r.Intn(3))
			for i := r.Intn(60); i > 0 && at <= end; i-- {
				arrivals = append(arrivals, request{arrival: at, phase: phase, seq: len(arrivals)})
				if r.Intn(3) > 0 { // otherwise the next arrival ties
					at += float64(r.Intn(3)) * 0.25
				}
			}
			at = end // the next phase's first arrival may tie this one's last
		}
		times := make([]float64, len(arrivals))
		for i := range arrivals {
			times[i] = arrivals[i].arrival
		}
		var crashes []event
		for i := 0; i < r.Intn(4); i++ {
			ct := float64(r.Intn(8)) * 0.25
			if len(times) > 0 && r.Intn(2) == 0 {
				ct = times[r.Intn(len(times))]
			}
			crashes = append(crashes, event{t: ct, kind: evCrash, seq: i})
		}
		seed := r.Uint64()
		// newHandler returns a handler with its own generator and sequence
		// counter, so each loop gets an identical one: the two schedule the
		// same events as long as they pop the same ones.
		newHandler := func() func(event, *eventHeap) {
			hr, seq, budget := rng.New(seed), 0, 3*len(arrivals)+20
			return func(e event, h *eventHeap) {
				for k := hr.Intn(3); k > 0 && budget > 0; k-- {
					budget--
					ev := event{t: e.t, kind: kinds[1+hr.Intn(len(kinds)-1)], rep: hr.Intn(3), gen: hr.Intn(2)}
					switch hr.Intn(3) {
					case 0: // an upcoming arrival's time
						if i := sort.SearchFloat64s(times, e.t); i < len(times) {
							ev.t = times[i+hr.Intn(len(times)-i)]
						}
					case 1:
						ev.t += float64(hr.Intn(4)) * 0.125
					}
					seq++
					ev.seq = seq
					h.push(ev)
				}
			}
		}
		want := heapLoop(arrivals, crashes, newHandler())
		got := cursorLoop(arrivals, crashes, newHandler())
		if len(got) != len(want) {
			t.Fatalf("trial %d: cursor loop ran %d events, heap loop %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d, event %d: cursor loop popped %+v, heap loop %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// BenchmarkEventHeap is one pop and one push on a 1,024-event heap, the
// serve loop's per-event queue traffic.
func BenchmarkEventHeap(b *testing.B) {
	r := rng.New(5)
	var h eventHeap
	for i := 0; i < 1024; i++ {
		h.push(event{t: r.Float64(), kind: evArrival, seq: i})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := h.pop()
		e.t += r.Float64()
		h.push(e)
	}
}

// BenchmarkLayerStallTimeline walks one decode iteration through a 1.5x
// affinity memory (K=4), cycling over eight batches of routed paths so
// residency keeps churning. It runs at two shapes: the golden fixture (8
// GPUs, 8 layers x 16 experts, 32 tokens) and the serving benchmark's (16
// GPUs, 16 layers x 32 experts, 42 tokens — its oversub mean batch).
func BenchmarkLayerStallTimeline(b *testing.B) {
	dep, opts, _ := goldenSystem()
	golden := opts.Calibration
	tp := topo.ForGPUs(16)
	k := synth.NewKernel(synth.KernelParams{Seed: 7, Layers: 16, Experts: 32, Strength: 0.85, DomainTilt: 8})
	pile := synth.Pile()
	tr := trace.Collect(synth.NewKernelRouter(k, pile, 1), k.Layers, trace.SequentialIDs(4000, pile.TokenID))
	for _, c := range []struct {
		name  string
		tp    *topo.Topology
		k     *synth.Kernel
		tr    *trace.Trace
		pl    *placement.Placement
		batch int
	}{
		{"golden-8x16", dep.Topo, dep.Kernel, golden.Trace, golden.Placement, 32},
		{"serve-16x32", tp, k, tr, placement.Staged(tr.AllTransitionCounts(), k.Layers, k.Experts, tp, 3), 42},
	} {
		b.Run(c.name, func(b *testing.B) {
			pl := c.pl
			mem := expertmem.New(expertmem.ConfigFor(c.tp, pl.Layers, pl.Experts, dep.ExpertBytes,
				1.5, expertmem.AffinityPrefetch(), 4, 0, c.tr.AllTransitionCounts()))
			mem.Warm(pl.Assign)
			const batches = 8
			paths := make([][]int, c.batch*batches)
			for i := range paths {
				id := pile.TokenID(uint64(i))
				paths[i] = c.k.Path(id, pile.TokenDomain(id))
			}
			compute := golden.Metrics.Cost.Time(c.batch, 0.2, 0.5)
			now := 0.0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := (i % batches) * c.batch
				now += compute + LayerStallTimeline(mem, pl, paths[off:off+c.batch], c.batch, now, compute)
			}
		})
	}
}

// benchWindow fills a default-capacity window on the serving benchmark's
// kernel shape (16 layers, 32 experts) and returns it with twice its
// capacity of further routed paths from dataset ds.
func benchWindow(ds *synth.DatasetProfile) (*TraceWindow, [][]int) {
	k := synth.NewKernel(synth.KernelParams{Seed: 7, Layers: 16, Experts: 32, Strength: 0.85, DomainTilt: 8})
	w := NewTraceWindow(k.Layers, k.Experts, DefaultWindow)
	paths := make([][]int, 3*DefaultWindow)
	for i := range paths {
		id := ds.TokenID(uint64(i))
		paths[i] = k.Path(id, ds.TokenDomain(id))
	}
	for _, p := range paths[:DefaultWindow] {
		w.Push(p)
	}
	return w, paths[DefaultWindow:]
}

// BenchmarkTraceWindowPush pushes one routed token path into a full
// window, evicting the oldest: the per-token window update of a decode
// iteration.
func BenchmarkTraceWindowPush(b *testing.B) {
	w, paths := benchWindow(synth.Pile())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Push(paths[i%len(paths)])
	}
}

// BenchmarkDriftCheck is one drift check of the controller: pool a full
// window's transition counts into the controller's reused scratch matrix
// and score them against a baseline pooled from another dataset.
func BenchmarkDriftCheck(b *testing.B) {
	base, _ := benchWindow(synth.Pile())
	w, _ := benchWindow(synth.Yelp())
	det := NewDetector(JS, 0.008, 1, base.Pooled())
	scratch := w.PooledInto(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Observe(w.PooledInto(scratch))
	}
}

func TestServeIterationAllocBudget(t *testing.T) {
	// Mallocs per decode iteration over a whole tiny run (set-up and report
	// amortized in). Routing used to allocate a slice, a generator and a
	// tilted row per token per layer, the stall walk a map per iteration,
	// every fetch a residency entry, and every event push an interface box:
	// 865 objects per iteration with memory off and 1078 at 1.5x before the
	// loop went allocation-free, 3.2 and 2.4 after. What remained was one
	// object per request, one queue reallocation per admission burst and the
	// window's rows while it filled; with the requests in one array, queues
	// that rewind and a flat window ring it reads about 0.04 and 0.07. The
	// budget of 1 fails on any allocation per request or per token.
	dep, base, _ := goldenSystem()
	rate := nearKneeRate(base, 0.9, 0.2, 0.5)
	for _, c := range []struct {
		name   string
		ratio  float64
		budget float64
	}{
		{"memory-off", 0, 1},
		{"1.5x", 1.5, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			opts := base
			opts.Oversubscription = c.ratio
			opts.Phases = []Phase{{Name: "steady", Duration: 4, Rate: rate, Dataset: synth.Pile()}}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			rep, err := Run(dep, opts)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			per := float64(after.Mallocs-before.Mallocs) / float64(rep.Iterations)
			t.Logf("%.3f allocations per iteration over %d iterations", per, rep.Iterations)
			if per > c.budget {
				t.Fatalf("%.1f allocations per decode iteration, budget %.0f", per, c.budget)
			}
		})
	}
}
