package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Registry is the metrics registry: named counters, gauges, and fixed-bucket
// histograms, snapshotable mid-run. Metric handles are cheap pointers meant
// to be resolved once at setup and cached by the instrumented component;
// every handle method is safe on a nil receiver (the observability-off fast
// path) and safe for concurrent use (solver portfolio workers update shared
// counters). The update methods (Add, Inc, Set, Observe) only test for nil
// and call an unexported locked update, so they inline, and a disabled
// metric costs its caller one compare.
type Registry struct {
	mu    sync.Mutex
	c     map[string]*Counter
	g     map[string]*Gauge
	h     map[string]*Histogram
	nowFn func() float64
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		c: map[string]*Counter{},
		g: map[string]*Gauge{},
		h: map[string]*Histogram{},
	}
}

// Now returns host wall-clock seconds — the one non-simulated time source in
// the package, used to measure placement-solver wall time. Tests inject a
// deterministic source with SetNow so exports stay byte-identical.
func (r *Registry) Now() float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	fn := r.nowFn
	r.mu.Unlock()
	if fn != nil {
		return fn()
	}
	return float64(time.Now().UnixNano()) / 1e9
}

// SetNow overrides the host clock (nil restores the real one). The function
// must be safe for concurrent use; solver goroutines call Now.
func (r *Registry) SetNow(fn func() float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.nowFn = fn
	r.mu.Unlock()
}

// Counter returns the named monotone counter, creating it on first use.
// A nil registry returns a nil handle, whose methods are all no-ops.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.c[name]
	if c == nil {
		c = &Counter{}
		r.c[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.g[name]
	if g == nil {
		g = &Gauge{}
		r.g[name] = g
	}
	return g
}

// Histogram returns the named fixed-bucket histogram, creating it with the
// given bucket upper bounds (ascending; an implicit +Inf bucket is added) on
// first use. Later calls ignore buckets and return the existing histogram.
func (r *Registry) Histogram(name string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.h[name]
	if h == nil {
		for i := 1; i < len(buckets); i++ {
			if buckets[i] <= buckets[i-1] {
				panic(fmt.Sprintf("obs: histogram %q buckets not ascending", name))
			}
		}
		h = &Histogram{
			bounds: append([]float64(nil), buckets...),
			counts: make([]uint64, len(buckets)+1),
		}
		r.h[name] = h
	}
	return h
}

// Counter is a monotone float total (integer-valued for pure counts,
// seconds for accumulated durations).
type Counter struct {
	mu sync.Mutex
	v  float64
}

// Add increments the counter; negative deltas panic (use a Gauge).
func (c *Counter) Add(v float64) {
	if c != nil {
		c.add(v)
	}
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.add(1)
	}
}

func (c *Counter) add(v float64) {
	if v < 0 {
		panic("obs: negative counter increment")
	}
	c.mu.Lock()
	c.v += v
	c.mu.Unlock()
}

// Value returns the current total.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

// Gauge is a last-write-wins scalar.
type Gauge struct {
	mu  sync.Mutex
	v   float64
	set bool
}

// Set records the value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.store(v)
	}
}

func (g *Gauge) store(v float64) {
	g.mu.Lock()
	g.v, g.set = v, true
	g.mu.Unlock()
}

// Value returns the last value set (zero if never set).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.v
}

// Histogram is a fixed-bucket histogram: counts per upper bound plus an
// implicit overflow bucket, with sum and count for mean queries.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64
	count  uint64
	sum    float64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h != nil {
		h.observe(v)
	}
}

func (h *Histogram) observe(v float64) {
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i]++
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// Count and Sum return the totals; Mean is Sum/Count (0 when empty).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of observed samples.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Mean returns the mean observed sample, 0 when empty.
func (h *Histogram) Mean() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// HistSnapshot is one histogram's frozen state. Bounds carries the
// configured upper bounds; Counts has one extra entry for the overflow
// bucket.
type HistSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}

// Mean returns the snapshot's mean sample, 0 when empty.
func (h HistSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Snapshot is a frozen, self-contained view of a registry, safe to retain
// and marshal after the run continues. encoding/json sorts map keys, so the
// serialized form is deterministic given deterministic metric values.
type Snapshot struct {
	Counters   map[string]float64      `json:"counters"`
	Gauges     map[string]float64      `json:"gauges"`
	Histograms map[string]HistSnapshot `json:"histograms"`
}

// Snapshot freezes the registry's current state. Nil registries return nil.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	cs := make(map[string]*Counter, len(r.c))
	gs := make(map[string]*Gauge, len(r.g))
	hs := make(map[string]*Histogram, len(r.h))
	for n, c := range r.c {
		cs[n] = c
	}
	for n, g := range r.g {
		gs[n] = g
	}
	for n, h := range r.h {
		hs[n] = h
	}
	r.mu.Unlock()

	s := &Snapshot{
		Counters:   make(map[string]float64, len(cs)),
		Gauges:     make(map[string]float64, len(gs)),
		Histograms: make(map[string]HistSnapshot, len(hs)),
	}
	for n, c := range cs {
		s.Counters[n] = c.Value()
	}
	for n, g := range gs {
		s.Gauges[n] = g.Value()
	}
	for n, h := range hs {
		h.mu.Lock()
		s.Histograms[n] = HistSnapshot{
			Bounds: append([]float64(nil), h.bounds...),
			Counts: append([]uint64(nil), h.counts...),
			Count:  h.count,
			Sum:    h.sum,
		}
		h.mu.Unlock()
	}
	return s
}

// MarshalIndentJSON renders the snapshot as stable, human-diffable JSON
// (keys sorted, trailing newline).
func (s *Snapshot) MarshalIndentJSON() ([]byte, error) {
	blob, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(blob, '\n'), nil
}

// SecondsBuckets is the standard latency-style bucket ladder used by the
// stack's duration histograms (fetches, stage times, solver wall): 1 µs to
// ~100 s in roughly 3x steps.
func SecondsBuckets() []float64 {
	return []float64{
		1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4,
		1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1,
		1, 3, 10, 30, 100,
	}
}
