package exflow

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"repro/internal/moe"
	"repro/internal/obs"
	"repro/internal/rng"
)

// compareSystem is the comparisons' test fixture: 8 GPUs, 8 layers and a
// domain-specialized checkpoint, the scale of CI's serving smoke runs.
func compareSystem() *System {
	cfg := moe.GPTM(32)
	cfg.Layers = 8
	return NewSystem(SystemOptions{Model: cfg, GPUs: 8, Seed: 7, DomainTilt: servingDomainTilt})
}

// validateSchema checks a summary's JSON against a checked-in schema.
func validateSchema(t *testing.T, schema string, summary any) {
	t.Helper()
	doc, err := json.Marshal(summary)
	if err != nil {
		t.Fatal(err)
	}
	s, err := os.ReadFile(schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateJSONSchema(s, doc); err != nil {
		t.Fatalf("%s: %v", schema, err)
	}
}

// TestSweepMemoryArmsInOrderAndReproducible: the sweep's rows come in
// (ratio, policy, placement) order with one run at 1x, its 1x gates hold,
// and an arm is exactly the Serve its documented options describe — the
// per-ratio seed and that ratio's probed rate — so a concurrent fan-out
// changes nothing. The host-DRAM tier is unbounded, as in every checked-in
// sweep.
func TestSweepMemoryArmsInOrderAndReproducible(t *testing.T) {
	t.Parallel()
	sys := compareSystem()
	const seed, provision = 7, 0.7
	base := ServeOptions{
		Replicas:     2,
		DecodeTokens: 32,
		Phases:       []ServePhase{{Name: "steady", Duration: 3, Arrival: "poisson"}},
		Seed:         seed,
	}
	cal, err := CalibrateServe(sys, base)
	if err != nil {
		t.Fatal(err)
	}
	base.Calibration = cal
	sw, err := SweepMemory(sys, base, provision, true)
	if err != nil {
		t.Fatal(err)
	}

	type cell struct {
		ratio             float64
		policy, placement string
	}
	var want []cell
	for _, ratio := range MemorySweepRatios {
		want = append(want, cell{ratio, "affinity", ""}, cell{ratio, "affinity", "memory-aware"})
		if ratio != 1 {
			want = append(want, cell{ratio, "lfu", ""}, cell{ratio, "lru", ""}, cell{ratio, "pin", ""})
		}
	}
	var got []cell
	for _, r := range sw.Summary.Runs {
		got = append(got, cell{r.Ratio, r.Policy, r.Placement})
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rows %v, want %v", got, want)
	}
	if len(sw.Reports) != len(sw.Summary.Runs) {
		t.Fatalf("%d reports for %d rows", len(sw.Reports), len(sw.Summary.Runs))
	}
	if !sw.Summary.Acceptance.OneXMatchesDisabled {
		t.Fatal("1x does not reproduce the memory-disabled baseline")
	}
	if !sw.Summary.MemAware.OneXBitIdentical {
		t.Fatal("1x memory-aware arm differs from crossing-only")
	}

	// The 2x lru arm, served directly from its documented options.
	const ratio, ratioIdx = 2, 2
	capTok, err := ProbeMemoryCapacity(sys, base, ratio, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	o := base
	o.Oversubscription, o.CachePolicy = ratio, "lru"
	o.Seed = rng.Mix64(seed, 0x0A53, ratioIdx)
	o.Phases = []ServePhase{{Name: "steady", Duration: 3, Arrival: "poisson", Rate: provision * capTok / 32}}
	direct, _, err := Serve(sys, o)
	if err != nil {
		t.Fatal(err)
	}
	i := -1
	for j, c := range got {
		if c == (cell{ratio, "lru", ""}) {
			i = j
		}
	}
	if r := sw.Summary.Runs[i]; r.OfferedRPS != o.Phases[0].Rate {
		t.Fatalf("2x lru offered %v req/s, want %v", r.OfferedRPS, o.Phases[0].Rate)
	}
	if !reflect.DeepEqual(sw.Reports[i], direct) {
		t.Fatalf("2x lru arm differs from a direct Serve: P95 %v vs %v, makespan %v vs %v",
			sw.Reports[i].Overall.P95, direct.Overall.P95, sw.Reports[i].Makespan, direct.Makespan)
	}
	validateSchema(t, "schema/expertmem.schema.json", sw.Summary)
}

// TestCompareDriftSinksRecordAdaptiveOnly: the drift comparison migrates,
// its static arm is the plain static Serve, and the observability sinks in
// base record the adaptive run alone.
func TestCompareDriftSinksRecordAdaptiveOnly(t *testing.T) {
	t.Parallel()
	sys := compareSystem()
	reg := obs.NewRegistry()
	base := ServeOptions{
		Replicas:     2,
		DecodeTokens: 32,
		LoadFrac:     0.97,
		Phases: []ServePhase{
			{Name: "warm", Duration: 4},
			{Name: "drift", Duration: 8, Dataset: ViralDataset()},
		},
		LatencyBucket: 12.0 / 80,
		Trace:         obs.NewTracer(obs.TracerOptions{Sample: 128}),
		Metrics:       reg,
	}
	cal, err := CalibrateServe(sys, base)
	if err != nil {
		t.Fatal(err)
	}
	base.Calibration = cal
	cmp, err := CompareDrift(sys, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Adaptive.Migrations) == 0 {
		t.Fatal("the adaptive arm never migrated under drift")
	}

	o := base
	o.Trace, o.Metrics = nil, nil
	static, _, err := Serve(sys, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cmp.Static, static) {
		t.Fatalf("static arm differs from a direct static Serve: P95 %v vs %v", cmp.Static.Overall.P95, static.Overall.P95)
	}
	if got, want := reg.Counter("serve_requests_finished_total").Value(), float64(cmp.Adaptive.Requests); got != want {
		t.Fatalf("registry counted %v finished requests, the adaptive run served %v", got, want)
	}
	validateSchema(t, "schema/serve.schema.json", cmp.Summary)
}
