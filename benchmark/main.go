// Command benchmark is the repository benchmark. It serves one workload
// through the public exflow API on a fixed 16-GPU fixture and prints, as the
// last line of standard output, one JSON object with the correctness verdict
// and the metrics: the end-to-end metrics, or with --trace 1 the per-layer
// metrics of a traced rerun. Run it from the repository root:
//
//	bash benchmark/run.sh --workload steady --seed 1 --seconds 15 --trace 0
//
// (run.sh builds this package with its caches inside the checkout). It
// exits 1 when a correctness gate fails, and 2 when it cannot run at all.
// README.md has the metric glossary and why each workload exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+workloadNames())
		seed    = flag.Uint64("seed", 1, "workload seed: arrival times and token streams")
		seconds = flag.Float64("seconds", 15, "host seconds to keep repeating the main run's sub-runs (each runs at least once)")
		traced  = flag.Int("trace", 0, "1 reruns the workload traced and reports the per-layer metrics")
		out     = flag.String("out", ".bench_build/traces", "directory for the traced run's exports")
	)
	flag.Parse()
	w, err := workloadByName(*name)
	if err == nil && *traced != 0 && *traced != 1 {
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *traced)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	// The serve loop is single-threaded. One scheduler thread runs the
	// garbage collector inline instead of on a second core whose load other
	// tenants set, which cut the run-to-run spread of the host timings about
	// fourfold on a shared 2-core host, and keeps them comparable across
	// hosts.
	runtime.GOMAXPROCS(1)

	cfg := config{fx: benchFixture, w: w, seed: *seed, seconds: *seconds, traced: *traced == 1, out: *out, root: "."}
	prov, _ := json.Marshal(map[string]any{"provenance": newProvenance(cfg)})
	fmt.Println(string(prov))
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	line, err := res.line(cfg.traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "benchmark: median host-speed probe %.4f s (reference %.4f s)\n", res.probe, refProbeSeconds)
	for _, f := range res.failures {
		fmt.Fprintln(os.Stderr, "benchmark: gate failed:", f)
	}
	fmt.Println(string(line))
	if len(res.failures) > 0 {
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
