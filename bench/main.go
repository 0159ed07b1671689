// Command bench is the repository's performance benchmark: four seeded
// workloads, each a fixed tape of operations replayed lap after lap
// against one engine shape, reported as clean (per-slot minimum)
// latencies with a per-layer breakdown from a separate traced pass. See
// README.md in this directory for the method and the noise study behind
// it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	var cfg config
	var trace, selfcheck int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: words-select, clustered-sharded, durable-serve or durable-ingest")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&cfg.seconds, "seconds", designSeconds, "length of the measured replay; lap counts scale with it")
	flag.IntVar(&trace, "trace", 0, "1 adds the traced pass and the layer probes and reports the per-layer metrics")
	flag.StringVar(&cfg.dir, "dir", ".bench_build/tmp", "directory for durable stores and the trace file")
	flag.IntVar(&selfcheck, "selfcheck", 0, "run every workload in this many fresh processes and compare the spread of each end-to-end metric with its bound")
	flag.Parse()
	cfg.trace = trace != 0
	cfg.scale = 1

	if selfcheck > 0 {
		os.Exit(runSelfcheck(cfg, selfcheck))
	}
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	os.Exit(emit(os.Stdout, res))
}

// emit prints the header, then the result as the last line, and returns
// the exit code: non-zero when any operation failed.
func emit(out io.Writer, res *result) int {
	enc := json.NewEncoder(out)
	enc.Encode(map[string]any{"header": res.header}) //nolint:errcheck // stdout
	metrics := res.endToEnd
	if res.traceFile != "" {
		// A traced run replays fewer laps; its end-to-end numbers are for
		// reading beside the layers, never for comparing.
		enc.Encode(map[string]any{"end_to_end_short_run": res.endToEnd, "trace_file": res.traceFile}) //nolint:errcheck
		metrics = res.perLayer
	}
	for _, s := range res.tally.samples {
		fmt.Fprintln(os.Stderr, "bench: failed:", s)
	}
	enc.Encode(map[string]any{ //nolint:errcheck
		"correct":   res.tally.failed == 0,
		"attempted": res.tally.attempted,
		"failed":    res.tally.failed,
		"metrics":   metrics,
	})
	if res.tally.failed > 0 {
		return 1
	}
	return 0
}
