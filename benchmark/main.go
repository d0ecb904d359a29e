// Command benchmark is this repository's benchmark: six named workloads
// driven through the public functions of each layer, end-to-end metrics
// from an untraced run, per-layer metrics from a separate traced run, and
// a check of every output. BENCHMARK.json at the repository root declares
// the workloads and metrics; README.md here says why each was chosen.
//
//	bash benchmark/run.sh --workload svc_open --seed 3 --seconds 12 --trace 0
//	bash benchmark/run.sh --compare parent/*.json -- change/*.json
//	bash benchmark/run.sh --sweep
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The process exits non-zero when
// any verification failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

// result is the object printed as the last line of a run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is what --out saves for --compare: the result with the inputs
// and the machine it came from.
type record struct {
	Workload string      `json:"workload"`
	Seed     uint64      `json:"seed"`
	Seconds  float64     `json:"seconds"`
	Trace    bool        `json:"trace"`
	Env      environment `json:"env"`
	Result   result      `json:"result"`
}

func main() {
	workload := flag.String("workload", "all", "workload to run: one of "+strings.Join(workloadNames, ", ")+", or all")
	seed := flag.Uint64("seed", 1, "seed of every spec list and arrival schedule")
	seconds := flag.Float64("seconds", 12, "length of the measured phase; rounds of fixed work repeat until it has passed")
	trace := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	outDir := flag.String("out-dir", "benchmark/out", "directory the traced run writes its spans to")
	out := flag.String("out", "", "also save the result, with its inputs and environment, to this file (one workload only)")
	compare := flag.Bool("compare", false, "compare saved results: --compare <parent.json...> -- <change.json...>")
	sweep := flag.Bool("sweep", false, "open-loop rate sweep over the fine mix, 1 pool x 2 slots against 2 pools x 1 slot (not gated)")
	flag.Parse()

	switch {
	case *compare:
		if err := runCompare(os.Stdout, flag.Args()); err != nil {
			fatal(err)
		}
		return
	case *sweep:
		if err := runSweep(os.Stdout, *seed); err != nil {
			fatal(err)
		}
		return
	}
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected arguments %v", flag.Args()))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace is 0 or 1, got %d", *trace))
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	if *out != "" && len(names) != 1 {
		fatal(fmt.Errorf("--out saves one workload's result; name it with --workload"))
	}

	env := readEnvironment()
	fmt.Printf("benchmark: nproc=%d GOMAXPROCS=%d %s cpu=%q commit=%s seed=%d seconds=%g trace=%d\n",
		env.NProc, env.GOMAXPROCS, env.Go, env.CPU, env.Commit, *seed, *seconds, *trace)
	ok := true
	for _, name := range names {
		rr, err := runWorkload(name, options{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir, log: os.Stdout})
		if err != nil {
			fatal(err)
		}
		res := report(name, rr)
		if *out != "" {
			rec := record{Workload: name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Env: env, Result: res}
			if err := saveJSON(*out, rec); err != nil {
				fatal(err)
			}
		}
		ok = ok && rr.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// report prints a workload's metrics by name with their units, then the
// contract's result line.
func report(name string, rr runResult) result {
	fmt.Printf("workload %s: %d rounds, %d operations, %d failed\n", name, rr.Rounds, rr.Attempted, rr.Failed)
	for _, p := range rr.Problems {
		fmt.Printf("  FAILED %s\n", p)
	}
	res := result{Correct: rr.Correct, Attempted: max(rr.Attempted, 1), Failed: rr.Failed, Metrics: map[string]metricValue{}}
	for _, k := range rr.Metrics.names() {
		res.Metrics[k] = metricValue{Value: rr.Metrics[k], Unit: unitOf(k)}
		fmt.Printf("  %-40s %16.6g %s\n", k, rr.Metrics[k], unitOf(k))
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	return res
}

func saveJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
