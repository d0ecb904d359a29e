// Command benchreg turns `go test -bench` output into the repository's
// BENCH_*.json artifact and gates CI on allocs/op regressions against the
// committed baseline.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem -benchtime=1x -count=3 ./... | benchreg parse -o BENCH_2026-07-27.json
//	benchreg compare -baseline BENCH_baseline.json -candidate BENCH_2026-07-27.json -threshold 0.20
//
// parse aggregates repeated -count runs per benchmark: ns/op, B/op and
// allocs/op take the minimum across runs (the least-noisy estimator of the
// true cost), custom metrics (vsec, midle_pct, ...) take the mean. The
// -N GOMAXPROCS suffix is stripped from names so baselines transfer
// between machines with different core counts.
//
// compare exits non-zero when any benchmark present in both files
// regressed by more than the threshold on allocs/op; ns/op is printed as a
// trend and never gated (see Compare). Missing benchmarks are reported but
// do not fail the gate (new benchmarks land before their baseline does).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Bench is one benchmark's aggregated measurements.
type Bench struct {
	Name     string             `json:"name"`
	Runs     int                `json:"runs"`
	NsOp     float64            `json:"ns_op"`
	BOp      float64            `json:"b_op,omitempty"`
	AllocsOp float64            `json:"allocs_op,omitempty"`
	Metrics  map[string]float64 `json:"metrics,omitempty"`
}

// File is the BENCH_*.json schema.
type File struct {
	Schema    string  `json:"schema"`
	Generated string  `json:"generated"`
	Go        string  `json:"go"`
	CPU       string  `json:"cpu,omitempty"`
	Benches   []Bench `json:"benchmarks"`
}

const schema = "pnmcs-bench/v1"

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "parse":
		fs := flag.NewFlagSet("parse", flag.ExitOnError)
		out := fs.String("o", "", "output file (default stdout)")
		fs.Parse(os.Args[2:])
		if err := runParse(os.Stdin, *out); err != nil {
			fatal(err)
		}
	case "compare":
		fs := flag.NewFlagSet("compare", flag.ExitOnError)
		baseline := fs.String("baseline", "", "baseline BENCH_*.json")
		candidate := fs.String("candidate", "", "candidate BENCH_*.json")
		threshold := fs.Float64("threshold", 0.20, "allowed fractional allocs/op regression")
		fs.Parse(os.Args[2:])
		if *baseline == "" || *candidate == "" {
			fs.Usage()
			os.Exit(2)
		}
		ok, err := runCompare(os.Stdout, *baseline, *candidate, *threshold)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: benchreg parse [-o file] < bench-output")
	fmt.Fprintln(os.Stderr, "       benchreg compare -baseline f -candidate f [-threshold 0.20]")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchreg:", err)
	os.Exit(1)
}

// benchLine matches one result line of `go test -bench` output, e.g.
// "BenchmarkPullFirstMove-8   3   12345 ns/op   12.5 midle_pct".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.+)$`)

// sample is one raw benchmark line's measurements.
type sample struct {
	nsOp, bOp, allocsOp float64
	metrics             map[string]float64
}

// Parse reads `go test -bench` output and aggregates it into a File.
func Parse(r io.Reader) (File, error) {
	out := File{
		Schema:    schema,
		Generated: time.Now().UTC().Format(time.RFC3339),
		Go:        runtime.Version(),
	}
	samples := map[string][]sample{}
	var order []string

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if cpu, ok := strings.CutPrefix(line, "cpu: "); ok {
			out.CPU = strings.TrimSpace(cpu)
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		name := m[1]
		s, err := parseFields(m[3])
		if err != nil {
			return File{}, fmt.Errorf("line %q: %w", line, err)
		}
		if len(samples[name]) == 0 {
			order = append(order, name)
		}
		samples[name] = append(samples[name], s)
	}
	if err := sc.Err(); err != nil {
		return File{}, err
	}
	if len(order) == 0 {
		return File{}, fmt.Errorf("no benchmark lines found in input")
	}

	for _, name := range order {
		out.Benches = append(out.Benches, aggregate(name, samples[name]))
	}
	return out, nil
}

// parseFields decodes the "value unit" pairs after the iteration count.
func parseFields(rest string) (sample, error) {
	fields := strings.Fields(rest)
	if len(fields)%2 != 0 {
		return sample{}, fmt.Errorf("odd value/unit fields: %q", rest)
	}
	s := sample{}
	for i := 0; i < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return sample{}, fmt.Errorf("bad value %q: %w", fields[i], err)
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			s.nsOp = v
		case "B/op":
			s.bOp = v
		case "allocs/op":
			s.allocsOp = v
		case "MB/s":
			// throughput is derived from ns/op; skip
		default:
			if s.metrics == nil {
				s.metrics = map[string]float64{}
			}
			s.metrics[unit] = v
		}
	}
	return s, nil
}

// aggregate folds the -count samples of one benchmark: minimum for the
// cost measures, mean for custom metrics.
func aggregate(name string, ss []sample) Bench {
	b := Bench{Name: name, Runs: len(ss)}
	for i, s := range ss {
		if i == 0 || s.nsOp < b.NsOp {
			b.NsOp = s.nsOp
		}
		if i == 0 || s.bOp < b.BOp {
			b.BOp = s.bOp
		}
		if i == 0 || s.allocsOp < b.AllocsOp {
			b.AllocsOp = s.allocsOp
		}
		for k, v := range s.metrics {
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[k] += v
		}
	}
	for k := range b.Metrics {
		b.Metrics[k] /= float64(len(ss))
	}
	return b
}

func runParse(r io.Reader, outPath string) error {
	f, err := Parse(r)
	if err != nil {
		return err
	}
	w := io.Writer(os.Stdout)
	if outPath != "" {
		file, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer file.Close()
		w = file
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}

// Compare checks candidate against baseline; it returns false when any
// shared benchmark regressed beyond the threshold on allocs/op, which is
// hardware-independent and (at -benchtime=1x) essentially deterministic.
// ns/op is printed next to it as a trend and never fails the gate: one
// iteration on a shared CI machine spreads by more than any threshold
// worth setting, so it failed untouched code. Timing claims go through
// benchmark/run.sh --compare instead.
func Compare(w io.Writer, baseline, candidate File, threshold float64) bool {
	base := map[string]Bench{}
	for _, b := range baseline.Benches {
		base[b.Name] = b
	}
	names := make([]string, 0, len(candidate.Benches))
	for _, b := range candidate.Benches {
		names = append(names, b.Name)
	}
	sort.Strings(names)
	cand := map[string]Bench{}
	for _, b := range candidate.Benches {
		cand[b.Name] = b
	}

	ok := true
	for _, name := range names {
		c := cand[name]
		b, found := base[name]
		if !found {
			fmt.Fprintf(w, "NEW        %-40s %12.0f ns/op (no baseline)\n", name, c.NsOp)
			continue
		}
		nsDelta := 0.0
		if b.NsOp > 0 {
			nsDelta = c.NsOp/b.NsOp - 1
		}
		allocDelta := 0.0
		if b.AllocsOp > 0 {
			allocDelta = c.AllocsOp/b.AllocsOp - 1
		}
		status := "ok"
		switch {
		case allocDelta > threshold:
			status = "REGRESSION"
			ok = false
		case nsDelta > threshold:
			status = "slower"
		case nsDelta < -threshold:
			status = "improved"
		}
		fmt.Fprintf(w, "%-10s %-40s %12.0f -> %12.0f ns/op (%+.1f%%)  %9.0f -> %9.0f allocs/op (%+.1f%%)\n",
			status, name, b.NsOp, c.NsOp, 100*nsDelta, b.AllocsOp, c.AllocsOp, 100*allocDelta)
	}
	for _, b := range baseline.Benches {
		if _, found := cand[b.Name]; !found {
			fmt.Fprintf(w, "MISSING    %-40s dropped from candidate run\n", b.Name)
		}
	}
	if !ok {
		fmt.Fprintf(w, "FAIL: allocs/op regression beyond %.0f%% against the committed baseline\n", 100*threshold)
	}
	return ok
}

func runCompare(w io.Writer, basePath, candPath string, threshold float64) (bool, error) {
	baseline, err := load(basePath)
	if err != nil {
		return false, err
	}
	candidate, err := load(candPath)
	if err != nil {
		return false, err
	}
	return Compare(w, baseline, candidate, threshold), nil
}

func load(path string) (File, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return File{}, err
	}
	var f File
	if err := json.Unmarshal(raw, &f); err != nil {
		return File{}, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != schema {
		return File{}, fmt.Errorf("%s: unknown schema %q (want %q)", path, f.Schema, schema)
	}
	return f, nil
}
