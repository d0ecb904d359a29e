package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"repro/internal/game"
	"repro/internal/rng"
)

// digest is what an operation's output is checked by. Rounds replay
// identical specs, so every pinned operation's digest must equal the one
// the warm-up round recorded, bit for bit. Nothing is pinned across
// commits: a later rng or traversal change alters the digests of both
// rounds alike and needs no edit here.
type digest struct {
	Score     float64
	Steps     int
	Rollouts  int64
	WorkUnits int64
	SeqHash   uint64
	// Virtual is the simulated makespan of a RunVirtual operation in
	// nanoseconds, zero elsewhere: an exact count, pinned like the rest.
	Virtual int64
}

func hashSequence(seq []game.Move) uint64 {
	h := uint64(len(seq))
	for _, m := range seq {
		h = rng.Mix(h, uint64(m))
	}
	return h
}

// opResult is one operation of a round: a search call or a submitted job.
type opResult struct {
	name    string        // what ran, e.g. "sudoku3/L2" or "c64_lm/samegame"
	class   string        // "R" or "W" on the cache twins, "" elsewhere
	latency time.Duration // closed loop: call to return; open loop: due time to completion
	failed  string        // reason, or "" when the operation succeeded in time
	pinned  bool          // dig must equal the warm-up round's
	dig     digest
	job     *jobTimes // service operations only
}

// roundResult is everything one round hands back to the runner.
type roundResult struct {
	ops []opResult
	// scheduled is the part of an open-loop round's wall time that the
	// arrival schedule sets — the last due offset — and the machine's speed
	// therefore does not; zero on a closed loop.
	scheduled time.Duration
	// lateness is how late the open-loop generator sent each operation.
	lateness []time.Duration
	// layer carries the workload's own counters of a traced round to its
	// layers method; nil on untraced rounds.
	layer any
}

// workload is one named set of inputs. setup builds the system under test
// and the inputs from the seed; round executes the same fixed work every
// time it is called (n = 0 is the warm-up round whose digests become the
// reference); layers turns the traced rounds into this workload's
// per-layer metrics.
type workload interface {
	setup(g *gen) error
	round(n int, tr *tracer, parent int) (roundResult, error)
	layers(m metricSet, pr *probeResults, traced []measuredRound)
	close() error
}

// workloads builds each workload by name. tiny selects the cut-down op
// lists the smoke tests run; the benchmark proper never sets it.
var workloads = map[string]func(tiny bool) workload{
	"solo_nested":   func(tiny bool) workload { return &soloNested{tiny: tiny} },
	"virtual_paper": func(tiny bool) workload { return &virtualPaper{tiny: tiny} },
	"svc_open":      func(tiny bool) workload { return &serviceWorkload{plan: planOpen(tiny)} },
	"svc_coarse":    func(tiny bool) workload { return &serviceWorkload{plan: planCoarse(false, tiny)} },
	"svc_cached":    func(tiny bool) workload { return &serviceWorkload{plan: planCoarse(true, tiny)} },
	"net_loopback":  func(tiny bool) workload { return &serviceWorkload{plan: planNet(tiny)} },
}

// workloadNames is the permanent order the workloads are listed and run in.
var workloadNames = []string{"solo_nested", "virtual_paper", "svc_open", "svc_coarse", "svc_cached", "net_loopback"}

// setupRepeats is how many times a run sets the workload up. setup_s is
// their median; the last instance is the one measured.
const setupRepeats = 3

// minRounds is the fewest measured rounds a run accepts however slow the
// machine is; a traced run needs twice that, half traced and half not.
const minRounds = 3

type options struct {
	seed    uint64
	seconds float64
	trace   bool
	outDir  string
	log     io.Writer // human-readable report
	// tiny runs the cut-down op lists with a single set-up and a single
	// round of each kind; probes, when set, are reused instead of measured
	// again. Both are for the tests.
	tiny   bool
	probes *probeResults
}

// runResult is the contract's result object plus what the report prints.
type runResult struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   metricSet
	Rounds    int
	Problems  []string
}

// measuredRound is one round's cost as the runner saw it from outside.
// speed is the machine's speed around the round (see speed.go); every
// time taken from the round is multiplied by it.
type measuredRound struct {
	traced  bool
	speed   float64
	wall    time.Duration
	cpu     time.Duration
	alloc   uint64 // bytes allocated
	mallocs uint64 // heap objects allocated
	res     roundResult
}

func runWorkload(name string, opt options) (runResult, error) {
	mk, ok := workloads[name]
	if !ok {
		return runResult{}, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	out := runResult{Metrics: metricSet{}}
	problem := func(format string, a ...any) {
		out.Problems = append(out.Problems, fmt.Sprintf(format, a...))
	}

	var tr *tracer
	pr := opt.probes
	if opt.trace {
		tr = newTracer()
		if pr == nil {
			var err error
			if pr, err = runProbes(); err != nil {
				return out, err
			}
		}
	}
	root := tr.begin(0, "workload", map[string]any{"name": name, "seed": opt.seed})

	// Set-up, several times over: build, check one spec against the solo
	// oracle, run the warm-up round. The warm-up rounds of all repeats must
	// agree with each other too.
	var w workload
	var setups []float64
	var ref []digest
	repeats := setupRepeats
	if opt.tiny {
		repeats = 1
	}
	for rep := 0; rep < repeats; rep++ {
		if w != nil {
			if err := w.close(); err != nil {
				return out, fmt.Errorf("%s: close: %w", name, err)
			}
		}
		s0 := machineSpeed()
		t0 := time.Now()
		w = mk(opt.tiny)
		if err := w.setup(newGen(opt.seed)); err != nil {
			return out, fmt.Errorf("%s: setup: %w", name, err)
		}
		warm, err := w.round(0, nil, 0)
		if err != nil {
			return out, fmt.Errorf("%s: warm-up round: %w", name, err)
		}
		raw := time.Since(t0).Seconds()
		setups = append(setups, raw*(s0+machineSpeed())/2)
		if rep == 0 {
			ref = pinnedDigests(warm)
		}
		for _, why := range verify(ref, warm) {
			problem("set-up %d, warm-up %s", rep, why)
		}
	}
	defer func() {
		if w != nil {
			w.close() //nolint:errcheck // an earlier error is already being returned
		}
	}()

	// Measured phase: rounds of identical fixed work until the clock runs
	// out. A traced run alternates untraced and traced rounds, so the
	// difference between the two halves is the tracing overhead.
	runtime.GC()
	need := minRounds
	if opt.tiny {
		need = 1
	}
	if opt.trace {
		need *= 2
	}
	var rounds []measuredRound
	began := time.Now()
	speed := machineSpeed()
	for n := 1; len(rounds) < need || time.Since(began).Seconds() < opt.seconds; n++ {
		rtr, parent := (*tracer)(nil), 0
		if opt.trace && n%2 == 0 {
			rtr = tr
			parent = tr.begin(root, "round", map[string]any{"n": n})
		}
		before := sampleProc()
		res, err := w.round(n, rtr, parent)
		after := sampleProc()
		rtr.finish(parent)
		if err != nil {
			return out, fmt.Errorf("%s: round %d: %w", name, n, err)
		}
		// One calibration point serves as the end of this round and the
		// start of the next.
		ahead := speed
		speed = machineSpeed()
		rounds = append(rounds, measuredRound{
			traced: rtr != nil, speed: (ahead + speed) / 2,
			wall: after.at.Sub(before.at), cpu: after.cpu - before.cpu,
			alloc: after.alloc - before.alloc, mallocs: after.mallocs - before.mallocs,
			res: res,
		})
		out.Attempted += len(res.ops)
		for _, why := range verify(ref, res) {
			out.Failed++
			problem("round %d %s", n, why)
		}
	}
	tr.finish(root)
	out.Rounds = len(rounds)
	// Tear down before the counters are read, so goroutines_end sees what
	// the workload left behind.
	last := w
	err := w.close()
	w = nil
	if err != nil {
		return out, fmt.Errorf("%s: close: %w", name, err)
	}

	if opt.trace {
		layerMetrics(out.Metrics, last, pr, rounds)
		spans := tr.snapshot()
		path, err := writeTrace(opt.outDir, traceFile{
			Workload: name, Seed: opt.seed, Env: readEnvironment(),
			Spans: spans, SelfNs: selfByName(spans),
		})
		if err != nil {
			fmt.Fprintf(opt.log, "trace not written: %v\n", err)
		} else {
			fmt.Fprintf(opt.log, "trace: %s\n", path)
		}
	} else {
		endToEnd(out.Metrics, median(setups), rounds)
	}
	out.Correct = len(out.Problems) == 0
	return out, nil
}

// pinnedDigests lists, in order, the digests a round's pinned operations
// returned.
func pinnedDigests(r roundResult) []digest {
	var out []digest
	for _, op := range r.ops {
		if op.pinned {
			out = append(out, op.dig)
		}
	}
	return out
}

// verify judges a round against the reference digests and returns one
// reason per operation that failed: it was shed, did not finish, was late,
// or — being pinned — returned something other than the warm-up round did.
func verify(ref []digest, r roundResult) []string {
	var why []string
	k := 0 // index among the pinned operations
	for i, op := range r.ops {
		switch {
		case op.failed != "":
			why = append(why, fmt.Sprintf("op %d %s: %s", i, op.name, op.failed))
		case op.pinned && (k >= len(ref) || ref[k] != op.dig):
			why = append(why, fmt.Sprintf("op %d %s: output %+v differs from the warm-up round's", i, op.name, op.dig))
		}
		if op.pinned {
			k++
		}
	}
	return why
}

// endToEnd fills the metrics a user of the system would see, at reference
// speed. A round's costs are taken per round and the run's value is the
// median round; the latency percentiles are taken over the operations of
// all measured rounds together, which is what gives the 90th percentile
// enough samples beyond it.
func endToEnd(m metricSet, setup float64, rounds []measuredRound) {
	var wall, cpu, alloc, good, lat []float64
	for _, r := range rounds {
		w := r.wallAtReference()
		wall = append(wall, w)
		cpu = append(cpu, r.cpu.Seconds()*r.speed)
		alloc = append(alloc, float64(r.alloc)/1e6)
		own := latenciesMs(r.res.ops, r.speed)
		lat = append(lat, own...)
		good = append(good, float64(len(own))/w)
	}
	m.set("setup_s", setup)
	m.set("wall_s", median(wall))
	m.set("cpu_s", median(cpu))
	m.set("alloc_mb", median(alloc))
	m.set("op_p50_ms", quantile(lat, 0.5))
	m.set("op_p90_ms", quantile(lat, 0.9))
	m.set("goodput_ops", median(good))
}

// wallAtReference is the round's wall time with its machine-bound part —
// all of it on a closed loop, what follows the last due time on an open
// one — scaled to reference speed.
func (r measuredRound) wallAtReference() float64 {
	return r.res.scheduled.Seconds() + (r.wall-r.res.scheduled).Seconds()*r.speed
}

// latenciesMs returns, at reference speed, the latencies of the operations
// that succeeded. A failed, shed or late operation has no latency worth
// averaging in; it is counted against goodput and the failure total.
func latenciesMs(ops []opResult, speed float64) []float64 {
	var lat []float64
	for _, op := range ops {
		if op.failed == "" {
			lat = append(lat, ms(op.latency.Nanoseconds())*speed)
		}
	}
	return lat
}

// layerMetrics fills every per-layer metric: the layer probes, the
// workload's own counters from its traced rounds, and the figures that
// say whether the run itself was valid.
func layerMetrics(m metricSet, w workload, pr *probeResults, rounds []measuredRound) {
	for _, d := range perLayer {
		m.set(d.Name, 0) // a layer that does no work on this workload reads 0
	}
	pr.fill(m)

	var traced []measuredRound
	var late, tracedCPU, plainCPU, speeds []float64
	sent := 0
	for _, r := range rounds {
		speeds = append(speeds, r.speed)
		if r.traced {
			traced = append(traced, r)
			tracedCPU = append(tracedCPU, r.cpu.Seconds()*r.speed)
			sent += len(r.res.ops)
			for _, d := range r.res.lateness {
				late = append(late, ms(d.Nanoseconds()))
			}
		} else {
			plainCPU = append(plainCPU, r.cpu.Seconds()*r.speed)
		}
	}
	w.layers(m, pr, traced)
	m.set("gen.lateness_ms_p90", quantile(late, 0.9))
	m.set("gen.sent", float64(sent))
	if base := median(plainCPU); base > 0 {
		m.set("trace.overhead_frac", median(tracedCPU)/base-1)
	}

	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	m.set("proc.speed_factor", median(speeds))
	m.set("proc.rss_peak_mb", rssPeakMB())
	m.set("proc.gc_cpu_frac", mem.GCCPUFraction)
	m.set("proc.gc_cycles", float64(mem.NumGC))
	m.set("proc.goroutines_end", float64(runtime.NumGoroutine()))
}

// metricSet maps a metric name to its value; units come from the
// declarations in metrics.go.
type metricSet map[string]float64

func (m metricSet) set(name string, v float64) { m[name] = v }

func (m metricSet) names() []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
