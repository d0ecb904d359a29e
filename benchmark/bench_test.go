package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/service"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Error("quantile reordered its input")
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing should be 0")
	}
}

// The reference values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}, [3]float64{2, 4, 5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, [3]float64{27.5, 55, 82.5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	a := newGen(7).arrivalSchedule(1, 16, 2*time.Second)
	b := newGen(7).arrivalSchedule(1, 16, 2*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed and round, different schedules")
	}
	if reflect.DeepEqual(a, newGen(8).arrivalSchedule(1, 16, 2*time.Second)) {
		t.Error("different seeds, same schedule")
	}
	if reflect.DeepEqual(a, newGen(7).arrivalSchedule(2, 16, 2*time.Second)) {
		t.Error("different rounds, same schedule")
	}
	if a[0] != 0 || a[15] != 2*time.Second*15/16 {
		t.Errorf("schedule must span exactly [0, window*(n-1)/n]: %v", a)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("schedule not sorted: %v", a)
		}
	}
	// Drawing specs must not move the arrivals.
	g := newGen(7)
	g.jobSeed()
	if !reflect.DeepEqual(a, g.arrivalSchedule(1, 16, 2*time.Second)) {
		t.Error("drawing a job seed changed the arrival schedule")
	}
	if x, y := newGen(7), newGen(7); x.freshBoard(1, 0) == x.freshBoard(2, 0) || x.freshBoard(1, 0) != y.freshBoard(1, 0) {
		t.Error("fresh boards must differ per round and repeat per seed")
	}
}

func TestSpecListsAreAFunctionOfTheSeed(t *testing.T) {
	for _, name := range workloadNames {
		specs := func(seed uint64) []service.JobSpec {
			w, ok := workloads[name](false).(*serviceWorkload)
			if !ok {
				return nil
			}
			var out []service.JobSpec
			for _, tm := range w.plan.jobs(newGen(seed)) {
				out = append(out, tm.spec)
			}
			return out
		}
		a, b, c := specs(3), specs(3), specs(4)
		if a == nil {
			continue
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed, different specs", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds, same specs", name)
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},  // covers 30
		{ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps 2: adds 20
		{ID: 4, Parent: 1, Start: 90, End: 120}, // sticks out: adds 10
		{ID: 5, Parent: 2, Start: 10, End: 40},  // covers all of 2
		{ID: 6, Parent: 3, Start: 0, End: 10},   // wholly outside 3: adds nothing
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 40, 2: 0, 3: 30, 4: 30, 5: 30, 6: 10}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
	var total int64
	for _, v := range selfByName([]span{{ID: 1, Name: "a", Start: 0, End: 50}, {ID: 2, Parent: 1, Name: "b", Start: 5, End: 25}}) {
		total += v
	}
	if total != 50 {
		t.Errorf("self times of a tree must sum to the root's duration, got %d", total)
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin(0, "x", nil)
	tr.finish(id)
	if id != 0 || tr.snapshot() != nil {
		t.Error("a nil tracer must be inert")
	}
	live := newTracer()
	root := live.begin(0, "root", nil)
	live.add(root, "child", time.Now(), time.Now().Add(time.Millisecond), nil)
	live.finish(root)
	if got := live.snapshot(); len(got) != 2 || got[1].Parent != root || got[0].End < got[0].Start {
		t.Errorf("unexpected spans %+v", got)
	}
}

// A Manager's stamps run a constant ahead of the benchmark's clock; the
// estimate must recover it and the phases must then add up to the latency.
func TestClockOffsetsAndPhases(t *testing.T) {
	base := time.Now()
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	const skew = 7 * time.Millisecond
	job := func(pool, t0, sub, t1, start, end, tw int) opResult {
		return opResult{job: &jobTimes{
			t0: at(t0), t1: at(t1), tw: at(tw), pool: pool,
			status: service.JobStatus{ID: "job-1", Submitted: at(sub).Add(skew), Started: at(start).Add(skew), Finished: at(end).Add(skew)},
		}}
	}
	ops := []opResult{
		job(0, 0, 1, 4, 1, 50, 51),           // bounds the skew to [skew-3, skew+1]
		job(0, 100, 103, 104, 110, 160, 161), // bounds it to [skew-1, skew+3]
		{job: nil},
	}
	off := clockOffsets(ops, 1)
	if d := off[0] - skew; d < -time.Millisecond || d > time.Millisecond {
		t.Fatalf("offset %v, want %v within 1ms", off[0], skew)
	}
	ph := phasesOf(ops[1].job, skew)
	if ph.queue != 7*time.Millisecond || ph.run != 50*time.Millisecond || ph.notify != time.Millisecond || ph.submit != 4*time.Millisecond {
		t.Errorf("phases %+v", ph)
	}
	// The Submitted stamp is taken inside the Submit call, so the spans
	// overlap by that much and no more.
	if over := ph.spanSums - ph.latency; over != time.Millisecond {
		t.Errorf("spans exceed latency by %v, want the 1ms between the stamp and Submit returning", over)
	}
	open := *ops[1].job
	open.due = at(95)
	if ph := phasesOf(&open, skew); ph.late != 5*time.Millisecond || ph.latency != 66*time.Millisecond {
		t.Errorf("open-loop phases %+v", ph)
	}
	if poolOf("job-4", 2) != 1 || poolOf("job-3", 2) != 0 || poolOf("garbage", 2) != 0 {
		t.Error("poolOf")
	}
}

func TestJudge(t *testing.T) {
	steady := func(v float64) []float64 {
		out := make([]float64, 10)
		for i := range out {
			out[i] = v * (1 + 0.002*float64(i%3))
		}
		return out
	}
	for _, c := range []struct {
		name           string
		parent, change []float64
		higher         bool
		bound          float64
		want           string
	}{
		{"gain", steady(100), steady(90), false, 0.1, "gain"},
		{"gain on a rate", steady(100), steady(110), true, 0.1, "gain"},
		{"regression", steady(100), steady(115), false, 0.1, "regression: worse by more than the bound"},
		{"within", steady(100), steady(103), false, 0.1, "within the bound"},
		{"few pairs", steady(100)[:5], steady(90)[:5], false, 0.1, "too few pairs (5 < 10)"},
		{"noisy", []float64{80, 120, 85, 115, 90, 110, 95, 105, 100, 125}, steady(90), false, 0.1, "unresolved: spread exceeds the bound"},
		{"layer metric", steady(100), steady(103), false, 0, "no gain shown"},
	} {
		if got := judge(c.parent, c.change, c.higher, c.bound).Verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	// Nine wins of ten is enough, eight is not.
	parent, change := steady(100), steady(90)
	change[0] = 200
	if got := judge(parent, change, false, 0.5).Verdict; got != "gain" {
		t.Errorf("9/10 wins: %q", got)
	}
	change[1] = 200
	if got := judge(parent, change, false, 0.5).Verdict; got == "gain" {
		t.Error("8/10 wins must not be a gain")
	}
}

// BENCHMARK.json is the contract; the declarations here are what the
// program emits. They must not drift apart.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDecl `json:"end_to_end"`
		PerLayer  []metricDecl `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, program has %v", names, workloadNames)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEndDecls) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", doc.EndToEnd, endToEndDecls)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the program's declarations")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDecl(nil), endToEndDecls...), perLayer...) {
		if seen[d.Name] || len(d.Name) > 64 || d.Unit == "" || len(d.Unit) > 16 || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("bad declaration %+v", d)
		}
		seen[d.Name] = true
	}
}

// One round of every workload at a tiny size, untraced and traced: every
// declared metric is emitted, nothing else is, and the outputs verify.
func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	probes, err := runProbes()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			rr, err := runWorkload(name, options{seed: 5, seconds: 0, trace: trace, outDir: t.TempDir(), log: io.Discard, tiny: true, probes: probes})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !rr.Correct || rr.Attempted == 0 || rr.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d %v", name, trace, rr.Correct, rr.Attempted, rr.Failed, rr.Problems)
			}
			want := endToEndDecls
			if trace {
				want = perLayer
			}
			if len(rr.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(rr.Metrics), len(want))
			}
			for _, d := range want {
				v, ok := rr.Metrics[d.Name]
				if !ok {
					t.Errorf("%s trace=%v: %s not emitted", name, trace, d.Name)
				}
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s trace=%v: %s = %v", name, trace, d.Name, v)
				}
				if !trace && v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", name, d.Name, v)
				}
			}
		}
	}
}

// A wrong output must fail the operation that returned it, and only that.
func TestVerify(t *testing.T) {
	ref := []digest{{Score: 1, Steps: 2, SeqHash: 3}, {Score: 4, Steps: 5, SeqHash: 6}}
	good := roundResult{ops: []opResult{
		{name: "a", pinned: true, dig: ref[0]},
		{name: "w", pinned: false, dig: digest{Score: 99}}, // fresh every round: not compared
		{name: "b", pinned: true, dig: ref[1]},
	}}
	if !reflect.DeepEqual(pinnedDigests(good), ref) {
		t.Errorf("pinnedDigests = %v", pinnedDigests(good))
	}
	if why := verify(ref, good); len(why) != 0 {
		t.Errorf("a faithful round failed: %v", why)
	}
	bad := roundResult{ops: append([]opResult(nil), good.ops...)}
	bad.ops[2].dig.SeqHash++
	bad.ops[1].failed = "shed"
	if why := verify(ref, bad); len(why) != 2 {
		t.Errorf("want the shed op and the wrong output, got %v", why)
	}
	extra := roundResult{ops: append(append([]opResult(nil), good.ops...), opResult{name: "c", pinned: true})}
	if why := verify(ref, extra); len(why) != 1 {
		t.Errorf("a pinned op with no reference must fail: %v", why)
	}
}
