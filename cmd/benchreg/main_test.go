package main

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro/internal/parallel
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkStaticFirstMove-8 	       1	 261107786 ns/op	        98.27 midle_pct	23733640 B/op	  435676 allocs/op
BenchmarkStaticFirstMove-8 	       1	 241107786 ns/op	        98.11 midle_pct	23733640 B/op	  435676 allocs/op
BenchmarkPullFirstMove-8   	       1	 484780092 ns/op	23735072 B/op	  435831 allocs/op
PASS
ok  	repro/internal/parallel	1.529s
`

func TestParseAggregates(t *testing.T) {
	f, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if f.Schema != schema {
		t.Fatalf("schema %q", f.Schema)
	}
	if !strings.Contains(f.CPU, "Xeon") {
		t.Fatalf("cpu not captured: %q", f.CPU)
	}
	if len(f.Benches) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(f.Benches))
	}
	static := f.Benches[0]
	if static.Name != "BenchmarkStaticFirstMove" {
		t.Fatalf("name %q (GOMAXPROCS suffix not stripped?)", static.Name)
	}
	if static.Runs != 2 {
		t.Fatalf("runs %d, want 2", static.Runs)
	}
	if static.NsOp != 241107786 {
		t.Fatalf("ns/op %v, want the minimum across runs", static.NsOp)
	}
	if got := static.Metrics["midle_pct"]; got != (98.27+98.11)/2 {
		t.Fatalf("midle_pct %v, want the mean across runs", got)
	}
	if f.Benches[1].AllocsOp != 435831 {
		t.Fatalf("allocs/op %v", f.Benches[1].AllocsOp)
	}
}

func TestParseRejectsEmptyInput(t *testing.T) {
	if _, err := Parse(strings.NewReader("PASS\n")); err == nil {
		t.Fatal("empty bench output accepted")
	}
}

// bench is a benchmark that took ns and made as many allocations.
func bench(name string, ns float64) Bench {
	return Bench{Name: name, Runs: 1, NsOp: ns, AllocsOp: ns}
}

func file(bs ...Bench) File {
	return File{Schema: schema, Benches: bs}
}

func TestCompareGate(t *testing.T) {
	base := file(bench("A", 100), bench("B", 100), bench("C", 100))

	cases := []struct {
		name string
		cand File
		ok   bool
		want string
	}{
		{"within threshold", file(bench("A", 115), bench("B", 100), bench("C", 90)), true, "ok"},
		{"regression", file(bench("A", 130), bench("B", 100), bench("C", 100)), false, "REGRESSION"},
		{"improvement", file(bench("A", 50), bench("B", 100), bench("C", 100)), true, "improved"},
		{"new benchmark passes", file(bench("A", 100), bench("B", 100), bench("C", 100), bench("D", 999)), true, "NEW"},
		{"missing reported", file(bench("A", 100), bench("B", 100)), true, "MISSING"},
	}
	for _, tc := range cases {
		var out strings.Builder
		ok := Compare(&out, base, tc.cand, 0.20)
		if ok != tc.ok {
			t.Errorf("%s: ok=%v, want %v\n%s", tc.name, ok, tc.ok, out.String())
		}
		if !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: output missing %q:\n%s", tc.name, tc.want, out.String())
		}
	}
}

func TestCompareReportsNsOpWithoutGating(t *testing.T) {
	// ns/op at one iteration on shared hardware is a trend, not a gate: a
	// regression-sized delta is reported and passes, same CPU or not.
	base := file(Bench{Name: "A", Runs: 1, NsOp: 100, AllocsOp: 1000})
	base.CPU = "this machine"
	cand := file(Bench{Name: "A", Runs: 1, NsOp: 500, AllocsOp: 1000})
	for _, cpu := range []string{"this machine", "another machine"} {
		cand.CPU = cpu
		var out strings.Builder
		if ok := Compare(&out, base, cand, 0.20); !ok {
			t.Fatalf("candidate from %q: ns/op failed the gate:\n%s", cpu, out.String())
		}
		if !strings.Contains(out.String(), "slower") || !strings.Contains(out.String(), "+400.0%") {
			t.Fatalf("candidate from %q: ns/op trend not reported:\n%s", cpu, out.String())
		}
	}
}

func TestCompareGatesAllocsAcrossCPUs(t *testing.T) {
	// allocs/op is hardware-independent: an allocation regression fails
	// whichever machine recorded the baseline.
	base := file(Bench{Name: "A", Runs: 1, NsOp: 100, AllocsOp: 1000})
	base.CPU = "old machine"
	cand := file(Bench{Name: "A", Runs: 1, NsOp: 100, AllocsOp: 1500})
	cand.CPU = "new machine"
	var out strings.Builder
	if ok := Compare(&out, base, cand, 0.20); ok {
		t.Fatalf("alloc regression passed across CPUs:\n%s", out.String())
	}
}
