package core_test

import (
	"reflect"
	"testing"

	"repro/internal/morpion"
	"repro/internal/parallel"
)

// TestParallelNestedDeterministic pins that the parallel nested search is a
// function of its seed: two runs of parallel.Reference, the executable form
// of the parallel answer, on the same config agree on every field it fills.
// It lives in an external test package because parallel imports core.
func TestParallelNestedDeterministic(t *testing.T) {
	cfg := parallel.Config{Level: 2, Root: morpion.New(morpion.Var4D), Seed: 9, Memorize: true}
	a, err := parallel.Reference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := parallel.Reference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Steps == 0 || a.Jobs == 0 {
		t.Fatalf("degenerate run: %+v", a)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different results:\n %+v\n %+v", a, b)
	}
}
