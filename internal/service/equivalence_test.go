package service

// The scheduler-independence property of DESIGN.md §5 — client rollout
// scores depend only on logical job coordinates, never on which rank runs
// them or when — extended to multiplexing: a job's result must not change
// because other jobs share the pool's medians and clients. Every spec
// below is run concurrently on a shared service and must return exactly
// what parallel.Reference computes for it.

import (
	"context"
	"sync"
	"testing"

	"repro/internal/parallel"
)

// mixedSpecs is a cross-domain, cross-level, cross-option job mix small
// enough to run in test time.
func mixedSpecs() []JobSpec {
	return []JobSpec{
		{Domain: "sudoku", Box: 2, Level: 2, Seed: 1, Memorize: true},
		{Domain: "sudoku", Box: 2, Level: 3, Seed: 2, Memorize: true},
		{Domain: "samegame", Width: 5, Height: 5, Colors: 3, BoardSeed: 3, Level: 2, Seed: 3, Memorize: true},
		{Domain: "samegame", Width: 5, Height: 5, Colors: 3, BoardSeed: 3, Level: 2, Seed: 4, Memorize: false},
		{Domain: "morpion", Variant: "4D", Level: 2, Seed: 5, Memorize: true, FirstMoveOnly: true},
		{Domain: "sudoku", Box: 2, Level: 2, Seed: 6, Memorize: false},
	}
}

// soloRun computes a spec's expected result with parallel.Reference, the
// closed form every engine must reproduce.
func soloRun(t *testing.T, spec JobSpec) parallel.Result {
	t.Helper()
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	res, err := parallel.Reference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func requireIdentical(t *testing.T, label string, got JobStatus, want parallel.Result) {
	t.Helper()
	if got.Score != want.Score {
		t.Fatalf("%s: service score %v != solo score %v", label, got.Score, want.Score)
	}
	if len(got.Sequence) != len(want.Sequence) {
		t.Fatalf("%s: sequence lengths differ: %d vs %d", label, len(got.Sequence), len(want.Sequence))
	}
	for i := range got.Sequence {
		if got.Sequence[i] != want.Sequence[i] {
			t.Fatalf("%s: sequences differ at move %d", label, i)
		}
	}
}

// TestConcurrentJobsMatchSoloRuns is the multiplexing property test: N
// concurrent jobs with mixed domains, levels and memorization, submitted
// together to one shared pool, return bit-identical scores and sequences
// to parallel.Reference's answer for the same specs.
func TestConcurrentJobsMatchSoloRuns(t *testing.T) {
	specs := mixedSpecs()
	// Fewer slots than jobs: the queue path is exercised too.
	m := newTestManager(t, Config{Slots: 3, Medians: 2, Clients: 4, QueueLimit: len(specs)})

	ids := make([]string, len(specs))
	for i, spec := range specs {
		id, err := m.Submit(context.Background(), spec)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = id
	}
	statuses := make([]JobStatus, len(specs))
	var wg sync.WaitGroup
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := m.Wait(context.Background(), ids[i])
			if err != nil {
				t.Errorf("wait %d: %v", i, err)
				return
			}
			statuses[i] = st
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	for i, spec := range specs {
		if statuses[i].State != StateDone {
			t.Fatalf("job %d finished as %s (err %q)", i, statuses[i].State, statuses[i].Error)
		}
		requireIdentical(t, ids[i], statuses[i], soloRun(t, spec))
	}
}

// TestRepeatSubmissionsAreDeterministic runs the same spec twice on the
// same warm pool (reusing slots, medians, clients and their StatePools)
// with other traffic in between: both runs must be identical.
func TestRepeatSubmissionsAreDeterministic(t *testing.T) {
	m := newTestManager(t, Config{Slots: 2, Medians: 2, Clients: 3, QueueLimit: 8})
	spec := JobSpec{Domain: "samegame", Width: 5, Height: 5, Colors: 3, BoardSeed: 7, Level: 2, Seed: 9, Memorize: true}

	first, err := m.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	// Interleave unrelated traffic of a different domain.
	noise, err := m.Submit(context.Background(), JobSpec{Domain: "sudoku", Box: 2, Level: 2, Seed: 8, Memorize: true})
	if err != nil {
		t.Fatal(err)
	}
	a, err := m.Wait(context.Background(), first)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(context.Background(), noise); err != nil {
		t.Fatal(err)
	}
	second, err := m.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Wait(context.Background(), second)
	if err != nil {
		t.Fatal(err)
	}
	if a.Score != b.Score || len(a.Sequence) != len(b.Sequence) {
		t.Fatalf("warm-pool rerun diverged: %v/%d vs %v/%d",
			a.Score, len(a.Sequence), b.Score, len(b.Sequence))
	}
	for i := range a.Sequence {
		if a.Sequence[i] != b.Sequence[i] {
			t.Fatalf("warm-pool rerun differs at move %d", i)
		}
	}
}
