package service

// The JobManager storm test of ISSUE 3's acceptance criteria: many
// concurrent jobs across all three domains on one shared pool, with
// mid-flight cancellations, under the race detector (CI's race job runs
// go test -race ./...). Every job that completes normally must be
// bit-identical to parallel.Reference's answer for the same JobSpec.

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// stormSpecs builds n mixed-domain specs, deterministically varied.
func stormSpecs(n int) []JobSpec {
	specs := make([]JobSpec, 0, n)
	for i := 0; i < n; i++ {
		seed := uint64(100 + i)
		switch i % 3 {
		case 0:
			specs = append(specs, JobSpec{Domain: "sudoku", Box: 2, Level: 2, Seed: seed, Memorize: i%2 == 0})
		case 1:
			specs = append(specs, JobSpec{Domain: "samegame", Width: 5, Height: 5, Colors: 3,
				BoardSeed: uint64(i), Level: 2, Seed: seed, Memorize: true})
		case 2:
			specs = append(specs, JobSpec{Domain: "morpion", Variant: "4D", Level: 2, Seed: seed,
				Memorize: true, FirstMoveOnly: true})
		}
	}
	return specs
}

// TestJobManagerStorm floods a small shared pool with ≥8 concurrent jobs
// across all three domains, cancels a third of them mid-flight, then
// verifies (a) every job reached a terminal state, (b) no slot, median or
// client leaked (a fresh job still runs), and (c) every normally
// completed job is bit-identical to its parallel.Reference answer.
func TestJobManagerStorm(t *testing.T) {
	const n = 9
	specs := stormSpecs(n)
	m := newTestManager(t, Config{Slots: 4, Medians: 3, Clients: 6, QueueLimit: n})

	ids := make([]string, n)
	for i, spec := range specs {
		id, err := m.Submit(context.Background(), spec)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = id
	}

	// Cancel every third job from a separate goroutine while the storm
	// runs: some cancellations hit queued jobs, some hit running jobs,
	// some race completion — all must be safe.
	var wg sync.WaitGroup
	for i := 0; i < n; i += 3 {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			err := m.Cancel(id)
			if err != nil && err != ErrFinished {
				t.Errorf("cancel %s: %v", id, err)
			}
		}(ids[i])
	}

	statuses := make([]JobStatus, n)
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

	completed := 0
	for i, st := range statuses {
		switch st.State {
		case StateDone:
			if st.Stopped {
				continue // deadline-truncated results have no solo twin here
			}
			completed++
			requireIdentical(t, fmt.Sprintf("job %d (%s)", i, specs[i].Domain),
				st, soloRun(t, specs[i]))
		case StateCancelled:
			// fine — partial result, nothing to compare
		default:
			t.Fatalf("job %d ended as %s (err %q)", i, st.State, st.Error)
		}
	}
	if completed == 0 {
		t.Fatal("storm cancelled everything; no completed job to verify")
	}

	// The pool must be fully reusable after the storm.
	id, err := m.Submit(context.Background(), JobSpec{Domain: "sudoku", Box: 2, Level: 2, Seed: 42, Memorize: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Score != 16 {
		t.Fatalf("post-storm job: state %s score %v", st.State, st.Score)
	}
}

// TestRetainEvictionUnderSaturationStorm (ISSUE 10 satellite) drives the
// queue past QueueLimit from many goroutines while a tiny Retain bound
// evicts terminals underneath: ErrSaturated must actually fire, evicted
// ids must answer ErrNotFound (never a stale snapshot), and the job map
// must end bounded by Retain + capacity.
func TestRetainEvictionUnderSaturationStorm(t *testing.T) {
	const retain = 3
	m := newTestManager(t, Config{Slots: 2, Medians: 1, Clients: 2, QueueLimit: 2, Retain: retain})

	// Deterministic saturation first: fill both slots and both queue
	// places with slow jobs, prove the next submit sheds, then release.
	var slow []string
	for i := 0; i < 4; i++ {
		id, err := m.Submit(context.Background(), slowSpec(uint64(900+i)))
		if err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
		slow = append(slow, id)
	}
	if _, err := m.Submit(context.Background(), tinySpec(999)); err != ErrSaturated {
		t.Fatalf("submit at capacity: %v, want ErrSaturated", err)
	}
	for _, id := range slow {
		if err := m.Cancel(id); err != nil && err != ErrFinished {
			t.Fatal(err)
		}
		if _, err := m.Wait(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}

	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		accepted  []string
		saturated = 1 // the deterministic shed above
	)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				// Fast jobs, so terminals accumulate and Retain evicts
				// while later submits are still arriving.
				id, err := m.Submit(context.Background(), tinySpec(uint64(1+w*8+i)))
				if err != nil {
					if err == ErrSaturated {
						mu.Lock()
						saturated++
						mu.Unlock()
						continue
					}
					t.Errorf("submit w%d/%d: %v", w, i, err)
					return
				}
				mu.Lock()
				accepted = append(accepted, id)
				mu.Unlock()
				if i%3 == 0 {
					go m.Cancel(id) //nolint:errcheck // racing completion is the point
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	// Wait for the survivors; storm ids may already be Retain-evicted
	// (ErrNotFound), never stale or stuck.
	for _, id := range accepted {
		st, err := m.Wait(context.Background(), id)
		switch {
		case err == ErrNotFound:
			// finished and evicted before we looked — fine
		case err != nil:
			t.Fatalf("wait %s: %v", id, err)
		case !st.State.Terminal():
			t.Fatalf("job %s not terminal: %s", id, st.State)
		}
	}
	// Push retain+1 fresh terminals through sequentially: every storm-era
	// job is now certainly beyond the retention window.
	for i := 0; i <= retain; i++ {
		id, err := m.Submit(context.Background(), tinySpec(uint64(800+i)))
		if err != nil {
			t.Fatalf("post-storm submit %d: %v", i, err)
		}
		if _, err := m.Wait(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range append(slow, accepted...) {
		if _, err := m.Get(id); err != ErrNotFound {
			t.Fatalf("storm job %s survived eviction: %v", id, err)
		}
	}
	// Quiescent: the map holds exactly the retained terminals.
	if got := len(m.Jobs()); got != retain {
		t.Fatalf("job map holds %d entries after storm, want %d", got, retain)
	}
	mt := m.Metrics()
	if int(mt.Rejected) != saturated {
		t.Fatalf("metrics rejected %d, callers saw %d ErrSaturated", mt.Rejected, saturated)
	}
}

// TestSubmitCancelShutdownStorm hammers the manager's control plane from
// many goroutines at once — submits racing cancels racing an eventual
// shutdown — looking for deadlocks and data races rather than results.
func TestSubmitCancelShutdownStorm(t *testing.T) {
	m, err := New(Config{Slots: 2, Medians: 2, Clients: 3, QueueLimit: 4})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var ids []string
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				spec := stormSpecs(9)[(w*5+i)%9]
				spec.Seed = uint64(1000 + w*100 + i)
				id, err := m.Submit(context.Background(), spec)
				if err != nil {
					if err == ErrSaturated || err == ErrClosed {
						continue // expected under load
					}
					t.Errorf("submit: %v", err)
					return
				}
				mu.Lock()
				ids = append(ids, id)
				mu.Unlock()
				if i%2 == 0 {
					go m.Cancel(id) //nolint:errcheck // racing completion is the point
				}
			}
		}(w)
	}
	wg.Wait()
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, id := range ids {
		st, err := m.Get(id)
		if err != nil {
			t.Fatalf("get %s: %v", id, err)
		}
		if !st.State.Terminal() {
			t.Fatalf("job %s not terminal after shutdown: %s", id, st.State)
		}
	}
}
