package service

// The service on a distributed pool: a Manager configured with external
// workers must serve jobs bit-identically to the in-process pool, through
// the same Submit/Wait surface cmd/pnmcsd exposes. The workers run
// in-process over loopback TCP; the CI distributed smoke job repeats the
// check with real pnmcs-worker processes.

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/mpi"
	"repro/internal/parallel"
)

// TestNewRefusesWorkersWithoutBothRoles configures a distributed manager
// the way pnmcsd -workers 3 -medians 2 -clients 4 does: every worker must
// host a median and a client, so New must fail and name the bound, which
// is the message pnmcsd exits with.
func TestNewRefusesWorkersWithoutBothRoles(t *testing.T) {
	m, err := New(Config{Slots: 1, Medians: 2, Clients: 4, Workers: 3, WorkerListen: "127.0.0.1:0"})
	if err == nil {
		m.Shutdown(context.Background()) //nolint:errcheck // already failing
		t.Fatal("3 workers for 2 medians accepted")
	}
	if !strings.Contains(err.Error(), "min(medians, clients) = 2") {
		t.Fatalf("error %q does not name the bound", err)
	}
}

func TestDistributedServiceEquivalence(t *testing.T) {
	m, err := New(Config{
		Slots: 2, Medians: 2, Clients: 2,
		Workers: 2, WorkerListen: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.WorkerAddr() == "" {
		t.Fatal("distributed manager reports no worker address")
	}

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		w, err := mpi.DialWorker(m.WorkerAddr(), "")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := parallel.ServeWorker(w); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}

	specs := []JobSpec{
		{Domain: "sudoku", Box: 2, Level: 2, Seed: 7},
		{Domain: "samegame", Width: 5, Height: 5, Colors: 3, BoardSeed: 3, Level: 2, Seed: 5, Memorize: true},
		{Domain: "morpion", Variant: "4D", Level: 2, Seed: 11, Memorize: true, FirstMoveOnly: true},
	}
	for _, spec := range specs {
		id, err := m.Submit(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Domain, err)
		}
		st, err := m.Wait(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone {
			t.Fatalf("%s: state %s (err %q)", spec.Domain, st.State, st.Error)
		}

		cfg, err := spec.Config()
		if err != nil {
			t.Fatal(err)
		}
		solo, err := parallel.Reference(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if st.Score != solo.Score {
			t.Fatalf("%s: score %v != solo %v", spec.Domain, st.Score, solo.Score)
		}
		if len(st.Sequence) != len(solo.Sequence) {
			t.Fatalf("%s: sequence length %d != %d", spec.Domain, len(st.Sequence), len(solo.Sequence))
		}
		for i := range st.Sequence {
			if st.Sequence[i] != solo.Sequence[i] {
				t.Fatalf("%s: sequences differ at %d", spec.Domain, i)
			}
		}
		if st.Rollouts != solo.Jobs || st.WorkUnits != solo.WorkUnits {
			t.Fatalf("%s: accounting %d/%d != solo %d/%d",
				spec.Domain, st.Rollouts, st.WorkUnits, solo.Jobs, solo.WorkUnits)
		}
	}

	mt := m.Metrics()
	if mt.Pool.Net == nil || mt.Pool.Net.FramesSent == 0 {
		t.Fatalf("no transport counters in service metrics: %+v", mt.Pool.Net)
	}

	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestDistributedServiceWorkerChurn kills a worker process mid-job
// through the HTTP-facing Manager surface: the job must complete with the
// undisturbed result once a replacement rejoins, the churn must be
// visible in the service metrics, and an authenticated coordinator must
// have admitted only token-bearing workers along the way. The kill lands
// mid-job by the fault schedule, not by the clock: the doomed worker's
// frames to the coordinator are held from before the submit until the
// sever, so the first root step, which waits for that worker's median,
// cannot finish before the kill takes the median's grant with it.
func TestDistributedServiceWorkerChurn(t *testing.T) {
	const token = "churn-secret"
	m, err := New(Config{
		Slots: 1, Medians: 2, Clients: 3,
		Workers: 2, WorkerListen: "127.0.0.1:0", WorkerToken: token,
	})
	if err != nil {
		t.Fatal(err)
	}

	// A tokenless dial must be turned away before claiming a slot.
	if _, err := mpi.DialWorker(m.WorkerAddr(), ""); !errors.Is(err, mpi.ErrBadToken) {
		t.Fatalf("tokenless worker admitted: %v", err)
	}

	serve := func(w *mpi.NetWorker) chan struct{} {
		done := make(chan struct{})
		go func() {
			defer close(done)
			if _, err := parallel.ServeWorker(w); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
		return done
	}

	// Worker 1 dials through a fault proxy (the one that will die),
	// worker 2 directly.
	proxy, err := faultnet.NewProxy(m.WorkerAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	w1, err := mpi.DialWorker(proxy.Addr(), token)
	if err != nil {
		t.Fatal(err)
	}
	w1done := serve(w1)
	w2, err := mpi.DialWorker(m.WorkerAddr(), token)
	if err != nil {
		t.Fatal(err)
	}
	w2done := serve(w2)

	spec := JobSpec{Domain: "samegame", Width: 6, Height: 6, Colors: 3, BoardSeed: 3, Level: 2, Seed: 5, Memorize: true}
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	netStats := func() mpi.NetStats { return *m.Metrics().Pool.Net }
	waitFrames := func(what string, done func(mpi.NetStats) bool) {
		for !done(netStats()) {
			if time.Now().After(deadline) {
				t.Fatalf("timeout waiting for %s: %+v", what, netStats())
			}
			time.Sleep(time.Millisecond)
		}
	}
	// Both medians' opening work requests are in: each median waits at the
	// scheduler, so the first step's first two candidates go one to each.
	waitFrames("the medians' opening work requests", func(n mpi.NetStats) bool { return n.FramesRecv >= 2 })
	// From here on the proxied worker's median can take a grant but never
	// report on it: its score and its next work request are held.
	proxy.SetDelayDir(faultnet.Up, 5*time.Second, 0)
	granted := netStats().FramesSent
	id, err := m.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	// Every candidate of the first step has been granted, one of them to
	// the held median: kill its worker, then bring in a replacement.
	first := uint64(len(cfg.Root.LegalMoves(nil)))
	waitFrames("the first step's grants", func(n mpi.NetStats) bool { return n.FramesSent >= granted+first })
	proxy.Sever()
	<-w1done
	proxy.SetDelayDir(faultnet.Up, 0, 0)
	var w3 *mpi.NetWorker
	for {
		w3, err = mpi.DialWorker(m.WorkerAddr(), token)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replacement never admitted: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	w3done := serve(w3)

	st, err := m.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("churned job state %s (error %q)", st.State, st.Error)
	}

	if st.Regranted == 0 {
		t.Fatal("the kill took no grant with it: the job was not mid-step")
	}

	// Bit-identical to the undisturbed solo run, churn and all.
	solo, err := parallel.Reference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Score != solo.Score || st.Steps != solo.Steps ||
		st.Rollouts != solo.Jobs || st.WorkUnits != solo.WorkUnits {
		t.Fatalf("churned job diverged: %+v vs solo %+v", st, solo)
	}
	for i := range st.Sequence {
		if st.Sequence[i] != solo.Sequence[i] {
			t.Fatalf("sequences differ at move %d", i)
		}
	}

	mt := m.Metrics()
	if mt.Pool.WorkersLost < 1 || mt.Pool.WorkersRejoined < 1 {
		t.Fatalf("churn not recorded in service metrics: %+v", mt.Pool)
	}

	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	<-w2done
	<-w3done
}

// TestDistributedServiceRetryToSuccess drives the fail-fast + retry
// pipeline end to end: with degradation disabled, a worker killed with no
// immediate replacement is abandoned after its grace window and the
// running job fails fast with ErrDegraded; the Manager's retry policy
// re-queues it under its original seed, a replacement worker revives the
// pool, and the retried run completes bit-identical to the undisturbed
// solo result. The job is submitted once the pool has failed, with the
// surviving worker still hosting a median and a client: only the
// Degrade-off floor (every worker must stay) fails the pool there, and a
// job this small would finish between a mid-run kill and the end of the
// grace window, since each worker dispatches its own clients.
func TestDistributedServiceRetryToSuccess(t *testing.T) {
	m, err := New(Config{
		Slots: 1, Medians: 2, Clients: 3,
		Workers: 2, WorkerListen: "127.0.0.1:0",
		// Degrade off: any abandonment fails the pool until capacity
		// returns. Short grace + short backoff keep the test fast.
		ReplaceGrace: 100 * time.Millisecond,
		Retry:        RetryPolicy{Max: 20, Backoff: 50 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Cap each retry delay at 10ms of real time: the exponential schedule
	// itself is pinned by TestRetryDelayBoundsAndDeterminism; this test is
	// about the fail-fast → re-queue → revive pipeline, not about waiting
	// it out. Pacing (not zero delay) is kept so the budget of attempts
	// spans the replacement worker's handshake; Max 20 gives ~200ms of
	// revival window against a ~10ms rejoin.
	m.after = func(d time.Duration, f func()) *time.Timer {
		if d > 10*time.Millisecond {
			d = 10 * time.Millisecond
		}
		return time.AfterFunc(d, f)
	}

	serve := func(w *mpi.NetWorker) chan struct{} {
		done := make(chan struct{})
		go func() {
			defer close(done)
			if _, err := parallel.ServeWorker(w); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
		return done
	}

	proxy, err := faultnet.NewProxy(m.WorkerAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	w1, err := mpi.DialWorker(proxy.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	w1done := serve(w1)
	w2, err := mpi.DialWorker(m.WorkerAddr(), "")
	if err != nil {
		t.Fatal(err)
	}
	w2done := serve(w2)

	// Kill the proxied worker and withhold the replacement until the
	// pool has failed and the fail-fast + retry machinery has visibly
	// engaged. The surviving worker still hosts a median and a client.
	proxy.Sever()
	<-w1done
	deadline := time.Now().Add(30 * time.Second)
	for !m.Metrics().Pool.Failed {
		if time.Now().After(deadline) {
			t.Fatalf("pool never failed after the abandonment: %+v", m.Metrics().Pool)
		}
		time.Sleep(2 * time.Millisecond)
	}

	spec := JobSpec{Domain: "samegame", Width: 6, Height: 6, Colors: 3, BoardSeed: 3, Level: 2, Seed: 5, Memorize: true}
	id, err := m.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	waitStatus := func(what string, cond func(JobStatus) bool) {
		t.Helper()
		for {
			st, err := m.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if cond(st) {
				return
			}
			if st.State.Terminal() {
				t.Fatalf("job terminal before %s: %+v", what, st)
			}
			if time.Now().After(deadline) {
				t.Fatalf("timeout waiting for %s: %+v", what, st)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	waitStatus("fail-fast retry", func(st JobStatus) bool { return st.Retries >= 1 })

	// Capacity returns; the retried run must now succeed.
	var w3 *mpi.NetWorker
	for {
		w3, err = mpi.DialWorker(m.WorkerAddr(), "")
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replacement never admitted: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	w3done := serve(w3)

	st, err := m.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("retried job state %s (error %q)", st.State, st.Error)
	}
	if st.Retries < 1 {
		t.Fatalf("job completed without recorded retries: %+v", st)
	}

	// The retried run carries the original seed: bit-identical to solo.
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	solo, err := parallel.Reference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Score != solo.Score || st.Steps != solo.Steps ||
		st.Rollouts != solo.Jobs || st.WorkUnits != solo.WorkUnits {
		t.Fatalf("retried job diverged: %+v vs solo %+v", st, solo)
	}
	for i := range st.Sequence {
		if st.Sequence[i] != solo.Sequence[i] {
			t.Fatalf("sequences differ at move %d", i)
		}
	}

	mt := m.Metrics()
	if mt.Retried < 1 {
		t.Fatalf("retry not counted in service metrics: %+v", mt)
	}
	if mt.Pool.WorkersAbandoned < 1 {
		t.Fatalf("abandonment not recorded in pool metrics: %+v", mt.Pool)
	}

	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	<-w2done
	<-w3done
}
