package parallel

// The pool's rank layout: medians and clients interleaved so that any
// contiguous range of worker ranks — in particular each worker process's
// share under NewNetPool's even split — holds its proportional share of
// both roles.

import (
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/sudoku"
)

// TestPoolWorldLayout checks the layout rule over a table of pool shapes
// and worker counts: the role lists partition the worker ranks, every
// role lookup agrees with them, each worker's range holds ⌊·⌋ or ⌈·⌉ of
// its proportional share of medians, and at the table's shapes with at
// least as many medians and clients as workers, every worker hosts both
// roles. (The rule guarantees that whenever each worker's range holds at
// least n/min(M, C) ranks; with more workers a range may not.) The local
// column is NewNetPool's dispatch choice: each worker dispatches its own
// clients exactly when every range hosts both roles, and the coordinator's
// dispatcher runs otherwise.
func TestPoolWorldLayout(t *testing.T) {
	for _, tc := range []struct {
		slots, m, c, w int
		local          bool
	}{
		{1, 1, 1, 1, true}, {2, 2, 2, 2, true}, {1, 2, 3, 1, true},
		{4, 4, 8, 1, true}, {4, 4, 8, 2, true}, {4, 4, 8, 3, true}, {4, 4, 8, 4, true},
		{2, 3, 5, 2, true}, {1, 1, 8, 2, false}, {3, 5, 9, 3, true},
		{1, 1, 3, 2, false}, {1, 2, 2, 3, false}, {4, 4, 8, 6, false},
	} {
		w := newPoolWorld(PoolConfig{Slots: tc.slots, Medians: tc.m, Clients: tc.c})
		n := tc.m + tc.c
		first := w.firstWorker()
		if first != mpi.Rank(tc.slots+2) || w.size() != tc.slots+2+n {
			t.Fatalf("%+v: first worker %d, size %d", tc, first, w.size())
		}
		if len(w.medians) != tc.m || len(w.clients) != tc.c {
			t.Fatalf("%+v: %d medians, %d clients", tc, len(w.medians), len(w.clients))
		}
		all := slices.Sorted(slices.Values(append(slices.Clone(w.medians), w.clients...)))
		for i, r := range all {
			if r != first+mpi.Rank(i) {
				t.Fatalf("%+v: medians %v and clients %v do not partition the worker ranks", tc, w.medians, w.clients)
			}
		}
		for r := mpi.Rank(-1); int(r) <= w.size(); r++ {
			mi, ci := slices.Index(w.medians, r), slices.Index(w.clients, r)
			if isMedianRank(w, r) != (mi >= 0) || isClientRank(w, r) != (ci >= 0) {
				t.Fatalf("%+v: rank %d: isMedianRank %v, isClientRank %v, lists %d/%d",
					tc, r, isMedianRank(w, r), isClientRank(w, r), mi, ci)
			}
			ro, ok := w.role(r)
			switch {
			case !ok && (mi >= 0 || ci >= 0):
				t.Fatalf("%+v: worker rank %d has no role", tc, r)
			case ok && ro.median && ro.index != mi, ok && !ro.median && ro.index != ci:
				t.Fatalf("%+v: rank %d role %+v disagrees with the lists (%d, %d)", tc, r, ro, mi, ci)
			}
		}

		if got := localDispatch(w, splitRanks(n, tc.w)); got != tc.local {
			t.Fatalf("%+v: local dispatch %v", tc, got)
		}
		lo := first
		for i, size := range splitRanks(n, tc.w) {
			hi := lo + mpi.Rank(size)
			medians := 0
			for r := lo; r < hi; r++ {
				if isMedianRank(w, r) {
					medians++
				}
			}
			share := float64(size*tc.m) / float64(n)
			if medians != int(math.Floor(share)) && medians != int(math.Ceil(share)) {
				t.Fatalf("%+v: worker %d [%d, %d) hosts %d medians, share %.2f", tc, i, lo, hi, medians, share)
			}
			if tc.m >= tc.w && tc.c >= tc.w && (medians == 0 || medians == size) {
				t.Fatalf("%+v: worker %d [%d, %d) hosts %d medians of %d ranks, want both roles", tc, i, lo, hi, medians, size)
			}
			lo = hi
		}
	}
}

// TestNetPoolWorkersHostBothRoles runs a job at net_loopback's shape — two
// slots, two medians, two clients, two workers — and checks that each
// worker hosted one median and one client, and that the job matched the
// reference.
func TestNetPoolWorkersHostBothRoles(t *testing.T) {
	pool, err := NewNetPool(
		PoolConfig{Slots: 2, Medians: 2, Clients: 2},
		NetPoolConfig{Listen: "127.0.0.1:0", Workers: 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	stats := make([]WorkerStats, 2)
	var wg sync.WaitGroup
	for i := range stats {
		w, err := mpi.DialWorker(pool.WorkerAddr(), "")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := ServeWorker(w)
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
			stats[i] = s
		}()
	}
	cfg := Config{Level: 2, Root: sudoku.New(2), Seed: 7}
	res, err := pool.RunJob(0, cfg, nil)
	pool.Shutdown()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	solo, err := Reference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "net pool at net_loopback's shape", res, solo)
	for i, s := range stats {
		if s.Medians != 1 || s.Clients != 1 {
			t.Fatalf("worker %d hosted %d medians and %d clients, want 1 and 1", i, s.Medians, s.Clients)
		}
	}
}

// TestNetPoolDropsBadIdleTelemetry feeds a worker's idle snapshots through
// the coordinator's telemetry path: a well-formed snapshot lands in the
// pool's idle metrics, and one with a NaN, infinite, negative or
// overflowing entry is dropped whole — the metrics stay where they were.
func TestNetPoolDropsBadIdleTelemetry(t *testing.T) {
	pool, err := NewNetPool(
		PoolConfig{Slots: 1, Medians: 1, Clients: 1},
		NetPoolConfig{Listen: "127.0.0.1:0", Workers: 1, Heartbeat: 2 * time.Millisecond, HeartbeatTimeout: 10 * time.Second},
	)
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpi.DialWorker(pool.WorkerAddr(), "")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	snapshot := []float64{1.5, 2.5}
	w.SetTelemetry(func() []float64 {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(snapshot)
	})
	lo, hi := w.RankRange()
	for r := lo; r < hi; r++ {
		w.Start(r, func(c mpi.Comm) {
			for c.Recv(mpi.AnyRank, mpi.AnyTag).Tag != tagShutdown {
			}
		})
	}
	done := make(chan struct{})
	go func() {
		w.Run()
		close(done)
	}()
	defer func() {
		pool.Shutdown()
		<-done
	}()

	idle := func() []time.Duration {
		m := pool.Metrics()
		return append(m.MedianIdle, m.ClientIdle...)
	}
	deadline := time.Now().Add(10 * time.Second)
	for slices.Max(idle()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no telemetry snapshot reached the pool")
		}
		time.Sleep(time.Millisecond)
	}
	want := idle()
	if slices.Min(want) < time.Second {
		t.Fatalf("idle %v after the well-formed snapshot", want)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 1e10} {
		mu.Lock()
		snapshot = []float64{9, bad} // a good entry too: the snapshot goes whole
		mu.Unlock()
		// Wait for a few more pongs to be read past the switch.
		recv := pool.net.Stats().FramesRecv
		for pool.net.Stats().FramesRecv < recv+3 {
			if time.Now().After(deadline) {
				t.Fatal("no pongs after the switch")
			}
			time.Sleep(time.Millisecond)
		}
		if got := idle(); !slices.Equal(got, want) {
			t.Fatalf("snapshot with %v moved idle from %v to %v", bad, want, got)
		}
	}
}

// TestNetPoolChunksStayInProcess runs a sudoku box-3 level-2 game on
// net_loopback's shape, where every worker hosts a median and a client:
// each worker dispatches its own clients, so no chunk or chunk result
// reaches the coordinator. The job must match the reference, the hub must
// relay nothing, and what the coordinator sees — grants, work requests,
// step scores — must stay under half a frame per rollout. (A coordinator
// dispatcher costs three frames per chunk: the request, the assignment and
// the free notice.) Each median reaches one client, so it ships every step
// whole, in as many chunks as an in-process 2-median × 1-client pool.
func TestNetPoolChunksStayInProcess(t *testing.T) {
	noGoroutineLeak(t)
	pool, err := NewNetPool(
		PoolConfig{Slots: 2, Medians: 2, Clients: 2},
		NetPoolConfig{Listen: "127.0.0.1:0", Workers: 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	if !pool.local {
		t.Fatal("net_loopback's shape runs the coordinator's dispatcher")
	}
	wait := startNetWorkers(t, pool.WorkerAddr(), 2)
	cfg := Config{Level: 2, Root: sudoku.New(3), Seed: 3}
	res, err := pool.RunJob(0, cfg, nil)
	st, chunks := pool.net.Stats(), pool.Metrics().Chunks
	pool.Shutdown()
	wait()
	if err != nil {
		t.Fatal(err)
	}
	solo, err := Reference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "net pool with local dispatch", res, solo)
	one, err := NewPool(PoolConfig{Slots: 1, Medians: 2, Clients: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = one.RunJob(0, cfg, nil)
	whole := one.Metrics().Chunks
	one.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	if chunks != whole {
		t.Fatalf("%d chunks for %d rollouts, want %d: one per step", chunks, res.Jobs, whole)
	}
	if st.Relayed != 0 {
		t.Fatalf("the hub relayed %d frames", st.Relayed)
	}
	if perRollout := float64(st.FramesSent+st.FramesRecv) / float64(res.Jobs); perRollout > 0.5 {
		t.Fatalf("%d frames sent and %d received for %d rollouts: %.2f per rollout",
			st.FramesSent, st.FramesRecv, res.Jobs, perRollout)
	}
}
