package parallel

// The pool's rank layout: each worker process hosts one contiguous range
// of median ranks, an even share of the medians, and runs an even share of
// the clients as helpers, so that at every worker count NewNetPool
// accepts, every worker hosts a median.

import (
	"fmt"
	"math"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/mpi"
	"repro/internal/sudoku"
)

// TestPoolWorldLayout checks the layout rule at every shape of up to 24
// medians and 24 clients and every worker count NewNetPool accepts: the
// medians are the worker ranks, in order; worker i's range holds exactly
// splitRanks(M, W)[i] medians; it runs splitRanks(C, W)[i] helpers when
// that is more than its medians and none otherwise; and its idle telemetry
// maps onto its own medians and then its own clients, each series entry
// fed by exactly one worker.
func TestPoolWorldLayout(t *testing.T) {
	const slots = 2
	for m := 1; m <= 24; m++ {
		for c := 1; c <= 24; c++ {
			for workers := 1; workers <= m; workers++ {
				checkPoolWorld(t, PoolConfig{Slots: slots, Medians: m, Clients: c}, workers)
			}
		}
	}
}

// checkPoolWorld checks one shape of TestPoolWorldLayout.
func checkPoolWorld(t *testing.T, cfg PoolConfig, workers int) {
	t.Helper()
	w := newPoolWorld(cfg, workers)
	first := w.firstWorker()
	if first != mpi.Rank(cfg.Slots+1) || w.size() != cfg.Slots+1+cfg.Medians {
		t.Fatalf("%+v on %d: first worker %d, size %d", cfg, workers, first, w.size())
	}
	if len(w.medians) != cfg.Medians {
		t.Fatalf("%+v on %d: %d medians", cfg, workers, len(w.medians))
	}
	for i, r := range w.medians {
		if r != first+mpi.Rank(i) {
			t.Fatalf("%+v on %d: medians %v are not the worker ranks", cfg, workers, w.medians)
		}
	}
	for r := mpi.Rank(-1); int(r) <= w.size(); r++ {
		if isMedianRank(w, r) != (slices.Index(w.medians, r) >= 0) {
			t.Fatalf("%+v on %d: rank %d: isMedianRank %v", cfg, workers, r, isMedianRank(w, r))
		}
	}

	medians, clients := splitRanks(cfg.Medians, workers), splitRanks(cfg.Clients, workers)
	if len(w.ranks) != workers {
		t.Fatalf("%+v on %d: %d worker ranges", cfg, workers, len(w.ranks))
	}
	fed := make([]int, cfg.Medians+cfg.Clients)
	lo, firstClient := first, 0
	for i, size := range w.ranks {
		hi := lo + mpi.Rank(size)
		if size != medians[i] {
			t.Fatalf("%+v on %d: worker %d [%d, %d) hosts %d medians, want %d", cfg, workers, i, lo, hi, size, medians[i])
		}
		if p, ok := w.process(lo); !ok || p != i {
			t.Fatalf("%+v on %d: process(%d) = %d, %v, want %d", cfg, workers, lo, p, ok, i)
		}
		if !w.isRange(lo, hi) || w.isRange(lo, hi+1) || (size > 1 && w.isRange(lo+1, hi)) {
			t.Fatalf("%+v on %d: isRange disagrees with worker %d's range [%d, %d)", cfg, workers, i, lo, hi)
		}
		n, fc := w.helpers(i)
		helpers := 0
		if clients[i] > medians[i] {
			helpers = clients[i]
		}
		if n != helpers || fc != firstClient {
			t.Fatalf("%+v on %d: worker %d runs %d helpers from client %d, want %d from %d", cfg, workers, i, n, fc, helpers, firstClient)
		}
		for k := 0; ; k++ {
			j, ok := w.idleIndex(lo, k)
			if !ok {
				if k != size+clients[i] {
					t.Fatalf("%+v on %d: worker %d's telemetry maps %d entries, want %d", cfg, workers, i, k, size+clients[i])
				}
				break
			}
			want := int(lo-first) + k
			if k >= size {
				want = cfg.Medians + firstClient + k - size
			}
			if j != want {
				t.Fatalf("%+v on %d: worker %d's telemetry entry %d maps to %d, want %d", cfg, workers, i, k, j, want)
			}
			fed[j]++
		}
		lo, firstClient = hi, firstClient+clients[i]
	}
	for j, n := range fed {
		if n != 1 {
			t.Fatalf("%+v on %d: idle series entry %d fed by %d workers", cfg, workers, j, n)
		}
	}
}

// TestNetPoolRefusesWorkersWithoutBothRoles asks NewNetPool for one worker
// more than medians: some worker would host no median, and the pool must
// refuse, naming the bound, before it listens. A worker needs no client:
// one worker more than clients is accepted.
func TestNetPoolRefusesWorkersWithoutBothRoles(t *testing.T) {
	// Hold the port the pool would bind: a pool that listened first would
	// fail with an address-in-use error instead of the bound.
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	for _, cfg := range []PoolConfig{{Medians: 2, Clients: 5}, {Medians: 4, Clients: 3}, {Medians: 1, Clients: 1}} {
		bound := cfg.Medians
		pool, err := NewNetPool(cfg, NetPoolConfig{Listen: taken.Addr().String(), Workers: bound + 1})
		if err == nil {
			pool.Shutdown()
			t.Fatalf("%d medians, %d clients: %d workers accepted", cfg.Medians, cfg.Clients, bound+1)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("medians = %d", bound)) {
			t.Fatalf("%d medians, %d clients, %d workers: error %q does not name the bound", cfg.Medians, cfg.Clients, bound+1, err)
		}
	}
	pool, err := NewNetPool(PoolConfig{Medians: 3, Clients: 2}, NetPoolConfig{Listen: "127.0.0.1:0", Workers: 3})
	if err != nil {
		t.Fatalf("3 workers for 3 medians and 2 clients: %v", err)
	}
	pool.Shutdown()
}

// TestNetPoolWorkersHostBothRoles runs a job at net_loopback's shape — two
// slots, two medians, two clients, two workers — and checks that each
// worker hosted one median and, with no more clients than medians, ran no
// helper, and that the job matched the reference.
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
		if s.Medians != 1 || s.Clients != 0 {
			t.Fatalf("worker %d hosted %d medians and ran %d helpers, want 1 and 0", i, s.Medians, s.Clients)
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

// TestNetPoolChunksStayInProcess runs a sudoku box-3 level-2 game on two
// workers that each host a median and run two helpers: each worker shares
// its steps in its own memory, so no rollout reaches the coordinator. The
// job must match the reference, helpers must join steps, the hub must
// relay nothing, and what the coordinator sees — grants, work requests,
// step scores — must stay under half a frame per rollout.
func TestNetPoolChunksStayInProcess(t *testing.T) {
	noGoroutineLeak(t)
	pool, err := NewNetPool(
		PoolConfig{Slots: 2, Medians: 2, Clients: 4},
		NetPoolConfig{Listen: "127.0.0.1:0", Workers: 2},
	)
	if err != nil {
		t.Fatal(err)
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
	assertSameResult(t, "net pool with helpers", res, solo)
	if chunks == 0 {
		t.Fatalf("no helper joined a step of %d rollouts", res.Jobs)
	}
	if st.Relayed != 0 {
		t.Fatalf("the hub relayed %d frames", st.Relayed)
	}
	if perRollout := float64(st.FramesSent+st.FramesRecv) / float64(res.Jobs); perRollout > 0.5 {
		t.Fatalf("%d frames sent and %d received for %d rollouts: %.2f per rollout",
			st.FramesSent, st.FramesRecv, res.Jobs, perRollout)
	}
}
