package parallel

// The pool's rank layout: each worker process hosts one contiguous range
// of ranks holding an even share of the medians and of the clients, so
// that at every worker count NewNetPool accepts, every worker hosts both
// roles.

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
// role lists partition the worker ranks, every role lookup agrees with
// them, worker i's range holds exactly splitRanks(M, W)[i] medians and
// splitRanks(C, W)[i] clients, and one worker lays the ranks out in the
// interleave the single-process pool has always used.
func TestPoolWorldLayout(t *testing.T) {
	const slots = 2
	for m := 1; m <= 24; m++ {
		for c := 1; c <= 24; c++ {
			for workers := 1; workers <= min(m, c); workers++ {
				checkPoolWorld(t, PoolConfig{Slots: slots, Medians: m, Clients: c}, workers)
			}
		}
	}
}

// checkPoolWorld checks one shape of TestPoolWorldLayout.
func checkPoolWorld(t *testing.T, cfg PoolConfig, workers int) {
	t.Helper()
	w := newPoolWorld(cfg, workers)
	n := cfg.Medians + cfg.Clients
	first := w.firstWorker()
	if first != mpi.Rank(cfg.Slots+1) || w.size() != cfg.Slots+1+n {
		t.Fatalf("%+v on %d: first worker %d, size %d", cfg, workers, first, w.size())
	}
	if len(w.medians) != cfg.Medians || len(w.clients) != cfg.Clients {
		t.Fatalf("%+v on %d: %d medians, %d clients", cfg, workers, len(w.medians), len(w.clients))
	}
	all := slices.Sorted(slices.Values(append(slices.Clone(w.medians), w.clients...)))
	for i, r := range all {
		if r != first+mpi.Rank(i) {
			t.Fatalf("%+v on %d: medians %v and clients %v do not partition the worker ranks", cfg, workers, w.medians, w.clients)
		}
	}
	for r := mpi.Rank(-1); int(r) <= w.size(); r++ {
		mi, ci := slices.Index(w.medians, r), slices.Index(w.clients, r)
		if isMedianRank(w, r) != (mi >= 0) || isClientRank(w, r) != (ci >= 0) {
			t.Fatalf("%+v on %d: rank %d: isMedianRank %v, isClientRank %v, lists %d/%d",
				cfg, workers, r, isMedianRank(w, r), isClientRank(w, r), mi, ci)
		}
		ro, ok := w.role(r)
		switch {
		case !ok && (mi >= 0 || ci >= 0):
			t.Fatalf("%+v on %d: worker rank %d has no role", cfg, workers, r)
		case ok && ro.median && ro.index != mi, ok && !ro.median && ro.index != ci:
			t.Fatalf("%+v on %d: rank %d role %+v disagrees with the lists (%d, %d)", cfg, workers, r, ro, mi, ci)
		}
	}

	medians, clients := splitRanks(cfg.Medians, workers), splitRanks(cfg.Clients, workers)
	if len(w.ranks) != workers {
		t.Fatalf("%+v on %d: %d worker ranges", cfg, workers, len(w.ranks))
	}
	lo := first
	for i, size := range w.ranks {
		hi := lo + mpi.Rank(size)
		m := 0
		for r := lo; r < hi; r++ {
			if isMedianRank(w, r) {
				m++
			}
		}
		if m != medians[i] || size-m != clients[i] {
			t.Fatalf("%+v on %d: worker %d [%d, %d) hosts %d medians and %d clients, want %d and %d",
				cfg, workers, i, lo, hi, m, size-m, medians[i], clients[i])
		}
		if !w.isRange(lo, hi) || w.isRange(lo, hi+1) || (size > 1 && w.isRange(lo+1, hi)) {
			t.Fatalf("%+v on %d: isRange disagrees with worker %d's range [%d, %d)", cfg, workers, i, lo, hi)
		}
		lo = hi
	}

	if workers == 1 {
		// The interleave rule over all n worker ranks: rank k is a median
		// iff ⌊(k+1)·M/n⌋ > ⌊k·M/n⌋.
		for k := range n {
			want := (k+1)*cfg.Medians/n > k*cfg.Medians/n
			if isMedianRank(w, first+mpi.Rank(k)) != want {
				t.Fatalf("%+v on one worker: rank %d median %v, want %v", cfg, first+mpi.Rank(k), !want, want)
			}
		}
	}
}

// TestNetPoolRefusesWorkersWithoutBothRoles asks NewNetPool for one worker
// more than min(medians, clients): some worker would host no median or no
// client, and the pool must refuse, naming the bound, before it listens.
func TestNetPoolRefusesWorkersWithoutBothRoles(t *testing.T) {
	// Hold the port the pool would bind: a pool that listened first would
	// fail with an address-in-use error instead of the bound.
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	for _, cfg := range []PoolConfig{{Medians: 2, Clients: 5}, {Medians: 4, Clients: 3}, {Medians: 1, Clients: 1}} {
		bound := min(cfg.Medians, cfg.Clients)
		pool, err := NewNetPool(cfg, NetPoolConfig{Listen: taken.Addr().String(), Workers: bound + 1})
		if err == nil {
			pool.Shutdown()
			t.Fatalf("%d medians, %d clients: %d workers accepted", cfg.Medians, cfg.Clients, bound+1)
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("min(medians, clients) = %d", bound)) {
			t.Fatalf("%d medians, %d clients, %d workers: error %q does not name the bound", cfg.Medians, cfg.Clients, bound+1, err)
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

// TestNetPoolChunksStayInProcess runs a sudoku box-3 level-2 game on two
// workers that each host a median and two clients (c c m | c c m): each
// worker dispatches its own clients, so no chunk or chunk result reaches
// the coordinator. The job must match the reference, the hub must relay
// nothing, and what the coordinator sees — grants, work requests, step
// scores — must stay under half a frame per rollout. (A coordinator
// dispatcher costs three frames per chunk: the request, the assignment and
// the free notice.) Each median reaches two clients, so it ships every
// step in halves, in as many chunks as an in-process 1-median × 2-client
// pool.
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
	assertSameResult(t, "net pool with local dispatch", res, solo)
	one, err := NewPool(PoolConfig{Slots: 1, Medians: 1, Clients: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, err = one.RunJob(0, cfg, nil)
	whole := one.Metrics().Chunks
	one.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	if chunks == 0 || chunks != whole {
		t.Fatalf("%d chunks for %d rollouts, want %d: two per step of two moves or more", chunks, res.Jobs, whole)
	}
	if st.Relayed != 0 {
		t.Fatalf("the hub relayed %d frames", st.Relayed)
	}
	if perRollout := float64(st.FramesSent+st.FramesRecv) / float64(res.Jobs); perRollout > 0.5 {
		t.Fatalf("%d frames sent and %d received for %d rollouts: %.2f per rollout",
			st.FramesSent, st.FramesRecv, res.Jobs, perRollout)
	}
}
