package main

// serveLoop end to end, in-process: a worker serving through a fault
// proxy loses the coordinator to a one-way blackhole — only its -silence
// monitor can notice, since its own writes still get through — redials
// through the same proxy, revives its slot, serves a bit-identical job on
// the healed pool, and still exits cleanly on the orderly shutdown.

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/sudoku"
)

func TestServeLoopRedialsAfterSilence(t *testing.T) {
	pool, err := parallel.NewNetPool(
		parallel.PoolConfig{Slots: 1, Medians: 2, Clients: 3},
		parallel.NetPoolConfig{
			Listen:  "127.0.0.1:0",
			Workers: 1,
			// Fast pings so the healthy stream never looks silent, and a
			// coordinator-side timeout far beyond the worker's budget so
			// the worker's own monitor is what detects the blackhole.
			Heartbeat:        20 * time.Millisecond,
			HeartbeatTimeout: 30 * time.Second,
		},
	)
	if err != nil {
		t.Fatal(err)
	}

	proxy, err := faultnet.NewProxy(pool.WorkerAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	var mu sync.Mutex
	var lines []string
	logf := func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}

	loopDone := make(chan error, 1)
	go func() {
		loopDone <- serveLoop(workerOpts{
			connect: proxy.Addr(),
			retry:   10 * time.Second,
			silence: 150 * time.Millisecond,
			redials: 3,
			backoff: 50 * time.Millisecond,
			// Pinned jitter keeps the redial timing reproducible.
			jitterSeed: 1,
			logf:       logf,
		})
	}()

	waitMetrics := func(what string, cond func(parallel.PoolMetrics) bool) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for !cond(pool.Metrics()) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s: %+v", what, pool.Metrics())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// A served job proves the first connection is live.
	cfg := parallel.Config{Level: 2, Root: sudoku.New(2), Seed: 7}
	solo, err := parallel.Reference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, err := pool.RunJob(0, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first.Score != solo.Score {
		t.Fatalf("pre-loss job scored %v, solo %v", first.Score, solo.Score)
	}

	// Silence the coordinator→worker direction: pings stop arriving, the
	// worker's writes still flow, and its silence monitor must end the
	// serve (the coordinator then sees the worker's close as a loss).
	proxy.BlackholeDir(faultnet.Down, true)
	waitMetrics("worker loss", func(m parallel.PoolMetrics) bool { return m.WorkersLost >= 1 })
	// Lift the hole before the redial handshake needs the Down direction.
	proxy.BlackholeDir(faultnet.Down, false)
	waitMetrics("redial rejoin", func(m parallel.PoolMetrics) bool { return m.WorkersRejoined >= 1 })

	// The revived worker serves bit-identical work.
	second, err := pool.RunJob(0, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if second.Score != solo.Score || second.Steps != solo.Steps ||
		second.Jobs != solo.Jobs || second.WorkUnits != solo.WorkUnits {
		t.Fatalf("post-redial job diverged: %+v vs solo %+v", second, solo)
	}

	// Orderly shutdown: the loop must exit nil, not burn its redials.
	pool.Shutdown()
	select {
	case err := <-loopDone:
		if err != nil {
			t.Fatalf("serveLoop: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("serveLoop never returned after shutdown")
	}

	mu.Lock()
	defer mu.Unlock()
	redialed := false
	for _, l := range lines {
		if strings.Contains(l, "redialing") {
			redialed = true
		}
	}
	if !redialed {
		t.Fatalf("no redial logged; log was:\n%s", strings.Join(lines, "\n"))
	}
}

// TestRedialDelayBackoff pins the backoff envelope: attempt n waits at
// least half of base<<(n-1) and at most the full doubled value, capped.
func TestRedialDelayBackoff(t *testing.T) {
	jitter := rng.New(42)
	base := 100 * time.Millisecond
	for attempt := 1; attempt <= 12; attempt++ {
		full := base << (attempt - 1)
		if shift := attempt - 1; shift > 10 {
			full = base << 10
		}
		if full > 30*time.Second {
			full = 30 * time.Second
		}
		for i := 0; i < 20; i++ {
			d := redialDelay(jitter, base, attempt)
			if d < full/2 || d > full {
				t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, full/2, full)
			}
		}
	}
	if d := redialDelay(jitter, 0, 1); d <= 0 {
		t.Fatalf("zero base must fall back to a positive delay, got %v", d)
	}
}

// TestRedialDelayDeterministic pins the jitter source: the backoff
// schedule is a pure function of the seed (workerOpts.jitterSeed), so it
// is reproducible in tests and immune to other users of math/rand.
func TestRedialDelayDeterministic(t *testing.T) {
	schedule := func(seed uint64) []time.Duration {
		jitter := rng.New(seed)
		var ds []time.Duration
		for attempt := 1; attempt <= 8; attempt++ {
			ds = append(ds, redialDelay(jitter, 100*time.Millisecond, attempt))
		}
		return ds
	}
	a, b := schedule(7), schedule(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("attempt %d: same seed gave %v then %v", i+1, a[i], b[i])
		}
	}
	if c := schedule(8); func() bool {
		for i := range a {
			if a[i] != c[i] {
				return false
			}
		}
		return true
	}() {
		t.Fatalf("seeds 7 and 8 produced identical schedules %v", a)
	}
}
