package mpi

// Fault-path tests of the TCP transport, driven through the faultnet
// proxy: worker loss and rolling replacement, heartbeat detection of a
// blackholed stream, handshake authentication, and the edge paths a
// well-behaved worker never exercises (double goodbye, hellos torn
// mid-frame).

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/mpi/codec"
)

// lossRecorder collects transport hook events.
type lossRecorder struct {
	mu        sync.Mutex
	lost      []Rank // lo of each lost range
	joins     int
	rejoins   int
	abandoned []Rank       // lo of each abandoned range
	events    []string     // interleaved hook order: "lost", "abandoned"
	idle      atomic.Int64 // telemetry samples seen
}

func (lr *lossRecorder) config() (lost func(int, Rank, Rank), joined func(int, Rank, Rank, bool), stats func(int, Rank, []float64)) {
	return func(_ int, lo, _ Rank) {
			lr.mu.Lock()
			lr.lost = append(lr.lost, lo)
			lr.events = append(lr.events, "lost")
			lr.mu.Unlock()
		}, func(_ int, _, _ Rank, rejoin bool) {
			lr.mu.Lock()
			lr.joins++
			if rejoin {
				lr.rejoins++
			}
			lr.mu.Unlock()
		}, func(_ int, _ Rank, idle []float64) {
			lr.idle.Add(int64(len(idle)))
		}
}

func (lr *lossRecorder) snapshot() (lost, joins, rejoins int) {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	return len(lr.lost), lr.joins, lr.rejoins
}

// abandonHook returns an OnWorkerAbandoned hook that records each
// abandonment in the shared event log, so tests can assert it fires after
// the loss and at most once per loss.
func (lr *lossRecorder) abandonHook() func(int, Rank, Rank) {
	return func(_ int, lo, _ Rank) {
		lr.mu.Lock()
		lr.abandoned = append(lr.abandoned, lo)
		lr.events = append(lr.events, "abandoned")
		lr.mu.Unlock()
	}
}

func (lr *lossRecorder) abandons() int {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	return len(lr.abandoned)
}

func (lr *lossRecorder) eventLog() []string {
	lr.mu.Lock()
	defer lr.mu.Unlock()
	return append([]string(nil), lr.events...)
}

// waitUntil polls cond for up to 5 seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestNetWorkerLossAndRejoin severs a connected worker's stream and
// checks the full replacement cycle: the loss hook fires, frames sent
// while the slot is empty queue instead of dropping, and a replacement
// worker reclaims the same rank range and receives the queued frames.
func TestNetWorkerLossAndRejoin(t *testing.T) {
	const done Tag = 99
	var rec lossRecorder
	lost, joined, stats := rec.config()
	nc, err := ListenNet(NetConfig{
		Listen:         "127.0.0.1:0",
		LocalRanks:     1,
		WorkerRanks:    []int{1},
		OnWorkerLost:   lost,
		OnWorkerJoined: joined,
		OnWorkerStats:  stats,
	})
	if err != nil {
		t.Fatal(err)
	}

	got := make(chan any, 4)
	release := make(chan struct{})
	nc.Start(0, func(c Comm) {
		got <- c.Recv(1, 7).Payload // from the first worker
		<-release
		// Sent after the loss: must queue and flush to the replacement.
		c.Send(1, 8, uint64(4242))
		got <- c.Recv(1, 7).Payload // from the replacement
		c.Send(1, done, nil)
	})
	runDone := make(chan time.Duration, 1)
	go func() { runDone <- nc.Run() }()

	proxy, err := faultnet.NewProxy(nc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	// First worker: says hello, then hangs until severed.
	var wg sync.WaitGroup
	w1, err := DialWorker(proxy.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	w1.Start(1, func(c Comm) {
		c.Send(0, 7, uint64(1))
		c.Recv(AnyRank, done) // never arrives; stranded by the sever
	})
	wg.Add(1)
	go func() { defer wg.Done(); w1.Run() }()

	if v := <-got; v != uint64(1) {
		t.Fatalf("first worker payload %v", v)
	}
	if l, j, r := rec.snapshot(); l != 0 || j != 1 || r != 0 {
		t.Fatalf("before loss: lost %d joins %d rejoins %d", l, j, r)
	}

	proxy.Sever()
	waitUntil(t, "worker loss", func() bool { l, _, _ := rec.snapshot(); return l == 1 })
	wg.Wait() // the severed worker's Run returns via its reader error
	close(release)

	// Replacement dials the coordinator directly and must reclaim the
	// slot (retry while the loss is still releasing it).
	var w2 *NetWorker
	waitUntil(t, "replacement slot", func() bool {
		w2, err = DialWorker(nc.Addr(), "")
		return err == nil
	})
	w2.Start(1, func(c Comm) {
		// The frame queued while the slot was empty must arrive first
		// (flushed ahead of anything sent later), then announce.
		m := c.Recv(AnyRank, 8)
		c.Send(0, 7, m.Payload)
		c.Recv(AnyRank, done)
	})
	wg.Add(1)
	go func() { defer wg.Done(); w2.Run() }()

	if v := <-got; v != uint64(4242) {
		t.Fatalf("replacement relayed %v, want the queued 4242", v)
	}
	if _, j, r := rec.snapshot(); j != 2 || r != 1 {
		t.Fatalf("after rejoin: joins %d rejoins %d, want 2/1", j, r)
	}
	<-runDone
	wg.Wait()
}

// TestNetHeartbeatDetectsBlackhole blackholes a worker's stream — the
// connection stays open but falls silent — and checks the heartbeat
// timeout declares the worker lost.
func TestNetHeartbeatDetectsBlackhole(t *testing.T) {
	var rec lossRecorder
	lost, joined, stats := rec.config()
	nc, err := ListenNet(NetConfig{
		Listen:           "127.0.0.1:0",
		LocalRanks:       1,
		WorkerRanks:      []int{1},
		Heartbeat:        20 * time.Millisecond,
		HeartbeatTimeout: 100 * time.Millisecond,
		OnWorkerLost:     lost,
		OnWorkerJoined:   joined,
		OnWorkerStats:    stats,
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	defer close(stop)
	nc.Start(0, func(c Comm) { <-stop })

	proxy, err := faultnet.NewProxy(nc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	w, err := DialWorker(proxy.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	w.SetTelemetry(func() []float64 { return []float64{1.5} })
	w.Start(1, func(c Comm) { c.Recv(AnyRank, AnyTag) })
	go w.Run()

	// Pong telemetry flows while the link is healthy.
	waitUntil(t, "pong telemetry", func() bool { return rec.idle.Load() > 0 })
	if l, _, _ := rec.snapshot(); l != 0 {
		t.Fatal("healthy pinged worker declared lost")
	}

	proxy.Blackhole(true)
	waitUntil(t, "heartbeat loss", func() bool { l, _, _ := rec.snapshot(); return l == 1 })
}

// TestNetHandshakeToken pins handshake authentication: wrong or missing
// tokens are rejected with a permanent error, matching tokens (and
// no-token coordinators) admit the worker.
func TestNetHandshakeToken(t *testing.T) {
	cases := []struct {
		name, coordinator, worker string
		wantErr                   error
	}{
		{"match", "s3cret", "s3cret", nil},
		{"mismatch", "s3cret", "wrong", ErrBadToken},
		{"missing", "s3cret", "", ErrBadToken},
		{"longer", "s3cret", "s3cret-and-more", ErrBadToken},
		{"open coordinator ignores token", "", "anything", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nc, err := ListenNet(NetConfig{
				Listen:      "127.0.0.1:0",
				LocalRanks:  1,
				WorkerRanks: []int{1},
				Token:       tc.coordinator,
			})
			if err != nil {
				t.Fatal(err)
			}
			w, err := DialWorker(nc.Addr(), tc.worker)
			if tc.wantErr == nil {
				if err != nil {
					t.Fatalf("dial: %v", err)
				}
				w.Close() //nolint:errcheck // teardown
				return
			}
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("dial error %v, want %v", err, tc.wantErr)
			}
			// The rejected handshake must not leak the slot.
			if w, err := DialWorker(nc.Addr(), tc.coordinator); err != nil {
				t.Fatalf("good dial after rejected one: %v", err)
			} else {
				w.Close() //nolint:errcheck // teardown
			}
		})
	}
}

// TestNetHandshakeTornMidFrame drives hellos severed at every interesting
// byte boundary through the fault proxy and checks the coordinator
// neither claims a slot nor wedges: a clean worker joins right after.
func TestNetHandshakeTornMidFrame(t *testing.T) {
	nc, err := ListenNet(NetConfig{
		Listen:      "127.0.0.1:0",
		LocalRanks:  1,
		WorkerRanks: []int{1},
		Token:       "tk",
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	defer close(stop)
	nc.Start(0, func(c Comm) { <-stop })

	cuts := []struct {
		name  string
		bytes int64
	}{
		{"mid magic", 2},
		{"before version", 4},
		{"before token length", 5},
		{"mid token", 7},
	}
	for _, tc := range cuts {
		t.Run(tc.name, func(t *testing.T) {
			proxy, err := faultnet.NewProxy(nc.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer proxy.Close()
			proxy.SeverAfter(tc.bytes)
			if _, err := DialWorker(proxy.Addr(), "tk"); err == nil {
				t.Fatal("torn handshake succeeded")
			}
			// The coordinator abandoned the torn attempt without leaking
			// the slot to it: a clean worker joins (retrying while any
			// previous case's close-triggered loss releases the slot).
			var w *NetWorker
			waitUntil(t, "clean join after torn handshake", func() bool {
				var err error
				w, err = DialWorker(nc.Addr(), "tk")
				return err == nil
			})
			w.Close() //nolint:errcheck // teardown
		})
	}
}

// TestNetDoubleGoodbye sends two goodbye frames on one connection: the
// first releases the slot (a mid-life goodbye is a loss), the second dies
// with the closed connection, and a replacement can still join.
func TestNetDoubleGoodbye(t *testing.T) {
	var rec lossRecorder
	lost, joined, _ := rec.config()
	nc, err := ListenNet(NetConfig{
		Listen:         "127.0.0.1:0",
		LocalRanks:     1,
		WorkerRanks:    []int{1},
		OnWorkerLost:   lost,
		OnWorkerJoined: joined,
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	defer close(stop)
	nc.Start(0, func(c Comm) { <-stop })

	w, err := DialWorker(nc.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	bye, err := codec.AppendFrame(nil, codec.Frame{
		From: int32(w.lo), To: ctrlRank, Tag: int32(ctrlBye), Payload: nil,
	})
	if err != nil {
		t.Fatal(err)
	}
	double := append(append([]byte(nil), bye...), bye...)
	if _, err := w.conn.c.Write(double); err != nil {
		t.Fatal(err)
	}

	// Mid-life goodbye = loss; the slot must reopen exactly once.
	waitUntil(t, "goodbye loss", func() bool { l, _, _ := rec.snapshot(); return l == 1 })
	var w2 *NetWorker
	waitUntil(t, "slot reuse", func() bool {
		w2, err = DialWorker(nc.Addr(), "")
		return err == nil
	})
	// OnWorkerJoined runs after the handshake and the flush of queued
	// frames, so it may still be running when DialWorker returns.
	waitUntil(t, "second join", func() bool { _, j, _ := rec.snapshot(); return j == 2 })
	if l, j, r := rec.snapshot(); l != 1 || j != 2 || r != 1 {
		t.Fatalf("lost %d joins %d rejoins %d, want 1/2/1", l, j, r)
	}
	w2.Close() //nolint:errcheck // teardown
}

// TestNetGoodbyeCarriesTelemetry checks the final idle counters ride the
// goodbye frame of a cleanly draining worker.
func TestNetGoodbyeCarriesTelemetry(t *testing.T) {
	var rec lossRecorder
	_, _, stats := rec.config()
	nc, err := ListenNet(NetConfig{
		Listen:        "127.0.0.1:0",
		LocalRanks:    1,
		WorkerRanks:   []int{2},
		Heartbeat:     -1, // telemetry must arrive via the goodbye alone
		OnWorkerStats: stats,
	})
	if err != nil {
		t.Fatal(err)
	}
	nc.Start(0, func(c Comm) {
		c.Recv(1, 7)
		c.Send(1, 9, nil)
		c.Send(2, 9, nil)
	})
	runDone := make(chan time.Duration, 1)
	go func() { runDone <- nc.Run() }()

	w, err := DialWorker(nc.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	w.SetTelemetry(func() []float64 { return []float64{0.25, 0.75} })
	w.Start(1, func(c Comm) {
		c.Send(0, 7, nil)
		c.Recv(AnyRank, 9)
	})
	w.Start(2, func(c Comm) { c.Recv(AnyRank, 9) })
	w.Run()

	<-runDone
	if rec.idle.Load() != 2 {
		t.Fatalf("goodbye telemetry carried %d entries, want 2", rec.idle.Load())
	}
}

// TestNetPendingCapExactFlush pins the pending-cap boundary: a lost slot
// holding exactly PendingLimit queued frames is NOT abandoned (the cap is
// strictly greater-than), and a late replacement receives every queued
// frame, in order, ahead of anything sent afterwards.
func TestNetPendingCapExactFlush(t *testing.T) {
	const done Tag = 99
	const limit = 4
	var rec lossRecorder
	lost, joined, stats := rec.config()
	nc, err := ListenNet(NetConfig{
		Listen:            "127.0.0.1:0",
		LocalRanks:        1,
		WorkerRanks:       []int{1},
		PendingLimit:      limit,
		OnWorkerLost:      lost,
		OnWorkerJoined:    joined,
		OnWorkerStats:     stats,
		OnWorkerAbandoned: rec.abandonHook(),
	})
	if err != nil {
		t.Fatal(err)
	}

	got := make(chan any, limit+1)
	announced := make(chan struct{})
	severed := make(chan struct{})
	queued := make(chan struct{})
	nc.Start(0, func(c Comm) {
		c.Recv(1, 7) // first worker announced
		close(announced)
		<-severed // the loss has been observed: frames below must queue
		for i := 0; i < limit; i++ {
			c.Send(1, 8, uint64(100+i))
		}
		close(queued)
		for i := 0; i < limit; i++ {
			got <- c.Recv(1, 7).Payload // replacement echoes in order
		}
		c.Send(1, done, nil)
	})
	runDone := make(chan time.Duration, 1)
	go func() { runDone <- nc.Run() }()

	proxy, err := faultnet.NewProxy(nc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	var wg sync.WaitGroup
	w1, err := DialWorker(proxy.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	w1.Start(1, func(c Comm) {
		c.Send(0, 7, uint64(1))
		c.Recv(AnyRank, done) // stranded by the sever
	})
	wg.Add(1)
	go func() { defer wg.Done(); w1.Run() }()

	// Sever only after the coordinator observed the announce frame: the
	// join hook alone fires at handshake time, racing the frame through
	// the proxy.
	<-announced
	proxy.Sever()
	waitUntil(t, "worker loss", func() bool { l, _, _ := rec.snapshot(); return l == 1 })
	wg.Wait()
	close(severed)
	<-queued

	// Exactly at the cap: the slot must still be waiting, not abandoned.
	if rec.abandons() != 0 {
		t.Fatalf("slot abandoned with exactly PendingLimit frames queued")
	}

	var w2 *NetWorker
	waitUntil(t, "replacement slot", func() bool {
		w2, err = DialWorker(nc.Addr(), "")
		return err == nil
	})
	w2.Start(1, func(c Comm) {
		for i := 0; i < limit; i++ {
			m := c.Recv(AnyRank, 8)
			c.Send(0, 7, m.Payload)
		}
		c.Recv(AnyRank, done)
	})
	wg.Add(1)
	go func() { defer wg.Done(); w2.Run() }()

	for i := 0; i < limit; i++ {
		if v := <-got; v != uint64(100+i) {
			t.Fatalf("flushed frame %d carried %v, want %d", i, v, 100+i)
		}
	}
	if rec.abandons() != 0 {
		t.Fatal("abandonment fired despite a successful flush")
	}
	if _, j, r := rec.snapshot(); j != 2 || r != 1 {
		t.Fatalf("joins %d rejoins %d, want 2/1", j, r)
	}
	<-runDone
	wg.Wait()
}

// TestNetPendingCapOverflowAbandons overflows a lost slot's pending queue
// by one frame past PendingLimit and checks the slot is abandoned: the
// hook fires after the loss hook (never before), the event is recorded
// exactly once, and later frames are discarded without re-firing it.
func TestNetPendingCapOverflowAbandons(t *testing.T) {
	const limit = 2
	var rec lossRecorder
	lost, joined, stats := rec.config()
	nc, err := ListenNet(NetConfig{
		Listen:            "127.0.0.1:0",
		LocalRanks:        1,
		WorkerRanks:       []int{1},
		PendingLimit:      limit,
		OnWorkerLost:      lost,
		OnWorkerJoined:    joined,
		OnWorkerStats:     stats,
		OnWorkerAbandoned: rec.abandonHook(),
	})
	if err != nil {
		t.Fatal(err)
	}

	announced := make(chan struct{})
	severed := make(chan struct{})
	abandonedCh := make(chan struct{})
	sentAfter := make(chan struct{})
	nc.Start(0, func(c Comm) {
		c.Recv(1, 7)
		close(announced)
		<-severed
		for i := 0; i <= limit; i++ { // one past the cap: the last send trips it
			c.Send(1, 8, uint64(i))
		}
		<-abandonedCh
		c.Send(1, 8, uint64(99)) // discarded; must not re-fire the hook
		close(sentAfter)
	})
	runDone := make(chan time.Duration, 1)
	go func() { runDone <- nc.Run() }()

	proxy, err := faultnet.NewProxy(nc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	var wg sync.WaitGroup
	w, err := DialWorker(proxy.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	w.Start(1, func(c Comm) {
		c.Send(0, 7, uint64(1))
		c.Recv(AnyRank, AnyTag) // stranded by the sever
	})
	wg.Add(1)
	go func() { defer wg.Done(); w.Run() }()

	<-announced
	proxy.Sever()
	waitUntil(t, "worker loss", func() bool { l, _, _ := rec.snapshot(); return l == 1 })
	wg.Wait()
	close(severed)

	waitUntil(t, "abandonment", func() bool { return rec.abandons() == 1 })
	close(abandonedCh)
	<-sentAfter
	time.Sleep(50 * time.Millisecond) // would catch a duplicate firing
	if n := rec.abandons(); n != 1 {
		t.Fatalf("abandonment fired %d times, want exactly once", n)
	}
	if ev := rec.eventLog(); len(ev) != 2 || ev[0] != "lost" || ev[1] != "abandoned" {
		t.Fatalf("event order %v, want [lost abandoned]", ev)
	}
	<-runDone
}

// TestNetReplaceGraceAbandons arms the grace timer with no pending cap:
// the lost slot is abandoned once ReplaceGrace expires, frames sent to the
// abandoned range are dropped, and a worker dialing in later still revives
// the slot (rejoin join, frames flowing again).
func TestNetReplaceGraceAbandons(t *testing.T) {
	const done Tag = 99
	var rec lossRecorder
	lost, joined, stats := rec.config()
	nc, err := ListenNet(NetConfig{
		Listen:            "127.0.0.1:0",
		LocalRanks:        1,
		WorkerRanks:       []int{1},
		ReplaceGrace:      50 * time.Millisecond,
		OnWorkerLost:      lost,
		OnWorkerJoined:    joined,
		OnWorkerStats:     stats,
		OnWorkerAbandoned: rec.abandonHook(),
	})
	if err != nil {
		t.Fatal(err)
	}

	got := make(chan any, 2)
	announced := make(chan struct{})
	abandonedCh := make(chan struct{})
	revivedCh := make(chan struct{})
	nc.Start(0, func(c Comm) {
		c.Recv(1, 7)
		close(announced)
		<-abandonedCh
		c.Send(1, 8, uint64(1)) // dropped: the slot is abandoned
		<-revivedCh
		c.Send(1, 8, uint64(2)) // flows to the revived worker
		got <- c.Recv(1, 7).Payload
		c.Send(1, done, nil)
	})
	runDone := make(chan time.Duration, 1)
	go func() { runDone <- nc.Run() }()

	proxy, err := faultnet.NewProxy(nc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	var wg sync.WaitGroup
	w1, err := DialWorker(proxy.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	w1.Start(1, func(c Comm) {
		c.Send(0, 7, uint64(1))
		c.Recv(AnyRank, done) // stranded by the sever
	})
	wg.Add(1)
	go func() { defer wg.Done(); w1.Run() }()

	<-announced
	proxy.Sever()
	waitUntil(t, "grace abandonment", func() bool { return rec.abandons() == 1 })
	wg.Wait()
	close(abandonedCh)

	// Revival: an abandoned slot stays claimable.
	var w2 *NetWorker
	waitUntil(t, "revival slot", func() bool {
		w2, err = DialWorker(nc.Addr(), "")
		return err == nil
	})
	w2.Start(1, func(c Comm) {
		m := c.Recv(AnyRank, 8)
		c.Send(0, 7, m.Payload)
		c.Recv(AnyRank, done)
	})
	wg.Add(1)
	go func() { defer wg.Done(); w2.Run() }()
	waitUntil(t, "rejoin", func() bool { _, _, r := rec.snapshot(); return r == 1 })
	close(revivedCh)

	// The frame sent while abandoned never arrives; the post-revival one does.
	if v := <-got; v != uint64(2) {
		t.Fatalf("revived worker relayed %v, want 2 (frame 1 was sent while abandoned)", v)
	}
	<-runDone
	wg.Wait()
	if n := rec.abandons(); n != 1 {
		t.Fatalf("abandonment fired %d times, want once", n)
	}
}

// TestNetDoubleAbandonIdempotent triggers both abandonment paths for one
// loss — pending-cap overflow first, then the still-armed grace timer —
// and checks the hook fires exactly once: the stale grace trigger
// validates against the abandoned flag and backs off.
func TestNetDoubleAbandonIdempotent(t *testing.T) {
	const limit = 1
	const grace = 40 * time.Millisecond
	var rec lossRecorder
	lost, joined, stats := rec.config()
	nc, err := ListenNet(NetConfig{
		Listen:            "127.0.0.1:0",
		LocalRanks:        1,
		WorkerRanks:       []int{1},
		PendingLimit:      limit,
		ReplaceGrace:      grace,
		OnWorkerLost:      lost,
		OnWorkerJoined:    joined,
		OnWorkerStats:     stats,
		OnWorkerAbandoned: rec.abandonHook(),
	})
	if err != nil {
		t.Fatal(err)
	}

	announced := make(chan struct{})
	severed := make(chan struct{})
	nc.Start(0, func(c Comm) {
		c.Recv(1, 7)
		close(announced)
		<-severed
		c.Send(1, 8, uint64(0))
		c.Send(1, 8, uint64(1)) // overflows the cap before the grace expires
	})
	runDone := make(chan time.Duration, 1)
	go func() { runDone <- nc.Run() }()

	proxy, err := faultnet.NewProxy(nc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	var wg sync.WaitGroup
	w, err := DialWorker(proxy.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	w.Start(1, func(c Comm) {
		c.Send(0, 7, uint64(1))
		c.Recv(AnyRank, AnyTag) // stranded by the sever
	})
	wg.Add(1)
	go func() { defer wg.Done(); w.Run() }()

	<-announced
	proxy.Sever()
	waitUntil(t, "worker loss", func() bool { l, _, _ := rec.snapshot(); return l == 1 })
	wg.Wait()
	close(severed)

	waitUntil(t, "overflow abandonment", func() bool { return rec.abandons() == 1 })
	// Outlive the grace timer by a wide margin: its trigger must be a no-op.
	time.Sleep(3 * grace)
	if n := rec.abandons(); n != 1 {
		t.Fatalf("abandonment fired %d times after both triggers, want once", n)
	}
	<-runDone
}

// TestNetWorkerSilenceTimeout pins the worker-side liveness monitor: while
// coordinator pings flow the worker survives well past its silence budget,
// and once the coordinator→worker direction is blackholed the monitor
// severs the connection, Run returns, and Lost reports true.
func TestNetWorkerSilenceTimeout(t *testing.T) {
	nc, err := ListenNet(NetConfig{
		Listen:      "127.0.0.1:0",
		LocalRanks:  1,
		WorkerRanks: []int{1},
		Heartbeat:   20 * time.Millisecond,
		// Keep the coordinator's own monitor out of the picture: the
		// worker's silence budget must be what trips first.
		HeartbeatTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	defer close(stop)
	nc.Start(0, func(c Comm) { <-stop })

	proxy, err := faultnet.NewProxy(nc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	w, err := DialWorker(proxy.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	w.SetSilenceTimeout(100 * time.Millisecond)
	w.Start(1, func(c Comm) { c.Recv(AnyRank, AnyTag) })
	runDone := make(chan struct{})
	go func() { w.Run(); close(runDone) }()

	// Pings keep the stream warm: the monitor must not trip.
	select {
	case <-runDone:
		t.Fatal("silence monitor tripped while heartbeats were flowing")
	case <-time.After(300 * time.Millisecond):
	}

	// Silence the coordinator→worker direction only; the worker's writes
	// still go through, so only the silence monitor can end the run.
	proxy.BlackholeDir(faultnet.Down, true)
	select {
	case <-runDone:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never detected the silent coordinator")
	}
	if !w.Lost() {
		t.Fatal("Lost() false after a silence-timeout disconnect")
	}
}
