package mpi

// Tests of the TCP transport: a coordinator plus worker endpoints running
// in-process over loopback, which exercises the full wire path (frames,
// handshake, hub routing) under the race detector.

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/mpi/codec"
)

// startWorker dials the coordinator and runs the given bodies for its
// assigned ranks on a background goroutine.
func startWorker(t *testing.T, addr string, body func(Comm), wg *sync.WaitGroup) *NetWorker {
	t.Helper()
	w, err := DialWorker(addr, "")
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	lo, hi := w.RankRange()
	for r := lo; r < hi; r++ {
		w.Start(r, body)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.Run()
	}()
	return w
}

// TestNetClusterPingPong runs a 4-rank world — coordinator hosting ranks
// 0–1, two single-rank workers — and checks point-to-point messages
// between the coordinator and each worker, both ways.
func TestNetClusterPingPong(t *testing.T) {
	const shutdown Tag = 99
	nc, err := ListenNet(NetConfig{
		Listen:      "127.0.0.1:0",
		LocalRanks:  2,
		WorkerRanks: []int{1, 1},
		Blob:        []byte("cfg"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if nc.Size() != 4 {
		t.Fatalf("size %d, want 4", nc.Size())
	}

	results := make(chan string, 1)
	nc.Start(0, func(c Comm) {
		// Round trip with each remote rank.
		c.Send(2, 1, 41)
		c.Send(3, 1, 58)
		a := c.Recv(2, 2).Payload.(int)
		b := c.Recv(3, 2).Payload.(int)
		if a != 42 || b != 59 {
			results <- "bad replies"
		} else {
			results <- "ok"
		}
		for r := 1; r < c.Size(); r++ {
			c.Send(Rank(r), shutdown, nil)
		}
	})
	nc.Start(1, func(c Comm) {
		// A local rank that just waits for teardown, proving local and
		// remote ranks coexist.
		c.Recv(AnyRank, shutdown)
	})
	// Remote ranks are started by their own processes; this Start must be
	// a no-op, not a panic.
	nc.Start(2, func(c Comm) { t.Error("remote body ran on the coordinator") })

	runDone := make(chan time.Duration, 1)
	go func() { runDone <- nc.Run() }()

	body := func(c Comm) {
		for {
			m := c.Recv(AnyRank, AnyTag)
			switch m.Tag {
			case shutdown:
				return
			case 1: // from coordinator: increment and answer
				c.Send(m.From, 2, m.Payload.(int)+1)
			}
		}
	}
	var wg sync.WaitGroup
	w1 := startWorker(t, nc.Addr(), body, &wg)
	startWorker(t, nc.Addr(), body, &wg)

	if lo, hi := w1.RankRange(); hi-lo != 1 {
		t.Fatalf("worker range [%d, %d), want one rank", lo, hi)
	}
	if string(w1.Blob()) != "cfg" {
		t.Fatalf("blob %q", w1.Blob())
	}

	if got := <-results; got != "ok" {
		t.Fatal(got)
	}
	select {
	case <-runDone:
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator Run did not return")
	}
	wg.Wait()

	st := nc.Stats()
	if st.FramesSent == 0 || st.FramesRecv == 0 || st.BytesSent == 0 || st.BytesRecv == 0 {
		t.Fatalf("transport counters empty: %+v", st)
	}
	if st.EncodeNs == 0 || st.DecodeNs == 0 {
		t.Fatalf("codec timers empty: %+v", st)
	}
	ws := w1.Stats()
	if ws.FramesSent == 0 || ws.FramesRecv == 0 {
		t.Fatalf("worker counters empty: %+v", ws)
	}
}

// TestNetHubDropsWorkerToWorker pins the worker's reach: a worker rank
// talks to the coordinator's ranks and its own process's ranks only, so
// the hub drops a frame one worker addresses to another worker's rank.
// Worker rank 1 sends to rank 2 and then tells rank 0; the hub reads the
// two frames in that order, so rank 0's probe to rank 2 follows the
// dropped frame on every path, and rank 2 reports the first tag it sees.
func TestNetHubDropsWorkerToWorker(t *testing.T) {
	const (
		peer     Tag = 5 // worker 1 -> worker 2: must never arrive
		sent     Tag = 6 // worker 1 -> rank 0: the peer frame is sent
		probe    Tag = 7 // rank 0 -> worker 2
		first    Tag = 8 // worker 2 -> rank 0: the first tag it received
		shutdown Tag = 99
	)
	nc, err := ListenNet(NetConfig{
		Listen:      "127.0.0.1:0",
		LocalRanks:  1,
		WorkerRanks: []int{1, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan Tag, 1)
	nc.Start(0, func(c Comm) {
		c.Recv(1, sent)
		c.Send(2, probe, nil)
		got <- Tag(c.Recv(2, first).Payload.(int))
		c.Send(1, shutdown, nil)
		c.Send(2, shutdown, nil)
	})
	runDone := make(chan time.Duration, 1)
	go func() { runDone <- nc.Run() }()

	body := func(c Comm) {
		if c.Rank() == 1 {
			c.Send(2, peer, 1)
			c.Send(0, sent, nil)
		} else {
			c.Send(0, first, int(c.Recv(AnyRank, AnyTag).Tag))
		}
		c.Recv(0, shutdown)
	}
	var wg sync.WaitGroup
	startWorker(t, nc.Addr(), body, &wg)
	startWorker(t, nc.Addr(), body, &wg)

	if tag := <-got; tag != probe {
		t.Fatalf("worker rank 2 first received tag %d, want the probe %d: the hub forwarded a worker-to-worker frame", tag, probe)
	}
	select {
	case <-runDone:
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator Run did not return")
	}
	wg.Wait()
}

// TestNetClusterInjectAndLateJoin checks External injection to a remote
// rank and the pending-frame path: the message is injected before the
// worker dials in and must be flushed on connect.
func TestNetClusterInjectAndLateJoin(t *testing.T) {
	const shutdown Tag = 99
	nc, err := ListenNet(NetConfig{
		Listen:      "127.0.0.1:0",
		LocalRanks:  1,
		WorkerRanks: []int{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan Msg, 1)
	nc.Start(0, func(c Comm) {
		got <- c.Recv(AnyRank, 7)
		c.Send(1, shutdown, nil)
	})

	// Injected while no worker is connected: must queue, then flush.
	nc.Inject(1, 5, uint64(123))

	runDone := make(chan time.Duration, 1)
	go func() { runDone <- nc.Run() }()
	time.Sleep(50 * time.Millisecond) // let the injection land in the pending queue

	var wg sync.WaitGroup
	startWorker(t, nc.Addr(), func(c Comm) {
		m := c.Recv(AnyRank, 5)
		if m.From != External {
			c.Send(0, 7, "not external")
		} else {
			c.Send(0, 7, m.Payload)
		}
		c.Recv(AnyRank, shutdown)
	}, &wg)

	m := <-got
	if v, ok := m.Payload.(uint64); !ok || v != 123 {
		t.Fatalf("echoed payload %v", m.Payload)
	}
	<-runDone
	wg.Wait()
}

// TestNetHandshakeVersionReject pins version negotiation: a dialer
// speaking a different protocol version — the previous one or a later
// one — is refused at handshake with an explicit status, and DialWorker
// surfaces codec.ErrVersion.
func TestNetHandshakeVersionReject(t *testing.T) {
	nc, err := ListenNet(NetConfig{
		Listen:      "127.0.0.1:0",
		LocalRanks:  1,
		WorkerRanks: []int{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	nc.Start(0, func(c Comm) { <-stop })

	// Raw dials with foreign version bytes.
	for _, v := range []byte{codec.Version - 1, codec.Version + 1} {
		conn, err := net.Dial("tcp", nc.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(append([]byte(helloMagic), v)); err != nil {
			t.Fatal(err)
		}
		head := make([]byte, 2)
		if _, err := readFull(conn, head); err != nil {
			t.Fatalf("version %d: read rejection: %v", v, err)
		}
		if head[0] != hsBadVersion || head[1] != codec.Version {
			t.Fatalf("version %d: rejection %v, want [%d %d]", v, head, hsBadVersion, codec.Version)
		}
		conn.Close()
	}

	// A well-versioned worker still gets the slot afterwards.
	w, err := DialWorker(nc.Addr(), "")
	if err != nil {
		t.Fatalf("good dial after bad: %v", err)
	}
	w.conn.c.Close()
	close(stop)
}

// readFull is io.ReadFull without importing io in the test.
func readFull(conn net.Conn, buf []byte) (int, error) {
	n := 0
	for n < len(buf) {
		k, err := conn.Read(buf[n:])
		n += k
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// TestNetWorkerNoSlot checks over-subscription: a third worker dialing a
// two-worker world is rejected cleanly.
func TestNetWorkerNoSlot(t *testing.T) {
	nc, err := ListenNet(NetConfig{
		Listen:      "127.0.0.1:0",
		LocalRanks:  1,
		WorkerRanks: []int{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	nc.Start(0, func(c Comm) { <-stop })
	defer close(stop)

	w, err := DialWorker(nc.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer w.conn.c.Close()
	if _, err := DialWorker(nc.Addr(), ""); err == nil {
		t.Fatal("third worker accepted into a one-worker world")
	} else if errors.Is(err, codec.ErrVersion) {
		t.Fatalf("wrong rejection: %v", err)
	}
}
