package mpi

// The net transport: a rank world spanning OS processes over TCP, the
// closest analogue of the paper's Open MPI deployment on a Gigabit
// cluster. One coordinator process (NetCluster) hosts a contiguous prefix
// of the ranks — by convention the control ranks: a pool's job slots and
// scheduler — and listens for worker processes (NetWorker,
// cmd/pnmcs-worker) that each dial in and host a contiguous range of the
// remaining ranks (a pool's medians).
//
// Topology is a star: every worker holds one TCP connection to the
// coordinator, and a worker rank reaches the coordinator's ranks and its
// own process's ranks, nothing else. The hub drops a worker frame
// addressed to another worker's rank, as it drops one with a forged From:
// the embedding layer keeps each conversation between the coordinator and
// one worker, so no worker ever steers the coordinator into writing to
// another worker's socket. Each (sender, receiver) pair has exactly one
// path, so messages arrive in send order, as under MPI.
//
// Wire format and handshake are owned by internal/mpi/codec: every
// message is a typed, versioned, length-prefixed frame; the handshake
// carries the protocol version, the world size, the worker's assigned
// rank range, and an opaque configuration blob the embedding layer uses
// to reconstruct the worker-side process bodies (internal/parallel ships
// its PoolConfig in it). Version negotiation is strict — a worker
// speaking a different codec.Version is rejected at handshake, and every
// subsequent frame re-checks the version byte.
//
// The lifecycle mirrors WallCluster: Start registers rank bodies, Run
// launches the local ones and blocks until they return — a cluster only
// runs the ranks it hosts, so the same wiring code runs on every
// transport — and then waits for each connected worker's goodbye frame
// before tearing the connections down. Workers may dial in late: frames
// addressed to a not-yet-connected worker queue at the coordinator and
// flush on arrival, so a service can accept jobs before its workers have
// joined (they wait in the scheduler's queues).
//
// Failure model (DESIGN.md §8): a worker's stream dying — read error on
// either side, or a missed-heartbeat timeout on a blackholed connection —
// is a worker loss. The coordinator fires OnWorkerLost (so the embedding
// layer can re-queue the work the worker held), then reopens the slot: a
// replacement process dialing in reclaims the same rank range and resumes
// receiving frames, including everything queued for the slot while it was
// down (rolling replacement). Liveness is probed with ping/pong control
// frames; pong and goodbye frames carry worker telemetry (idle counters)
// back to the coordinator. The hello may carry a shared-secret
// token, compared in constant time at the coordinator.

import (
	"bufio"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mpi/codec"
)

func init() {
	codec.Register(codec.KindRank,
		func(buf []byte, v Rank) ([]byte, error) {
			return binary.LittleEndian.AppendUint64(buf, uint64(int64(v))), nil
		},
		func(data []byte) (Rank, error) {
			if len(data) != 8 {
				return 0, fmt.Errorf("%w: rank", codec.ErrTruncated)
			}
			return Rank(int64(binary.LittleEndian.Uint64(data))), nil
		})
}

// handshake constants.
const (
	helloMagic = "PNMW"

	hsOK         = 0
	hsBadVersion = 1
	hsNoSlot     = 2
	hsBadToken   = 3
)

// ErrWorkerRejected is wrapped by DialWorker when the coordinator refuses
// the connection for a non-version reason (no free worker slot). Like
// codec.ErrVersion it is permanent: retrying the same coordinator cannot
// succeed.
var ErrWorkerRejected = fmt.Errorf("mpi: coordinator rejected worker")

// ErrBadToken is wrapped by DialWorker when the coordinator refuses the
// worker's shared-secret token. Permanent: the same credentials will be
// refused on every retry.
var ErrBadToken = fmt.Errorf("mpi: coordinator rejected worker token")

// ctrlRank is the To of control frames (goodbye, ping, pong); no real
// rank or wildcard ever has this value.
const ctrlRank = -100

// Control tags, exchanged on frames addressed to ctrlRank.
const (
	// ctrlBye is sent by a worker when all its rank bodies have returned,
	// so the coordinator's Run knows the worker drained cleanly. Its
	// payload may carry the worker's telemetry (see ctrlPong).
	ctrlBye Tag = 0
	// ctrlPing is the coordinator's liveness probe. Any inbound frame
	// counts as liveness; pings guarantee traffic (in both directions, via
	// the pong) on an otherwise idle connection, so a blackholed stream is
	// detected within the heartbeat timeout instead of never.
	ctrlPing Tag = 1
	// ctrlPong answers a ping. Its payload, when non-nil, is the worker's
	// telemetry: cumulative idle seconds ([]float64, laid out by the
	// embedding layer), delivered to NetConfig.OnWorkerStats.
	ctrlPong Tag = 2
)

// defaultHeartbeat is the ping interval when NetConfig.Heartbeat is zero;
// the matching timeout default is 4× the effective interval (ListenNet).
const defaultHeartbeat = 2 * time.Second

// NetStats counts one endpoint's transport activity. All counters are
// cumulative since the cluster was created; EncodeNs/DecodeNs meter the
// CPU nanoseconds spent in the codec, so /metrics can report serialization
// cost separately from socket time.
type NetStats struct {
	FramesSent uint64 `json:"frames_sent"`
	FramesRecv uint64 `json:"frames_recv"`
	BytesSent  uint64 `json:"bytes_sent"`
	BytesRecv  uint64 `json:"bytes_recv"`
	EncodeNs   uint64 `json:"encode_ns"`
	DecodeNs   uint64 `json:"decode_ns"`
	// Workers is the number of worker connections currently established
	// (coordinator side; zero on workers).
	Workers int `json:"workers,omitempty"`
}

// netCounters is the atomic backing store of NetStats.
type netCounters struct {
	framesSent, framesRecv atomic.Uint64
	bytesSent, bytesRecv   atomic.Uint64
	encodeNs, decodeNs     atomic.Uint64
}

func (nc *netCounters) snapshot() NetStats {
	return NetStats{
		FramesSent: nc.framesSent.Load(),
		FramesRecv: nc.framesRecv.Load(),
		BytesSent:  nc.bytesSent.Load(),
		BytesRecv:  nc.bytesRecv.Load(),
		EncodeNs:   nc.encodeNs.Load(),
		DecodeNs:   nc.decodeNs.Load(),
	}
}

// encodeFrame encodes a frame, metering the codec time. The sent
// counters are bumped by countSent only once the frame actually reaches
// a connection — frames parked in a pending queue or dropped for a dead
// worker must not inflate them.
func (nc *netCounters) encodeFrame(from Rank, to Rank, tag Tag, payload any) ([]byte, error) {
	t0 := time.Now()
	buf, err := codec.AppendFrame(nil, codec.Frame{
		From: int32(from), To: int32(to), Tag: int32(tag), Payload: payload,
	})
	nc.encodeNs.Add(uint64(time.Since(t0)))
	return buf, err
}

// countSent records one frame written to a connection.
func (nc *netCounters) countSent(n int) {
	nc.framesSent.Add(1)
	nc.bytesSent.Add(uint64(n))
}

// readBody reads one length-prefixed frame body, metering the frame size.
func (nc *netCounters) readBody(r *bufio.Reader) ([]byte, error) {
	var lenbuf [4]byte
	if _, err := io.ReadFull(r, lenbuf[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(lenbuf[:])
	if n == 0 || n > codec.MaxFrame {
		return nil, fmt.Errorf("mpi: frame length %d out of range", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	nc.framesRecv.Add(1)
	nc.bytesRecv.Add(uint64(4 + n))
	return body, nil
}

// decodeBody decodes a frame body, metering the codec time.
func (nc *netCounters) decodeBody(body []byte) (codec.Frame, error) {
	t0 := time.Now()
	f, err := codec.DecodeFrame(body)
	nc.decodeNs.Add(uint64(time.Since(t0)))
	return f, err
}

// netConn is one framed TCP connection with a serialized writer.
type netConn struct {
	c   net.Conn
	wmu sync.Mutex
}

func (nc *netConn) write(frame []byte) error {
	nc.wmu.Lock()
	defer nc.wmu.Unlock()
	_, err := nc.c.Write(frame)
	return err
}

// netWorld is the routing core shared by the coordinator and the worker
// endpoint: local delivery into mailboxes, remote delivery over frames.
type netWorld interface {
	size() int
	now() time.Duration
	// route delivers (or sends) a message. from may be External.
	route(from, to Rank, tag Tag, payload any)
}

// netComm is a locally hosted rank's Comm on either side of the wire.
type netComm struct {
	w    netWorld
	rank Rank
	body func(Comm)
	mb   *mailbox
}

func (c *netComm) Rank() Rank { return c.rank }
func (c *netComm) Size() int  { return c.w.size() }
func (c *netComm) Send(to Rank, tag Tag, payload any) {
	c.w.route(c.rank, to, tag, payload)
}
func (c *netComm) Recv(from Rank, tag Tag) Msg { return c.mb.take(from, tag) }
func (c *netComm) Work(n int64)                {}
func (c *netComm) Now() time.Duration          { return c.w.now() }

var _ Comm = (*netComm)(nil)

// NetConfig describes the coordinator's side of a distributed world.
type NetConfig struct {
	// Listen is the TCP address workers dial ("127.0.0.1:0" binds an
	// ephemeral port; read it back with Addr).
	Listen string
	// LocalRanks is the number of ranks the coordinator hosts itself:
	// ranks [0, LocalRanks).
	LocalRanks int
	// WorkerRanks lists the rank count each expected worker hosts, in
	// connection order: the i-th worker to complete the handshake hosts
	// the i-th contiguous range after the coordinator's.
	WorkerRanks []int
	// Blob is handed to every worker at handshake; the embedding layer
	// uses it to reconstruct the worker-side configuration.
	Blob []byte
	// Token, when non-empty, is the shared secret every dialing worker
	// must present in its hello. It is compared in constant time; a
	// mismatch is answered with an explicit rejection status. An empty
	// Token accepts any worker (the pre-auth behavior — loopback only).
	Token string
	// Heartbeat is the interval at which the coordinator pings each
	// connected worker. Zero selects the default (2s); negative disables
	// liveness probing (losses are then detected by read errors only).
	Heartbeat time.Duration
	// HeartbeatTimeout is the silence budget: a connected worker whose
	// stream has carried no frame (data, pong or goodbye) for this long is
	// declared lost and its connection closed. Zero selects 4×Heartbeat.
	HeartbeatTimeout time.Duration
	// PendingLimit caps the pending-frame queue of a lost worker slot:
	// once more than this many frames have queued for a slot awaiting a
	// replacement, the slot is abandoned (OnWorkerAbandoned) instead of
	// queueing forever. Zero means unbounded — the pre-degradation
	// behavior. The cap only applies to slots that have joined at least
	// once; a never-connected worker's queue is the late-join feature and
	// stays unbounded.
	PendingLimit int
	// ReplaceGrace is how long a lost worker slot waits for a replacement
	// before being abandoned. Zero disables the grace timer (slots then
	// only abandon via PendingLimit overflow).
	ReplaceGrace time.Duration

	// OnWorkerLost, when non-nil, is called when a connected worker's
	// stream dies before teardown (read error, reset, missed heartbeat, or
	// a goodbye outside teardown). It runs on a transport goroutine,
	// before the slot reopens for a replacement, so anything it sends into
	// the rank world is ordered ahead of every frame from a rejoining
	// worker. lo/hi is the rank range the worker hosted.
	OnWorkerLost func(worker int, lo, hi Rank)
	// OnWorkerJoined, when non-nil, is called after a worker completes its
	// handshake and its queued frames have flushed. rejoin reports that
	// the slot had been held (and lost) by an earlier connection — a
	// rolling replacement rather than a first join.
	OnWorkerJoined func(worker int, lo, hi Rank, rejoin bool)
	// OnWorkerStats, when non-nil, receives worker telemetry piggybacked
	// on pong and goodbye control frames: cumulative idle seconds, laid out
	// by the embedding layer (the pool: the worker's medians, then its
	// helpers), finite and non-negative. Values are cumulative for one
	// connection's lifetime; a replacement worker restarts from zero.
	OnWorkerStats func(worker int, lo Rank, idleSeconds []float64)
	// OnWorkerAbandoned, when non-nil, is called when a lost worker slot
	// gives up waiting for a replacement — its ReplaceGrace expired, or
	// its pending queue overflowed PendingLimit — at most once per loss.
	// The slot's queued frames are dropped and further frames for its
	// ranks are discarded instead of queued; the slot itself stays
	// claimable, so a worker dialing in later still revives it (the join
	// fires OnWorkerJoined with rejoin=true and queueing resumes).
	OnWorkerAbandoned func(worker int, lo, hi Rank)
}

// NetCluster is the coordinator of a distributed rank world. It implements
// Cluster for the ranks it hosts; Start calls for worker-hosted ranks are
// accepted and ignored (their hosting process starts them), so the same
// topology wiring runs unchanged on wall and net transports.
type NetCluster struct {
	cfg   NetConfig
	ln    net.Listener
	start time.Time
	local []*netComm
	// bounds[i] is the first rank of worker i's range; bounds[len] = Size.
	bounds []Rank

	counters netCounters

	mu        sync.Mutex
	cond      *sync.Cond
	conns     []*netConn // per worker slot; nil until the handshake completes
	claimed   []bool     // slot reserved by an in-flight handshake or live conn
	done      []bool     // connection ended; reset when the slot reopens
	served    []bool     // slot has completed a handshake at least once
	pending   [][][]byte // frames queued for a not-yet-(re)connected worker
	abandoned []bool     // slot gave up on a replacement; frames are dropped
	gen       []uint64   // bumped at each connection publish; guards stale abandons
	closed    bool       // listener shut down, no more workers accepted

	// lastSeen[i] is the unix-nano arrival time of worker i's latest
	// frame, updated lock-free by the per-connection readers and consumed
	// by the heartbeat monitor.
	lastSeen []atomic.Int64
	hbStop   chan struct{}
	hbOnce   sync.Once

	wg sync.WaitGroup
}

// ListenNet binds the coordinator's listener and starts accepting worker
// handshakes immediately; Run launches the local rank bodies. The world
// size is LocalRanks plus the sum of WorkerRanks.
func ListenNet(cfg NetConfig) (*NetCluster, error) {
	if cfg.LocalRanks < 1 {
		return nil, fmt.Errorf("mpi: net cluster needs at least one local rank")
	}
	size := cfg.LocalRanks
	bounds := []Rank{Rank(cfg.LocalRanks)}
	for i, n := range cfg.WorkerRanks {
		if n < 1 {
			return nil, fmt.Errorf("mpi: worker %d hosts %d ranks", i, n)
		}
		size += n
		bounds = append(bounds, Rank(size))
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, err
	}
	c := &NetCluster{
		cfg:       cfg,
		ln:        ln,
		start:     time.Now(),
		local:     make([]*netComm, cfg.LocalRanks),
		bounds:    bounds,
		conns:     make([]*netConn, len(cfg.WorkerRanks)),
		claimed:   make([]bool, len(cfg.WorkerRanks)),
		done:      make([]bool, len(cfg.WorkerRanks)),
		served:    make([]bool, len(cfg.WorkerRanks)),
		pending:   make([][][]byte, len(cfg.WorkerRanks)),
		abandoned: make([]bool, len(cfg.WorkerRanks)),
		gen:       make([]uint64, len(cfg.WorkerRanks)),
		lastSeen:  make([]atomic.Int64, len(cfg.WorkerRanks)),
		hbStop:    make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	for r := range c.local {
		c.local[r] = &netComm{w: c, rank: Rank(r), mb: newMailbox()}
	}
	go c.accept()
	if interval := cfg.Heartbeat; interval >= 0 && len(cfg.WorkerRanks) > 0 {
		if interval == 0 {
			interval = defaultHeartbeat
		}
		timeout := cfg.HeartbeatTimeout
		if timeout == 0 {
			timeout = 4 * interval
		}
		go c.heartbeat(interval, timeout)
	}
	return c, nil
}

// heartbeat pings every connected worker each interval and severs any
// connection silent for longer than timeout. Closing the stale connection
// is enough: its reader fails and runs the shared loss path (workerGone),
// so missed-heartbeat and read-error losses are handled identically.
func (c *NetCluster) heartbeat(interval, timeout time.Duration) {
	ping, err := c.counters.encodeFrame(ctrlRank, ctrlRank, ctrlPing, nil)
	if err != nil {
		panic(fmt.Sprintf("mpi: unencodable ping frame: %v", err))
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-c.hbStop:
			return
		case <-tick.C:
		}
		now := time.Now().UnixNano()
		var live, stale []*netConn
		c.mu.Lock()
		for i, conn := range c.conns {
			if conn == nil {
				continue
			}
			if now-c.lastSeen[i].Load() > int64(timeout) {
				stale = append(stale, conn)
			} else {
				live = append(live, conn)
			}
		}
		c.mu.Unlock()
		for _, conn := range stale {
			conn.c.Close() //nolint:errcheck // reader runs the loss path
		}
		for _, conn := range live {
			// Pings are written off the monitor goroutine: a frozen peer
			// whose send buffer is full blocks writers on the connection's
			// write mutex, and a blocked monitor could never reach the
			// staleness check that closes exactly such connections. The
			// blocked goroutines are bounded: the peer stays silent, so
			// within the timeout the staleness close unblocks them all
			// with write errors.
			conn := conn
			go func() {
				if conn.write(ping) == nil {
					c.counters.countSent(len(ping))
				}
			}()
		}
	}
}

// Addr returns the listener's address, for workers dialing an ephemeral
// port.
func (c *NetCluster) Addr() string { return c.ln.Addr().String() }

// Size implements Cluster.
func (c *NetCluster) Size() int { return int(c.bounds[len(c.bounds)-1]) }

// Drain announces teardown ahead of Run's own closing: no new workers
// are accepted and a connection ending from here on is a clean departure
// (teardown accounting), never a loss. The embedding layer calls it
// after draining its jobs, just before broadcasting shutdown into the
// rank world — otherwise a fast worker's goodbye can race the local
// bodies' unwind, be misread as a crash, fire the loss hooks into
// already-exiting ranks and reopen the slot for a replacement that
// would never learn about the shutdown.
func (c *NetCluster) Drain() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
}

// Stats snapshots the coordinator's transport counters.
func (c *NetCluster) Stats() NetStats {
	s := c.counters.snapshot()
	c.mu.Lock()
	for i, conn := range c.conns {
		if conn != nil && !c.done[i] {
			s.Workers++
		}
	}
	c.mu.Unlock()
	return s
}

func (c *NetCluster) size() int          { return c.Size() }
func (c *NetCluster) now() time.Duration { return time.Since(c.start) }

// workerOf maps a rank to its hosting worker slot, or -1 for local ranks.
func (c *NetCluster) workerOf(to Rank) int {
	if to < c.bounds[0] {
		return -1
	}
	for i := 1; i < len(c.bounds); i++ {
		if to < c.bounds[i] {
			return i - 1
		}
	}
	panic(fmt.Sprintf("mpi: rank %d outside the world of %d", to, c.Size()))
}

// route implements netWorld: local ranks get mailbox delivery, worker
// ranks a frame — queued if the worker has not connected yet.
func (c *NetCluster) route(from, to Rank, tag Tag, payload any) {
	w := c.workerOf(to)
	if w < 0 {
		c.local[to].mb.push(Msg{From: from, Tag: tag, Payload: payload})
		return
	}
	frame, err := c.counters.encodeFrame(from, to, tag, payload)
	if err != nil {
		panic(fmt.Sprintf("mpi: unencodable payload for rank %d: %v", to, err))
	}
	c.sendWorker(w, frame)
}

// sendWorker ships an already-encoded frame to a worker slot — queued
// while the slot has no connection (not yet joined, or lost and awaiting
// its replacement), dropped only once the cluster is tearing down.
func (c *NetCluster) sendWorker(w int, frame []byte) {
	c.mu.Lock()
	conn := c.conns[w]
	if conn == nil {
		if !c.closed && !c.abandoned[w] {
			c.pending[w] = append(c.pending[w], frame)
			if overflow, gen := c.pendingOverLimit(w); overflow {
				c.mu.Unlock()
				c.abandonSlot(w, gen)
				return
			}
		}
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	// A write error means the worker died; its reader notices and
	// releases the slot, so the error itself is not actionable here.
	if conn.write(frame) == nil {
		c.counters.countSent(len(frame))
	}
}

// pendingOverLimit reports (under c.mu) whether slot w's pending queue
// just exceeded the configured cap, and the generation to validate the
// abandonment against. The cap is gated on served: a never-joined
// worker's queue is the late-join feature and stays unbounded.
func (c *NetCluster) pendingOverLimit(w int) (bool, uint64) {
	if c.cfg.PendingLimit > 0 && c.served[w] && len(c.pending[w]) > c.cfg.PendingLimit {
		return true, c.gen[w]
	}
	return false, 0
}

// abandonSlot marks a lost worker slot abandoned: its queued frames are
// dropped and future frames for its ranks are discarded, and
// OnWorkerAbandoned fires exactly once. The generation check makes stale
// triggers harmless — a grace timer armed for a connection that has since
// been replaced (gen bumped at publish) validates against the old gen and
// backs off; so does any trigger racing a handshake (claimed) or arriving
// after teardown. The slot is NOT retired: a worker dialing in later
// still claims it, which clears the abandoned flag and revives the range.
func (c *NetCluster) abandonSlot(slot int, gen uint64) {
	c.mu.Lock()
	if c.closed || c.abandoned[slot] || c.conns[slot] != nil ||
		c.claimed[slot] || c.gen[slot] != gen {
		c.mu.Unlock()
		return
	}
	c.abandoned[slot] = true
	c.pending[slot] = nil
	c.mu.Unlock()
	if c.cfg.OnWorkerAbandoned != nil {
		c.cfg.OnWorkerAbandoned(slot, c.bounds[slot], c.bounds[slot+1])
	}
}

// Start implements Cluster. Bodies for worker-hosted ranks are ignored:
// their hosting process constructs and runs them.
func (c *NetCluster) Start(rank Rank, body func(Comm)) {
	if c.workerOf(rank) >= 0 {
		return
	}
	nc := c.local[rank]
	if nc.body != nil {
		panic(fmt.Sprintf("mpi: rank %d started twice", rank))
	}
	nc.body = body
}

// Inject delivers a message from outside the rank world (From ==
// External), exactly like WallCluster.Inject; remote ranks receive it as
// a frame.
func (c *NetCluster) Inject(to Rank, tag Tag, payload any) {
	c.route(External, to, tag, payload)
}

// Run implements Cluster: it launches the coordinator-hosted bodies,
// blocks until they return, then stops accepting workers and waits for
// every connected worker's goodbye before closing the connections. The
// returned duration is coordinator wall time.
func (c *NetCluster) Run() time.Duration {
	for _, nc := range c.local {
		if nc.body == nil {
			panic(fmt.Sprintf("mpi: rank %d never started", nc.rank))
		}
	}
	t0 := time.Now()
	for _, nc := range c.local {
		nc := nc
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			nc.body(nc)
		}()
	}
	c.wg.Wait()

	// Teardown: no new workers, then drain the connected ones. A worker
	// that never connected (or was lost and never replaced) keeps its
	// pending queue unflushed and is not waited for.
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.hbOnce.Do(func() { close(c.hbStop) })
	c.ln.Close() //nolint:errcheck // double-close on a dead listener is fine
	c.mu.Lock()
	for {
		waiting := false
		for i, conn := range c.conns {
			if conn != nil && !c.done[i] {
				waiting = true
			}
		}
		if !waiting {
			break
		}
		c.cond.Wait()
	}
	conns := append([]*netConn(nil), c.conns...)
	c.mu.Unlock()
	for _, conn := range conns {
		if conn != nil {
			conn.c.Close() //nolint:errcheck // teardown
		}
	}
	return time.Since(t0)
}

// accept runs the coordinator's handshake loop until the listener closes.
func (c *NetCluster) accept() {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		go c.handshake(conn)
	}
}

// handshakeTimeout bounds how long an accepted connection may take to
// present its hello: a port scanner or stalled probe must not pin a
// goroutine and a socket forever.
const handshakeTimeout = 10 * time.Second

// handshake validates a dialing worker, assigns it the next free slot and
// starts its reader. Version mismatches, token mismatches and
// over-subscription are answered with an explicit rejection status before
// closing.
//
// Ordering matters: the connection is published to route() only after the
// welcome and every pending frame are on the wire, so the worker always
// reads the handshake response first and the queued frames in send order
// — live frames can never overtake them (per-pair FIFO). A handshake that
// fails mid-way releases its slot claim, so a retrying worker can join.
func (c *NetCluster) handshake(conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout)) //nolint:errcheck // enforced by the reads below
	hello := make([]byte, len(helloMagic)+1)
	if _, err := io.ReadFull(conn, hello); err != nil || string(hello[:len(helloMagic)]) != helloMagic {
		conn.Close() //nolint:errcheck // not a worker
		return
	}
	// Version gates the rest of the hello's layout: answer a mismatch
	// before trying to parse a token field a foreign version may not send.
	if hello[len(helloMagic)] != codec.Version {
		conn.Write([]byte{hsBadVersion, codec.Version}) //nolint:errcheck // closing anyway
		conn.Close()                                    //nolint:errcheck
		return
	}
	var toklen [1]byte
	if _, err := io.ReadFull(conn, toklen[:]); err != nil {
		conn.Close() //nolint:errcheck // hello torn mid-frame
		return
	}
	token := make([]byte, toklen[0])
	if _, err := io.ReadFull(conn, token); err != nil {
		conn.Close() //nolint:errcheck // hello torn mid-frame
		return
	}
	conn.SetReadDeadline(time.Time{}) //nolint:errcheck // frames may arrive much later
	if !tokenOK(c.cfg.Token, token) {
		conn.Write([]byte{hsBadToken, codec.Version}) //nolint:errcheck // closing anyway
		conn.Close()                                  //nolint:errcheck
		return
	}

	c.mu.Lock()
	slot := -1
	if !c.closed {
		for i := range c.conns {
			if !c.claimed[i] && !c.done[i] {
				slot = i
				break
			}
		}
	}
	if slot < 0 {
		c.mu.Unlock()
		conn.Write([]byte{hsNoSlot, codec.Version}) //nolint:errcheck // closing anyway
		conn.Close()                                //nolint:errcheck
		return
	}
	c.claimed[slot] = true
	rejoin := c.served[slot]
	// Claiming an abandoned slot revives it: queueing resumes for the
	// duration of the handshake, and a completed join hands the range
	// back to the embedding layer (rejoin=true).
	revived := c.abandoned[slot]
	c.abandoned[slot] = false
	lo, hi := c.bounds[slot], c.bounds[slot+1]
	c.mu.Unlock()

	nc := &netConn{c: conn}
	// fail releases the slot claim and requeues any frames this attempt
	// took from the pending queue but did not write, so a retrying worker
	// still receives them (in order, ahead of anything queued since). An
	// abandoned slot goes back to being abandoned.
	fail := func(unwritten [][]byte) {
		conn.Close() //nolint:errcheck // teardown
		c.mu.Lock()
		c.claimed[slot] = false
		if revived {
			c.abandoned[slot] = true
			c.pending[slot] = nil
		} else if len(unwritten) > 0 {
			c.pending[slot] = append(unwritten, c.pending[slot]...)
		}
		c.mu.Unlock()
	}

	welcome := []byte{hsOK, codec.Version}
	welcome = binary.LittleEndian.AppendUint32(welcome, uint32(c.Size()))
	welcome = binary.LittleEndian.AppendUint32(welcome, uint32(lo))
	welcome = binary.LittleEndian.AppendUint32(welcome, uint32(hi))
	welcome = binary.LittleEndian.AppendUint32(welcome, uint32(len(c.cfg.Blob)))
	welcome = append(welcome, c.cfg.Blob...)
	if err := nc.write(welcome); err != nil {
		fail(nil)
		return
	}
	// Drain the pending queue, then publish the connection in the same
	// critical section that observes it empty — frames queued while we
	// were flushing are picked up by the next loop turn, and once the
	// conn is published route() writes directly.
	for {
		c.mu.Lock()
		pending := c.pending[slot]
		c.pending[slot] = nil
		if len(pending) == 0 {
			if c.closed {
				// Run's teardown already snapshotted the connections; a
				// conn published now would never be closed or waited for.
				// Dropping it makes the worker's reader fail, so its
				// process exits instead of idling forever.
				c.mu.Unlock()
				fail(nil)
				return
			}
			c.conns[slot] = nc
			c.served[slot] = true
			c.gen[slot]++ // invalidate grace timers armed for the previous conn
			c.lastSeen[slot].Store(time.Now().UnixNano())
			c.mu.Unlock()
			break
		}
		c.mu.Unlock()
		for i, frame := range pending {
			if err := nc.write(frame); err != nil {
				fail(pending[i:])
				return
			}
			c.counters.countSent(len(frame))
		}
	}
	if c.cfg.OnWorkerJoined != nil {
		c.cfg.OnWorkerJoined(slot, lo, hi, rejoin)
	}
	go c.read(slot, nc)
}

// tokenOK compares a presented worker token against the configured shared
// secret in constant time. An empty configured token accepts anything.
func tokenOK(want string, got []byte) bool {
	if want == "" {
		return true
	}
	if len(got) != len(want) {
		// Burn a comparison of the same width anyway so a length mismatch
		// costs what a content mismatch costs.
		subtle.ConstantTimeCompare([]byte(want), []byte(want))
		return false
	}
	return subtle.ConstantTimeCompare([]byte(want), got) == 1
}

// read pumps one worker's inbound frames: local delivery and the control
// frames (goodbye, pong). A read error (worker crash, connection reset,
// heartbeat-triggered close) runs the loss path: Run stops waiting for
// the worker during teardown, and before teardown the slot reopens for a
// rolling replacement after OnWorkerLost has fired.
//
// The envelope is remote-controlled, so every field is checked from the
// peek before any payload is decoded: a malformed frame, a forged From
// and a frame addressed to another worker's rank are dropped, never
// allowed to panic or to reach a socket.
func (c *NetCluster) read(slot int, nc *netConn) {
	r := bufio.NewReader(nc.c)
	for {
		body, err := c.counters.readBody(r)
		if err != nil {
			c.workerGone(slot, nc)
			return
		}
		c.lastSeen[slot].Store(time.Now().UnixNano())
		from, to, tag, ok := codec.PeekEnvelope(body)
		if !ok {
			continue // truncated header or foreign version
		}
		if to == ctrlRank {
			switch Tag(tag) {
			case ctrlBye:
				c.workerTelemetry(slot, body)
				c.workerGone(slot, nc)
				return
			case ctrlPong:
				c.workerTelemetry(slot, body)
			}
			continue
		}
		// A worker reaches only the coordinator's ranks (its own it
		// delivers locally), and may only speak as the ranks it hosts: the
		// From field is echoed into Send targets by the scheduler, so a
		// forged one (External, another worker's rank, out of world) must
		// be dropped here, not trusted into the protocol.
		if to < 0 || to >= int32(c.bounds[0]) {
			continue
		}
		if from < int32(c.bounds[slot]) || from >= int32(c.bounds[slot+1]) {
			continue
		}
		f, err := c.counters.decodeBody(body)
		if err != nil {
			continue // malformed payload: drop, the sender is remote
		}
		c.local[to].mb.push(Msg{From: Rank(from), Tag: Tag(f.Tag), Payload: f.Payload})
	}
}

// workerTelemetry decodes the idle counters piggybacked on a pong or
// goodbye frame and hands them to the embedding layer.
func (c *NetCluster) workerTelemetry(slot int, body []byte) {
	if c.cfg.OnWorkerStats == nil {
		return
	}
	f, err := c.counters.decodeBody(body)
	if err != nil {
		return // malformed control payload: drop
	}
	idle, ok := f.Payload.([]float64)
	if !ok || len(idle) == 0 {
		return
	}
	// Each entry is a cumulative idle duration in seconds. One that is not
	// finite, negative, or past what a time.Duration holds would land in
	// the pool's counters as garbage (NaN converts to math.MinInt64 on
	// amd64), so the whole snapshot is dropped: the next one replaces it.
	for _, sec := range idle {
		if !(sec >= 0 && sec*float64(time.Second) < float64(math.MaxInt64)) {
			return
		}
	}
	c.cfg.OnWorkerStats(slot, c.bounds[slot], idle)
}

// workerGone handles one worker connection ending, by goodbye or by
// stream death. During teardown the slot is marked drained so Run can
// finish; before teardown this is a worker loss: OnWorkerLost fires
// first, and only then does the slot reopen for a replacement — so
// everything the loss hook sends into the rank world is ordered ahead of
// any frame from a rejoining worker, and frames routed to the slot in the
// meantime queue in its pending list.
func (c *NetCluster) workerGone(slot int, nc *netConn) {
	nc.c.Close() //nolint:errcheck // may already be closed
	c.mu.Lock()
	if c.conns[slot] != nc {
		// A stale notification for a connection this slot no longer owns.
		c.mu.Unlock()
		return
	}
	c.conns[slot] = nil
	c.done[slot] = true
	closed := c.closed
	c.mu.Unlock()
	c.cond.Broadcast()
	if closed {
		return
	}
	if c.cfg.OnWorkerLost != nil {
		c.cfg.OnWorkerLost(slot, c.bounds[slot], c.bounds[slot+1])
	}
	c.mu.Lock()
	var graceGen uint64
	grace := false
	overflow := false
	var overflowGen uint64
	if !c.closed {
		c.done[slot] = false
		c.claimed[slot] = false
		if c.cfg.ReplaceGrace > 0 {
			grace, graceGen = true, c.gen[slot]
		}
		// Frames queued while the loss hook ran could not trip the cap
		// (the slot was still claimed); settle the bill now.
		overflow, overflowGen = c.pendingOverLimit(slot)
	}
	c.mu.Unlock()
	if overflow {
		c.abandonSlot(slot, overflowGen)
		return
	}
	if grace {
		time.AfterFunc(c.cfg.ReplaceGrace, func() { c.abandonSlot(slot, graceGen) })
	}
}

var _ Cluster = (*NetCluster)(nil)

// NetWorker is the worker-process side of a distributed world: it hosts
// the contiguous rank range the coordinator assigned at handshake and
// implements Cluster for exactly those ranks (Start for any other rank is
// ignored).
type NetWorker struct {
	conn   *netConn
	size_  int
	lo, hi Rank
	blob   []byte
	start  time.Time
	local  []*netComm

	counters netCounters

	// telemetry, when set (before Run), samples the worker's cumulative
	// per-rank idle seconds; the snapshot rides pong and goodbye frames.
	telemetry func() []float64

	// silence, when positive (SetSilenceTimeout, before Run), is the
	// worker-side liveness budget: the coordinator pings every Heartbeat
	// interval, so a stream that carries nothing for this long means the
	// coordinator is dead or the path is blackholed. The monitor closes
	// the connection; the reader fails and Run returns with Lost() true.
	silence  time.Duration
	lastRecv atomic.Int64
	lost     atomic.Bool

	readerErr chan error
	bodiesRun sync.WaitGroup
}

// DialWorker connects to a coordinator, performs the handshake —
// presenting the shared-secret token, which may be empty when the
// coordinator does not require one — and returns the worker's endpoint.
// The caller inspects RankRange and Blob to construct the rank bodies,
// Starts them, and calls Run.
func DialWorker(addr, token string) (*NetWorker, error) {
	if len(token) > 255 {
		return nil, fmt.Errorf("mpi: worker token of %d bytes exceeds 255", len(token))
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	// The whole handshake must complete within the timeout; a stalled or
	// bogus coordinator must not hang the worker. Cleared before frame
	// traffic starts.
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout)) //nolint:errcheck // enforced by the reads below
	hello := append([]byte(helloMagic), codec.Version, byte(len(token)))
	hello = append(hello, token...)
	if _, err := conn.Write(hello); err != nil {
		conn.Close() //nolint:errcheck
		return nil, err
	}
	head := make([]byte, 2)
	if _, err := io.ReadFull(conn, head); err != nil {
		conn.Close() //nolint:errcheck
		return nil, fmt.Errorf("mpi: handshake: %w", err)
	}
	switch head[0] {
	case hsOK:
	case hsBadVersion:
		conn.Close() //nolint:errcheck
		return nil, fmt.Errorf("%w: coordinator speaks %d, this worker %d",
			codec.ErrVersion, head[1], codec.Version)
	case hsBadToken:
		conn.Close() //nolint:errcheck
		return nil, fmt.Errorf("%w: shared secret mismatch", ErrBadToken)
	default:
		conn.Close() //nolint:errcheck
		return nil, fmt.Errorf("%w (status %d): no free worker slot", ErrWorkerRejected, head[0])
	}
	rest := make([]byte, 16)
	if _, err := io.ReadFull(conn, rest); err != nil {
		conn.Close() //nolint:errcheck
		return nil, fmt.Errorf("mpi: handshake: %w", err)
	}
	w := &NetWorker{
		conn:      &netConn{c: conn},
		size_:     int(binary.LittleEndian.Uint32(rest[0:])),
		lo:        Rank(binary.LittleEndian.Uint32(rest[4:])),
		hi:        Rank(binary.LittleEndian.Uint32(rest[8:])),
		start:     time.Now(),
		readerErr: make(chan error, 1),
	}
	bloblen := binary.LittleEndian.Uint32(rest[12:])
	if bloblen > codec.MaxFrame {
		conn.Close() //nolint:errcheck
		return nil, fmt.Errorf("mpi: handshake blob of %d bytes", bloblen)
	}
	w.blob = make([]byte, bloblen)
	if _, err := io.ReadFull(conn, w.blob); err != nil {
		conn.Close() //nolint:errcheck
		return nil, fmt.Errorf("mpi: handshake: %w", err)
	}
	conn.SetReadDeadline(time.Time{}) //nolint:errcheck // frames may arrive much later
	if w.lo < 0 || w.hi <= w.lo || int(w.hi) > w.size_ {
		conn.Close() //nolint:errcheck
		return nil, fmt.Errorf("mpi: handshake rank range [%d, %d) in world of %d", w.lo, w.hi, w.size_)
	}
	w.local = make([]*netComm, w.hi-w.lo)
	for i := range w.local {
		w.local[i] = &netComm{w: w, rank: w.lo + Rank(i), mb: newMailbox()}
	}
	return w, nil
}

// RankRange returns the contiguous [lo, hi) range this worker hosts.
func (w *NetWorker) RankRange() (lo, hi Rank) { return w.lo, w.hi }

// Close tears the coordinator connection down without running the world:
// the escape hatch for an embedder that dialed successfully but cannot
// serve the assigned ranks (configuration mismatch). The coordinator's
// reader observes the close and releases the worker slot. Run closes the
// connection itself; Close is only for the never-Run path.
func (w *NetWorker) Close() error { return w.conn.c.Close() }

// Blob returns the coordinator's opaque configuration blob.
func (w *NetWorker) Blob() []byte { return w.blob }

// SetTelemetry installs the sampler whose snapshot — cumulative idle
// seconds, laid out by the embedding layer — is piggybacked on every
// pong and on the goodbye frame. Must be called before Run; the sampler
// is invoked from transport goroutines and must be safe for concurrent
// use.
func (w *NetWorker) SetTelemetry(sample func() []float64) { w.telemetry = sample }

// SetSilenceTimeout arms the worker-side liveness monitor: if the
// coordinator stream carries no frame (data or ping) for d, the
// connection is severed so Run returns instead of hanging on a dead or
// blackholed coordinator forever — the worker-side mirror of the
// coordinator's HeartbeatTimeout. Must be called before Run. Choose d
// comfortably above the coordinator's ping interval (default 2s). Zero
// or negative disables the monitor (the default).
func (w *NetWorker) SetSilenceTimeout(d time.Duration) { w.silence = d }

// Lost reports whether Run ended because the coordinator stream died
// (read error, reset, or the SetSilenceTimeout monitor) rather than by a
// clean drain of the hosted rank bodies. Valid after Run returns; the
// embedding layer uses it to decide whether to redial.
func (w *NetWorker) Lost() bool { return w.lost.Load() }

// monitorSilence severs the coordinator connection once the stream has
// been silent past the budget. Closing is enough: the reader fails and
// Run unwinds through its loss path.
func (w *NetWorker) monitorSilence(stop chan struct{}) {
	interval := w.silence / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		if time.Now().UnixNano()-w.lastRecv.Load() > int64(w.silence) {
			w.conn.c.Close() //nolint:errcheck // reader runs the loss path
			return
		}
	}
}

// sendCtrl ships a control frame (pong, goodbye) carrying the current
// telemetry snapshot, when a sampler is installed.
func (w *NetWorker) sendCtrl(tag Tag) {
	var payload any
	if w.telemetry != nil {
		if idle := w.telemetry(); len(idle) > 0 {
			payload = idle
		}
	}
	frame, err := w.counters.encodeFrame(w.lo, ctrlRank, tag, payload)
	if err != nil {
		return // unencodable telemetry: drop the control frame, not the conn
	}
	if w.conn.write(frame) == nil {
		w.counters.countSent(len(frame))
	}
}

// Stats snapshots the worker's transport counters.
func (w *NetWorker) Stats() NetStats { return w.counters.snapshot() }

// Size implements Cluster.
func (w *NetWorker) Size() int { return w.size_ }

func (w *NetWorker) size() int          { return w.size_ }
func (w *NetWorker) now() time.Duration { return time.Since(w.start) }

// route implements netWorld: locally hosted ranks get mailbox delivery,
// everything else goes to the coordinator, whose hub drops a frame for
// another worker's rank.
func (w *NetWorker) route(from, to Rank, tag Tag, payload any) {
	if to >= w.lo && to < w.hi {
		w.local[to-w.lo].mb.push(Msg{From: from, Tag: tag, Payload: payload})
		return
	}
	frame, err := w.counters.encodeFrame(from, to, tag, payload)
	if err != nil {
		panic(fmt.Sprintf("mpi: unencodable payload for rank %d: %v", to, err))
	}
	// A dead coordinator surfaces via the reader; the error itself is not
	// actionable here.
	if w.conn.write(frame) == nil {
		w.counters.countSent(len(frame))
	}
}

// Inject delivers an out-of-world message (From == External) to a hosted
// rank; a rank outside this worker's range is ignored. After Run returns
// with the coordinator lost, it is how the embedder releases the bodies
// left waiting in Recv.
func (w *NetWorker) Inject(to Rank, tag Tag, payload any) {
	if to >= w.lo && to < w.hi {
		w.local[to-w.lo].mb.push(Msg{From: External, Tag: tag, Payload: payload})
	}
}

// Start implements Cluster: bodies for ranks outside this worker's range
// are ignored (their hosting process runs them).
func (w *NetWorker) Start(rank Rank, body func(Comm)) {
	if rank < w.lo || rank >= w.hi {
		return
	}
	nc := w.local[rank-w.lo]
	if nc.body != nil {
		panic(fmt.Sprintf("mpi: rank %d started twice", rank))
	}
	nc.body = body
}

// Run implements Cluster: it launches the hosted bodies and blocks until
// they all return (normally after the embedding protocol's shutdown
// broadcast), then sends the goodbye frame and closes the connection. If
// the coordinator connection dies first, Run returns early with the hosted
// bodies stranded mid-Recv; the embedder releases them with Inject.
func (w *NetWorker) Run() time.Duration {
	for _, nc := range w.local {
		if nc.body == nil {
			panic(fmt.Sprintf("mpi: rank %d never started", nc.rank))
		}
	}
	t0 := time.Now()
	w.lastRecv.Store(time.Now().UnixNano())
	if w.silence > 0 {
		stop := make(chan struct{})
		defer close(stop)
		go w.monitorSilence(stop)
	}
	go w.read()
	bodiesDone := make(chan struct{})
	for _, nc := range w.local {
		nc := nc
		w.bodiesRun.Add(1)
		go func() {
			defer w.bodiesRun.Done()
			nc.body(nc)
		}()
	}
	go func() {
		w.bodiesRun.Wait()
		close(bodiesDone)
	}()
	select {
	case <-bodiesDone:
		// The goodbye carries the final telemetry snapshot, so the
		// coordinator's metrics see the worker's complete idle accounting
		// even if the last pong predates the drain.
		w.sendCtrl(ctrlBye)
	case <-w.readerErr:
		// Coordinator gone: nothing left to say goodbye to.
		w.lost.Store(true)
	}
	w.conn.c.Close() //nolint:errcheck // teardown
	return time.Since(t0)
}

// read pumps inbound frames into the hosted ranks' mailboxes. Only I/O
// errors are fatal (the coordinator is gone); a frame that fails to peek
// or decode is dropped, never allowed to kill this process.
func (w *NetWorker) read() {
	r := bufio.NewReader(w.conn.c)
	for {
		body, err := w.counters.readBody(r)
		if err != nil {
			select {
			case w.readerErr <- err:
			default:
			}
			return
		}
		w.lastRecv.Store(time.Now().UnixNano())
		_, to32, tag32, ok := codec.PeekEnvelope(body)
		if !ok {
			continue // truncated header or foreign version
		}
		if to32 == ctrlRank {
			if Tag(tag32) == ctrlPing {
				w.sendCtrl(ctrlPong)
			}
			continue
		}
		to := Rank(to32)
		if to < w.lo || to >= w.hi {
			continue // stray frame for a rank this worker does not host
		}
		f, err := w.counters.decodeBody(body)
		if err != nil {
			continue // malformed payload: drop
		}
		w.local[to-w.lo].mb.push(Msg{From: Rank(f.From), Tag: Tag(f.Tag), Payload: f.Payload})
	}
}

var _ Cluster = (*NetWorker)(nil)
