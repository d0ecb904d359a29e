package parallel

// The pool's lifecycle: building it in process or over TCP, repairing it
// when a worker process is lost or abandoned, and shutting it down.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/mpi"
)

// poolCluster is what a Pool needs from its transport: the Cluster
// life-cycle plus out-of-world injection. WallCluster and NetCluster both
// satisfy it, which is the whole point — the pool wiring and the search
// protocol are transport-blind.
type poolCluster interface {
	mpi.Cluster
	Inject(to mpi.Rank, tag mpi.Tag, payload any)
}

// Pool is a persistent worker pool serving many search jobs. Construct
// with NewPool (in-process goroutine workers) or NewNetPool (workers in
// separate OS processes over TCP), run jobs with RunJob (one per slot at
// a time), and tear down with Shutdown. All methods are safe for
// concurrent use.
type Pool struct {
	cfg     PoolConfig
	world   *poolWorld
	cluster poolCluster
	net     *mpi.NetCluster // nil for in-process pools
	netCfg  NetPoolConfig   // normalized; zero value for in-process pools
	coll    *poolCollector
	cache   *cache.Cache // the coordinator process's transposition cache
	inline  bool         // in process, 1 median × 1 client: slots play their jobs (playInline)

	runDone chan struct{}

	mu        sync.Mutex
	idle      *sync.Cond // signalled when a slot goes idle
	closed    bool
	slotBusy  []bool
	slotEpoch []uint64
	slotStop  []atomic.Uint64 // epoch of the slot's last stop order, polled by inline jobs

	// deg tracks permanent worker loss (distributed pools only): which
	// worker indexes have been abandoned and whether the surviving world
	// has fallen below the pool's floor. Guarded by its own mutex — the
	// transport hooks that write it must not contend with the job-slot
	// path; never held while p.mu is held by the same goroutine in the
	// deg→p.mu direction (failBusySlots acquires p.mu only after deg.mu is
	// released).
	deg struct {
		mu        sync.Mutex
		abandoned map[int]svcRanksLost // worker index -> its rank range
		failed    bool
	}
}

// ErrPoolClosed is returned by RunJob once Shutdown has begun.
var ErrPoolClosed = fmt.Errorf("parallel: pool is shut down")

// ErrDegraded is returned by RunJob — immediately on submission, or as a
// fail-fast mid-job — when permanent worker loss has shrunk the pool
// below its floor: any abandonment with NetPoolConfig.Degrade off, or
// fewer than MinWorkers surviving workers with it on. The failure is
// deterministic and prompt: queued frames for the dead worker are
// dropped, nothing stalls, and a re-run of the same Config under the same
// seed (see service-level retry) produces the same answer once capacity
// returns.
var ErrDegraded = fmt.Errorf("parallel: pool degraded below its worker floor")

// NewPool builds the worker cluster — slots, scheduler, medians, and the
// clients as helpers of one executor — as goroutines of this process and
// starts it running. The pool idles until jobs are submitted with RunJob.
func NewPool(cfg PoolConfig) (*Pool, error) {
	cfg = cfg.withDefaults()
	if err := cfg.check(); err != nil {
		return nil, err
	}
	world := newPoolWorld(cfg, 1)
	return newPoolOn(world, mpi.NewWallCluster(world.size()), nil, newPoolCollector(cfg))
}

// NetPoolConfig describes the distributed deployment of a NewNetPool.
type NetPoolConfig struct {
	// Listen is the TCP address worker processes dial; "127.0.0.1:0"
	// binds an ephemeral port (read it back with Pool.WorkerAddr).
	Listen string
	// Workers is the number of pnmcs-worker processes expected, at most
	// Medians. Each hosts one contiguous range of median ranks, an even
	// share of the medians, and runs an even share of the clients as the
	// helpers of its own rollout executor (newPoolWorld): a worker with no
	// more clients than medians starts no helper.
	Workers int
	// Token, when non-empty, is the shared secret every worker must
	// present at handshake (constant-time compared by the coordinator).
	Token string
	// Heartbeat / HeartbeatTimeout tune worker liveness probing: the
	// coordinator pings each worker every Heartbeat and declares a worker
	// lost after HeartbeatTimeout of silence. Zero selects the transport
	// defaults (2s / 8s); negative Heartbeat disables probing (losses are
	// then detected by read errors only). See mpi.NetConfig.
	Heartbeat        time.Duration
	HeartbeatTimeout time.Duration

	// ReplaceGrace bounds how long a lost worker's slot waits for a
	// replacement before the pool gives up on it: after the grace window
	// the worker is abandoned, its queued frames are dropped, and its rank
	// range is re-mapped onto the survivors (Degrade on) or running jobs
	// fail fast (Degrade off). Zero keeps the PR 5 behavior — wait
	// forever, queue forever.
	ReplaceGrace time.Duration
	// PendingLimit caps the per-worker pending-frame queue that buffers
	// traffic while a lost slot awaits a replacement; overflowing it
	// abandons the worker immediately (memory stays bounded even inside
	// the grace window). Zero selects 8192 frames when ReplaceGrace is
	// set and unbounded otherwise; negative forces unbounded.
	PendingLimit int
	// Degrade, when true, lets the pool finish jobs on a shrunken world
	// after an abandonment: the dead ranks are re-mapped onto surviving
	// workers and results stay bit-identical to solo runs (rollout rng is
	// keyed by logical job coordinates, never by rank). When false, any
	// abandonment fails running jobs deterministically with ErrDegraded.
	Degrade bool
	// MinWorkers is the degraded floor: with Degrade on, jobs keep
	// running while at least MinWorkers workers survive; below it the pool
	// fails fast. Zero means 1.
	MinWorkers int
}

// NewNetPool builds a distributed pool: the control ranks — job slots
// and scheduler — run in this process (the coordinator), and the medians
// are hosted by Workers external processes running cmd/pnmcs-worker (or
// parallel.ServeWorker), each with its share of the clients as helpers.
// Workers must not exceed Medians: past it some worker would host no
// median. The pool accepts jobs immediately; until workers
// dial in, candidates simply wait in the scheduler's queues. Results are
// bit-identical to Reference's answer for the same Config: rollout
// streams are keyed by logical job coordinates, never by where a rollout
// runs.
//
// The pool survives worker churn (DESIGN.md §8): when a worker's stream
// dies — crash, reset, or missed heartbeat — the candidates granted to
// its medians are re-queued at the head of their jobs' queues and
// re-granted to surviving medians. The worker took its helpers, and every
// rollout its medians had posted, with it, so there is nothing more to
// repair. A replacement worker dialing in reclaims the lost slot's rank
// range mid-job and starts serving immediately, receiving everything
// queued for the slot while it was down. Results stay bit-identical
// through all of it: re-executed work replays the same coordinate-keyed
// rollout streams and duplicates are shed by epoch/step guards at the
// slot.
func NewNetPool(cfg PoolConfig, net NetPoolConfig) (*Pool, error) {
	cfg = cfg.withDefaults()
	if err := cfg.check(); err != nil {
		return nil, err
	}
	if net.Workers < 1 {
		return nil, fmt.Errorf("parallel: net pool needs at least one worker process")
	}
	if net.Workers > cfg.Medians {
		return nil, fmt.Errorf("parallel: %d workers for %d medians: every worker must host a median, so at most medians = %d",
			net.Workers, cfg.Medians, cfg.Medians)
	}
	world := newPoolWorld(cfg, net.Workers)
	coll := newPoolCollector(cfg)

	if net.MinWorkers <= 0 {
		net.MinWorkers = 1
	}
	pendingLimit := net.PendingLimit
	if pendingLimit == 0 && net.ReplaceGrace > 0 {
		pendingLimit = 8192
	}
	if pendingLimit < 0 {
		pendingLimit = 0
	}

	// The transport hooks fire from the coordinator's connection
	// goroutines, potentially before ListenNet (and NewNetPool itself)
	// has returned; they spin on the pointers for that (microsecond)
	// window so no loss, join or abandonment event is ever dropped.
	var ncp atomic.Pointer[mpi.NetCluster]
	cluster := func() *mpi.NetCluster {
		for {
			if nc := ncp.Load(); nc != nil {
				return nc
			}
			runtime.Gosched()
		}
	}
	var pp atomic.Pointer[Pool]
	pool := func() *Pool {
		for {
			if p := pp.Load(); p != nil {
				return p
			}
			runtime.Gosched()
		}
	}
	nc, err := mpi.ListenNet(mpi.NetConfig{
		Listen:           net.Listen,
		LocalRanks:       cfg.Slots + 1,
		WorkerRanks:      world.ranks,
		Blob:             appendWorkerBlob(nil, cfg, net.Workers),
		Token:            net.Token,
		Heartbeat:        net.Heartbeat,
		HeartbeatTimeout: net.HeartbeatTimeout,
		ReplaceGrace:     net.ReplaceGrace,
		PendingLimit:     pendingLimit,
		OnWorkerLost: func(_ int, lo, hi mpi.Rank) {
			coll.addWorkerLost()
			coll.foldRemoteIdle(world, lo)
			// Injected before the transport reopens the slot, so the
			// scheduler's repair is ordered ahead of anything a
			// replacement worker says.
			cluster().Inject(world.sched, tagRanksLost, svcRanksLost{Lo: lo, Hi: hi})
		},
		OnWorkerJoined: func(worker int, lo, hi mpi.Rank, rejoin bool) {
			if rejoin {
				coll.addWorkerRejoined()
			}
			pool().handleJoined(worker, lo, hi)
		},
		OnWorkerAbandoned: func(worker int, lo, hi mpi.Rank) {
			pool().handleAbandoned(worker, lo, hi)
		},
		OnWorkerStats: func(_ int, lo mpi.Rank, idleSeconds []float64) {
			coll.setRemoteIdle(world, lo, idleSeconds)
		},
	})
	if err != nil {
		return nil, err
	}
	ncp.Store(nc)
	p, err := newPoolOn(world, nc, nc, coll)
	if err != nil {
		return nil, err
	}
	p.netCfg = net
	pp.Store(p)
	return p, nil
}

// handleAbandoned runs when the transport gives up on a lost worker for
// good (grace expired or pending queue overflowed, see OnWorkerAbandoned):
// the pool re-maps the dead rank range onto the survivors, or fails
// running jobs fast when the shrunken world is below its floor.
func (p *Pool) handleAbandoned(worker int, lo, hi mpi.Rank) {
	p.coll.addWorkerAbandoned()
	p.world.markDead(lo, hi)
	// The dead notice first, so that by the time a slot's fail-fast
	// abandon reaches the scheduler, the scheduler has already repaired
	// its grant bookkeeping. Inject is a synchronous mailbox push, so this
	// ordering is a guarantee, not a hope.
	p.cluster.Inject(p.world.sched, tagRanksDead, svcRanksLost{Lo: lo, Hi: hi})
	p.deg.mu.Lock()
	if p.deg.abandoned == nil {
		p.deg.abandoned = make(map[int]svcRanksLost)
	}
	p.deg.abandoned[worker] = svcRanksLost{Lo: lo, Hi: hi}
	p.recomputeFailedLocked()
	failed := p.deg.failed
	p.deg.mu.Unlock()
	if failed {
		p.failBusySlots()
	}
}

// handleJoined reverses an abandonment when a replacement turns up after
// all: the revived ranks rejoin the world and a failed pool may recover
// its floor. The replacement's medians and helpers boot idle with their
// own executor, so no rank needs telling.
func (p *Pool) handleJoined(worker int, lo, hi mpi.Rank) {
	p.deg.mu.Lock()
	_, wasAbandoned := p.deg.abandoned[worker]
	if wasAbandoned {
		delete(p.deg.abandoned, worker)
		p.recomputeFailedLocked()
	}
	p.deg.mu.Unlock()
	if !wasAbandoned {
		return
	}
	p.world.revive(lo, hi)
}

// recomputeFailedLocked re-derives the fail-fast condition from the
// abandoned set. Caller holds p.deg.mu. Every worker hosts a median
// (NewNetPool), which can play its steps without a helper, so a floor of
// at least one surviving worker is also the floor a job needs to finish.
func (p *Pool) recomputeFailedLocked() {
	surviving := p.netCfg.Workers - len(p.deg.abandoned)
	floor := p.netCfg.MinWorkers
	if !p.netCfg.Degrade {
		floor = p.netCfg.Workers // any abandonment at all fails the pool
	}
	p.deg.failed = surviving < floor
}

// failBusySlots injects a fail-fast order at every slot with a running
// job. The epoch ride-along makes a late fail order for an already-
// finished job harmless.
func (p *Pool) failBusySlots() {
	p.mu.Lock()
	for slot := 0; slot < p.cfg.Slots; slot++ {
		if p.slotBusy[slot] {
			p.cluster.Inject(mpi.Rank(slot), tagJobFail, p.slotEpoch[slot])
		}
	}
	p.mu.Unlock()
}

// failedNow reports the pool's current fail-fast state.
func (p *Pool) failedNow() bool {
	p.deg.mu.Lock()
	defer p.deg.mu.Unlock()
	return p.deg.failed
}

// newPoolOn wires the pool's ranks onto a transport and starts it. The
// same wiring runs for every transport: a cluster hosting only a subset
// of the ranks (the net coordinator) ignores Start calls for the ranks
// other processes host.
func newPoolOn(world *poolWorld, cl poolCluster, nc *mpi.NetCluster, coll *poolCollector) (*Pool, error) {
	cfg := world.cfg
	p := &Pool{
		cfg:       cfg,
		world:     world,
		cluster:   cl,
		net:       nc,
		coll:      coll,
		runDone:   make(chan struct{}),
		slotBusy:  make([]bool, cfg.Slots),
		slotEpoch: make([]uint64, cfg.Slots),
		slotStop:  make([]atomic.Uint64, cfg.Slots),
		inline:    nc == nil && cfg.Medians == 1 && cfg.Clients == 1,
		// One cache shared by every slot, median and helper this process
		// hosts; a net coordinator's slots use it on a width-one pool only,
		// so it sits empty and each pnmcs-worker builds its own from the
		// handshake blob.
		cache: cache.New(int64(cfg.CacheMB) << 20),
	}
	p.idle = sync.NewCond(&p.mu)

	for slot := 0; slot < cfg.Slots; slot++ {
		slot := slot
		p.cluster.Start(mpi.Rank(slot), func(c mpi.Comm) { p.runSlot(c, slot) })
	}
	p.cluster.Start(world.sched, func(c mpi.Comm) { p.runScheduler(c) })
	// A net coordinator hosts no median, so its executor starts no helper.
	ex := newExecutor(cfg, p.cache)
	if nc == nil {
		n, _ := world.helpers(0)
		ex.start(n, p.coll.addClientIdle)
	}
	startPoolWorkers(p.cluster, world, ex, p.coll.addMedianIdle)

	go func() {
		p.cluster.Run()
		ex.close()
		close(p.runDone)
	}()
	return p, nil
}

// startPoolWorkers starts the median bodies on cl, sharing the process's
// executor ex, and reports each median's Recv-blocked intervals to
// medianIdle. Used by the pool itself (a collector-backed sink) and by
// ServeWorker in a remote worker process (a worker-local sink) — the
// bodies are identical on both sides of the wire, and a cluster hosting
// only some of the ranks ignores the Start calls for the others.
func startPoolWorkers(cl mpi.Cluster, world *poolWorld, ex *executor, medianIdle func(i int, d time.Duration)) {
	for i, r := range world.medians {
		cl.Start(r, func(c mpi.Comm) {
			runPoolMedian(c, world, ex, func(d time.Duration) { medianIdle(i, d) })
		})
	}
}

// WorkerAddr returns the address worker processes dial, or "" for an
// in-process pool.
func (p *Pool) WorkerAddr() string {
	if p.net == nil {
		return ""
	}
	return p.net.Addr()
}

// Slots returns the number of concurrent job slots.
func (p *Pool) Slots() int { return p.cfg.Slots }

// Shutdown drains and tears down the pool: new RunJob calls are refused,
// still-running jobs are cancelled and waited for (they complete with
// Result.Stopped true), and only then is the teardown broadcast to the
// idle ranks — the pool is never dismantled with work in flight, exactly
// like the per-run protocol's end-of-run shutdown. Blocks until the
// cluster exits; safe to call more than once.
func (p *Pool) Shutdown() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		<-p.runDone
		return
	}
	p.closed = true
	for slot := 0; slot < p.cfg.Slots; slot++ {
		if p.slotBusy[slot] {
			p.slotStop[slot].Store(p.slotEpoch[slot])
			p.cluster.Inject(mpi.Rank(slot), tagJobCancel, p.slotEpoch[slot])
		}
	}
	for {
		busy := false
		for _, b := range p.slotBusy {
			busy = busy || b
		}
		if !busy {
			break
		}
		p.idle.Wait()
	}
	p.mu.Unlock()
	// From here on a worker connection ending is the drain, not a crash:
	// without this, a fast worker's goodbye can race the local bodies'
	// unwind and be misclassified as a loss (spurious churn counters, a
	// slot reopened for a replacement that would never hear the shutdown).
	if p.net != nil {
		p.net.Drain()
	}
	for r := 0; r < p.cluster.Size(); r++ {
		p.cluster.Inject(mpi.Rank(r), tagShutdown, nil)
	}
	<-p.runDone
}
