package parallel

// The slot root: a job-slot rank's top-level game, played against the
// shared scheduler (playJob) or, on a width-one pool, on the slot itself
// (playInline), and the job handle the caller waits on.

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/game"
	"repro/internal/mpi"
)

// Progress is a streaming snapshot of a running job, delivered to the
// RunJob progress callback after every completed root step.
type Progress struct {
	// Steps is the number of root moves played so far.
	Steps int
	// BestScore is the lower-level evaluation backing the move just
	// played — the best score the search has seen for the current line.
	BestScore float64
	// Sequence is a copy of the root's game so far.
	Sequence []game.Move
	// Elapsed is wall time since the job started.
	Elapsed time.Duration
}

// jobStart is the payload injected at a slot rank to begin a job. done
// and progress are ordinary Go callbacks: slot ranks always live in the
// coordinator process (only medians and their helpers are ever remote), so
// the boundary between the rank world and the caller is a function call,
// not a wire format — jobStart never crosses the wire and has no codec
// kind.
type jobStart struct {
	epoch    uint64
	cfg      Config
	progress func(Progress)
	done     func(Result, error)
}

// JobHandle tracks one started job; Wait blocks for its result.
type JobHandle struct {
	p     *Pool
	slot  int
	timer *time.Timer
	ch    chan jobOutcome
}

type jobOutcome struct {
	res Result
	err error
}

// StartJob launches cfg on the given slot without blocking: once it
// returns, the job is cancellable through CancelJob. The caller owns slot
// scheduling — a slot runs one job at a time, and starting a second job
// on a busy slot is an error. progress, when non-nil, is invoked from the
// job's root goroutine after every completed step. The caller must Wait
// on the returned handle.
func (p *Pool) StartJob(slot int, cfg Config, progress func(Progress)) (*JobHandle, error) {
	if slot < 0 || slot >= p.cfg.Slots {
		return nil, fmt.Errorf("parallel: slot %d outside pool of %d", slot, p.cfg.Slots)
	}
	if err := cfg.check(); err != nil {
		return nil, err
	}

	h := &JobHandle{p: p, slot: slot, ch: make(chan jobOutcome, 1)}

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrPoolClosed
	}
	if p.slotBusy[slot] {
		p.mu.Unlock()
		return nil, fmt.Errorf("parallel: slot %d already running a job", slot)
	}
	if p.failedNow() {
		// Refuse outright rather than inject a job the degradation hook
		// would immediately fail: deterministic, and no protocol traffic.
		// (deg.mu nests inside p.mu here; nothing acquires them in the
		// other order while holding either.)
		p.mu.Unlock()
		return nil, ErrDegraded
	}
	p.slotBusy[slot] = true
	p.slotEpoch[slot]++
	epoch := p.slotEpoch[slot]
	js := jobStart{
		epoch:    epoch,
		cfg:      cfg,
		progress: progress,
		done:     func(r Result, err error) { h.ch <- jobOutcome{r, err} },
	}
	// Injected while holding the mutex: any cancellation for this epoch
	// (CancelJob, the deadline timer, Shutdown's drain) observes the busy
	// flag under the same mutex and therefore lands after the start
	// message in the slot's FIFO mailbox.
	p.cluster.Inject(mpi.Rank(slot), tagJobStart, js)
	p.mu.Unlock()

	// StopAfter liveness: a queued job whose candidates no median has
	// picked up receives no messages, so the deadline is enforced by an
	// injected cancellation, not only by in-loop clock checks.
	if cfg.StopAfter > 0 {
		h.timer = time.AfterFunc(cfg.StopAfter, func() {
			p.cluster.Inject(mpi.Rank(slot), tagJobCancel, epoch)
		})
	}
	return h, nil
}

// Wait blocks until the job completes (or is cancelled — Result.Stopped
// true) and frees its slot. Must be called exactly once.
func (h *JobHandle) Wait() (Result, error) {
	out := <-h.ch
	if h.timer != nil {
		h.timer.Stop()
	}
	h.p.mu.Lock()
	h.p.slotBusy[h.slot] = false
	h.p.idle.Broadcast()
	h.p.mu.Unlock()
	return out.res, out.err
}

// RunJob is StartJob followed by Wait: it blocks until the job completes,
// is cancelled, or the pool shuts down.
func (p *Pool) RunJob(slot int, cfg Config, progress func(Progress)) (Result, error) {
	h, err := p.StartJob(slot, cfg, progress)
	if err != nil {
		return Result{}, err
	}
	return h.Wait()
}

// CancelJob cancels the job currently running on slot, if any. The job
// drains its in-flight work and RunJob returns with Result.Stopped true.
// Cancelling an idle slot is a no-op; a cancellation racing a completing
// job is discarded by the epoch check.
func (p *Pool) CancelJob(slot int) {
	if slot < 0 || slot >= p.cfg.Slots {
		return
	}
	p.mu.Lock()
	if p.slotBusy[slot] {
		p.slotStop[slot].Store(p.slotEpoch[slot])
		p.cluster.Inject(mpi.Rank(slot), tagJobCancel, p.slotEpoch[slot])
	}
	p.mu.Unlock()
}

// runSlot is a job-slot root rank: it idles until a job is injected, plays
// that job's top-level game against the shared pool, reports the result
// through the job's done callback, and goes back to idling. Its StatePool
// persists across jobs, so consecutive jobs of the same domain ship
// recycled candidate states.
func (p *Pool) runSlot(c mpi.Comm, slot int) {
	var pool core.StatePool
	var moves []game.Move
	env := refEnv{pool: &pool, cache: p.cache, verify: p.cfg.CacheVerify}
	for {
		msg := c.Recv(mpi.AnyRank, mpi.AnyTag)
		switch msg.Tag {
		case tagShutdown:
			// Teardown only ever arrives from outside the rank world
			// (Pool.Shutdown's Inject); a forged wire frame must not
			// dismantle a rank.
			if msg.From != mpi.External {
				break
			}
			return
		case tagJobStart:
			// jobStart has no codec kind, so only a local Inject can carry
			// one; a wire frame that lands on this tag is dropped.
			js, ok := msg.Payload.(jobStart)
			if !ok {
				break
			}
			if p.inline {
				js.done(p.playInline(c, slot, js, env), nil)
			} else {
				js.done(p.playJob(c, slot, js, &pool, &moves))
			}
		default:
			// A stale cancellation for a job that already completed (the
			// deadline timer racing the job's last score): drop it.
		}
	}
}

// playInline plays a width-one pool's job on its slot with the reference
// loop: no messages and no speculation, as nothing would run beside it. It
// stops within one median step of a stop order or its deadline, and reports
// step latency, rollouts and progress after every root step.
func (p *Pool) playInline(c mpi.Comm, slot int, js jobStart, env refEnv) Result {
	start, last := c.Now(), c.Now()
	var jobs, units int64 // rollouts already in the pool's counters
	env.stopped = func() bool { return p.slotStop[slot].Load() == js.epoch || deadlineDue(c, start, js.cfg.StopAfter) }
	env.stepped = func(res *Result, score float64) {
		now := c.Now()
		res.StepLatency = append(res.StepLatency, now-last)
		p.coll.addStepLatency(now - last)
		last = now
		p.coll.addRollouts(res.Jobs-jobs, res.WorkUnits-units, 0)
		jobs, units = res.Jobs, res.WorkUnits
		if js.progress != nil && !js.cfg.FirstMoveOnly {
			js.progress(Progress{Steps: res.Steps, BestScore: score,
				Sequence: append([]game.Move(nil), res.Sequence...), Elapsed: now - start})
		}
	}
	res := reference(js.cfg, env)
	p.coll.addRollouts(res.Jobs-jobs, res.WorkUnits-units, 0)
	res.Elapsed = c.Now() - start
	return res
}

// playJob plays one job's top-level game. It drives the same stepGather as
// the per-run root, with the work queue moved to the shared scheduler
// rank: candidates are offered on the slot's tag band, scores come back
// tagged with the job epoch, and cancellation (explicit, deadline or
// shutdown) abandons the queued candidates at the scheduler and drains the
// granted ones before returning, so the pool is never torn down with work
// in flight.
//
// With an effective Speculate width k > 0 the gather pipelines step
// boundaries; at resolution the winner's branch is adopted wholesale and
// the losers are cancelled — queued candidates purged at the scheduler,
// buffered grants skipped at the medians via svcSpecCancel, stray scores
// (of games already in play when the cancel came) shed by the gather's
// step/Par guards.
func (p *Pool) playJob(c mpi.Comm, slot int, js jobStart, pool *core.StatePool, movebuf *[]game.Move) (Result, error) {
	cfg := js.cfg
	res := Result{}
	start := c.Now()
	// Effective speculation width: the job's own ask, off when negative.
	// FirstMoveOnly jobs never speculate — speculation pipelines step
	// boundaries, and a one-step job has none.
	k := cfg.Speculate
	if k < 0 || cfg.FirstMoveOnly {
		k = 0
	}
	params := jobParams{
		Slot:     slot,
		Epoch:    js.epoch,
		Level:    cfg.Level,
		Seed:     cfg.Seed,
		Memorize: cfg.Memorize,
		JobScale: cfg.jobScale(),
		Root:     c.Rank(),
		Eval:     cfg.Evaluator,
		Cache:    cfg.Cache,
	}
	deadline := deadlineFunc(c, start, cfg.StopAfter)
	toSched := func(off mpi.Tag, payload any) {
		c.Send(p.world.sched, p.world.space.For(slot, off), payload)
	}
	specCancel := func(step, keep int) {
		toSched(offSpecCancel, svcSpecCancel{Slot: slot, Epoch: js.epoch, Step: step, Keep: keep})
	}

	g := &stepGather{c: c, pool: pool, st: cfg.Root.Clone(), k: k, keep: p.net != nil, par: -1, moves: *movebuf,
		offer: func(step, cand, par int, child game.State) {
			toSched(offOffer, svcCandidate{Step: step, Cand: cand, Par: par, P: params, State: child})
		},
		count: func(a rolloutAcct) {
			res.Jobs += a.rollouts
			res.WorkUnits += a.units
			p.coll.addRollouts(a.rollouts, a.units, a.chunks)
		},
	}
	defer func() { *movebuf = g.moves }()
	if k > 0 {
		defer func() { p.coll.addSpec(res.Speculated, res.SpecWasted) }()
	}
	cancelled := false
	var failErr error

	for !cancelled && g.next() {
		stepStart := c.Now()
		if deadline() {
			res.Stopped = true
			break
		}
		g.open()

		// Gather scores; a cancellation mid-step abandons what is still
		// queued at the scheduler and keeps draining what was granted.
		abandon := func() {
			if !cancelled {
				cancelled = true
				res.Stopped = true
				toSched(offAbandon, svcAbandon{Epoch: js.epoch, Step: g.step})
			}
		}
		// Payload type checks throughout the gather loop: frames arriving
		// over the wire carry remote-controlled payloads, and a
		// wrong-typed one must be dropped, not allowed to panic the
		// coordinator.
		for !g.done() && failErr == nil {
			msg := c.Recv(mpi.AnyRank, mpi.AnyTag)
			switch msg.Tag {
			case tagStepScore:
				// Scores come from medians only; cancellations only from
				// outside the rank world (Inject); abandon acks only from
				// the scheduler. Anything else is a forged wire frame, and
				// a score of another epoch a stray from a previous job.
				if sc, ok := msg.Payload.(svcScore); ok && isMedianRank(p.world, msg.From) && sc.Epoch == js.epoch {
					g.record(sc.Step, sc.Par, sc.Cand, sc.Score, rolloutAcct{sc.Rollouts, sc.Units, sc.Chunks})
				}
			case tagJobCancel:
				if epoch, ok := msg.Payload.(uint64); ok && msg.From == mpi.External && epoch == js.epoch {
					abandon()
				}
			case tagJobFail:
				// The pool degraded below its floor mid-job: fail fast. The
				// abandon is fire-and-forget — no ack wait, no drain — so
				// the failure is prompt even with zero live workers; the
				// scheduler's ack and any straggling scores are shed by the
				// next job's epoch/step guards, and this step's shipped
				// states are left to the garbage collector.
				if epoch, ok := msg.Payload.(uint64); ok && msg.From == mpi.External && epoch == js.epoch {
					failErr = ErrDegraded
					toSched(offAbandon, svcAbandon{Epoch: js.epoch, Step: g.step})
				}
			case tagAbandonAck:
				if ack, ok := msg.Payload.(svcAbandonAck); ok && msg.From == p.world.sched && ack.Epoch == js.epoch {
					g.want -= ack.Dropped
				}
			case tagRegrant:
				// The scheduler re-queued candidates of this job that were
				// lost with a dead worker. Purely informational: the
				// re-granted candidates come back through tagStepScore like
				// any others, so the gather arithmetic is untouched.
				if rg, ok := msg.Payload.(svcRegrant); ok && msg.From == p.world.sched && rg.Epoch == js.epoch {
					res.Regranted += int64(rg.Count)
				}
			}
			if !cancelled && deadline() {
				abandon()
			}
			if !cancelled && failErr == nil {
				res.Speculated += g.speculate()
			}
		}
		if failErr != nil {
			if res.Speculated > 0 {
				specCancel(-1, -1)
			}
			res.Degraded = true
			res.Elapsed = c.Now() - start
			return res, failErr
		}
		if cancelled {
			break
		}

		best, score, wasted := g.resolve()
		if wasted > 0 {
			// Cancel the losers' queued and in-flight work.
			res.SpecWasted += wasted
			specCancel(g.step, g.par)
		}
		res.Steps++
		stepD := c.Now() - stepStart
		res.StepLatency = append(res.StepLatency, stepD)
		p.coll.addStepLatency(stepD)
		res.Sequence = append(res.Sequence, best)
		if res.Steps == 1 {
			res.FirstMove = best
			if cfg.FirstMoveOnly {
				res.Score = score
				res.Elapsed = c.Now() - start
				res.Degraded = p.world.anyDead()
				return res, nil
			}
		}
		if js.progress != nil {
			js.progress(Progress{
				Steps:     res.Steps,
				BestScore: score,
				Sequence:  append([]game.Move(nil), res.Sequence...),
				Elapsed:   c.Now() - start,
			})
		}
	}

	// Whatever speculation is still pending is moot: charge it and tell the
	// scheduler and medians to drop it. The slot never waits for
	// speculative scores, so nothing here blocks; strays are shed by the
	// next job's epoch guard.
	if wasted := g.pending(); wasted > 0 {
		res.SpecWasted += wasted
		specCancel(-1, -1)
	}

	res.Score = g.st.Score()
	res.Elapsed = c.Now() - start
	res.Degraded = p.world.anyDead()
	return res, nil
}
