// Package vtime is a deterministic discrete-event simulator with
// cooperative goroutine processes.
//
// It is the substitution substrate for the paper's physical cluster: the
// parallel search processes (root, medians, dispatcher, clients) run as
// goroutines against a virtual clock. Events are ordered by (time, seq),
// seq being a counter assigned when the event is scheduled, so ties in
// time are broken by schedule order and simulations are fully
// deterministic: same seed, same event order, same virtual makespan,
// regardless of the host's core count or load.
//
// Execution model. Every process has its own goroutine, and exactly one
// goroutine holds control at a time. There is no scheduler goroutine: the
// event loop runs on the goroutine of the process that parks (or
// finishes). It runs due function events inline, and at the first process
// event hands control to that process with one channel send, then blocks
// until something resumes it. When the next process event is the parking
// process's own — a process whose Advance has nothing due before its
// deadline — the loop simply returns and the process continues with no
// handoff at all. Run only starts the chain on its caller's goroutine and
// waits until the queue drains. Events are values in a binary heap, so
// Wake, Sleep and AtCall allocate nothing.
//
// Processes spend virtual CPU time with Proc.Advance (the cluster layer
// scales real work units by per-node speed, modelling the paper's
// heterogeneous 1.86/2.33 GHz nodes) and communicate through higher-level
// primitives (internal/mpi) built on Park/Wake.
package vtime

import (
	"fmt"
	"time"
)

// Sim is a discrete-event simulation. Create with NewSim; not safe for use
// from multiple host goroutines except through the documented process API.
type Sim struct {
	now    time.Duration
	seq    uint64
	events eventHeap

	ctl     chan struct{} // event loop -> Run: queue drained or overrun
	procs   []*Proc
	nSteps  uint64 // events executed, for introspection and loop guards
	overrun bool   // the loop stopped at MaxSteps; Run panics

	// MaxSteps aborts Run with a panic after this many events when >0;
	// a backstop against accidental infinite simulations in tests.
	MaxSteps uint64
}

// NewSim returns an empty simulation at virtual time zero.
func NewSim() *Sim {
	return &Sim{ctl: make(chan struct{})}
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// Steps returns the number of events executed so far.
func (s *Sim) Steps() uint64 { return s.nSteps }

// event is one scheduled action. Exactly one of call / p is set: call(arg)
// runs inline in the event loop, p events resume a parked process.
type event struct {
	t    time.Duration
	seq  uint64
	call func(int)
	arg  int
	p    *Proc
}

func (e *event) before(o *event) bool {
	return e.t < o.t || e.t == o.t && e.seq < o.seq
}

// eventHeap is a binary min-heap on (t, seq). The order is total, so the
// pop sequence depends only on the pushes, not on the heap's layout.
type eventHeap []event

func (s *Sim) push(e event) {
	e.seq = s.seq
	s.seq++
	h := append(s.events, e)
	i := len(h) - 1
	for i > 0 {
		up := (i - 1) / 2
		if !e.before(&h[up]) {
			break
		}
		h[i] = h[up]
		i = up
	}
	h[i] = e
	s.events = h
}

func (s *Sim) pop() event {
	h := s.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // drop references held by the vacated slot
	h = h[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = last
	}
	s.events = h
	return top
}

// At schedules fn to run after delay of virtual time. fn runs in the
// event loop, on whichever goroutine holds control — some process's, or
// Run's caller's: it must not block, Park or Sleep; it may schedule
// further events and Wake processes. Negative delays are treated as zero.
func (s *Sim) At(delay time.Duration, fn func()) {
	s.AtCall(delay, func(int) { fn() }, 0)
}

// AtCall is At for a function of one int argument: fn(arg) runs after
// delay under At's contract. Passing a long-lived fn (a method value
// stored once) with the per-event state in arg schedules without
// allocating a closure per event.
func (s *Sim) AtCall(delay time.Duration, fn func(int), arg int) {
	s.push(event{t: s.now + max(delay, 0), call: fn, arg: arg})
}

// Proc is a simulated process. Its body runs on a dedicated goroutine but
// only while it holds control.
type Proc struct {
	Name string

	sim      *Sim
	resume   chan struct{}
	wakeAt   time.Duration // Sleep deadline; earlier wakes are dropped
	done     bool
	parked   bool
	shutdown bool
}

// errShutdown is panicked inside a process body when the simulation is
// closed; the spawn trampoline recovers it.
type errShutdown struct{}

// Spawn creates a process and schedules its body to start at the current
// virtual time. It may be called before Run or from inside a running
// process.
func (s *Sim) Spawn(name string, body func(*Proc)) *Proc {
	p := &Proc{Name: name, sim: s, resume: make(chan struct{})}
	s.procs = append(s.procs, p)
	p.parked = true // waiting for its start event
	s.push(event{t: s.now, p: p})
	go func() {
		<-p.resume
		defer func() {
			p.done = true
			if r := recover(); r != nil {
				if _, ok := r.(errShutdown); ok {
					s.ctl <- struct{}{} // Close is waiting
					return
				}
				// A real panic from the body takes the program down with
				// context: re-raising it anywhere else would leave the
				// simulation without a goroutine holding control.
				panic(fmt.Sprintf("vtime: process %q panicked: %v", name, r))
			}
			s.handoff(s.next())
		}()
		if p.shutdown {
			// Closed before its start event ran: the body must not run,
			// since its first park would run the event loop inside Close.
			panic(errShutdown{})
		}
		body(p)
	}()
	return p
}

// next runs the event loop on the calling goroutine until a process event
// is due and returns that process, already marked running; it returns nil
// when the queue is empty or MaxSteps tripped (recorded for Run).
func (s *Sim) next() *Proc {
	for len(s.events) > 0 {
		s.nSteps++
		if s.MaxSteps > 0 && s.nSteps > s.MaxSteps {
			s.overrun = true
			return nil
		}
		e := s.pop()
		if e.t > s.now {
			s.now = e.t
		}
		switch {
		case e.call != nil:
			e.call(e.arg)
		case e.p.done, !e.p.parked:
			// Stale wakeup for a finished or already running process.
		case s.now < e.p.wakeAt:
			// A wake that lands mid-Sleep does not shorten it: resuming
			// the process would only see its deadline ahead and re-park.
		default:
			e.p.parked = false
			return e.p
		}
	}
	return nil
}

// handoff passes control to q, or back to Run when q is nil.
func (s *Sim) handoff(q *Proc) {
	if q == nil {
		s.ctl <- struct{}{}
		return
	}
	q.resume <- struct{}{}
}

// Run executes events until none remain, then returns the final virtual
// time. Processes still parked when the queue drains (e.g. servers waiting
// for requests) simply stay parked; a later Run can resume them, or Close
// terminates them.
func (s *Sim) Run() time.Duration {
	s.overrun = false
	if q := s.next(); q != nil {
		s.handoff(q)
		<-s.ctl
	}
	if s.overrun {
		panic("vtime: MaxSteps exceeded, runaway simulation")
	}
	return s.now
}

// Close terminates every parked process by resuming it with a shutdown
// signal, releasing their goroutines. The simulation cannot be used
// afterwards.
func (s *Sim) Close() {
	for _, p := range s.procs {
		if p.done || !p.parked {
			continue
		}
		p.shutdown = true
		p.parked = false
		p.resume <- struct{}{}
		<-s.ctl
	}
}

// Parked returns the names of processes currently parked, for debugging
// stuck simulations.
func (s *Sim) Parked() []string {
	var names []string
	for _, p := range s.procs {
		if !p.done && p.parked {
			names = append(names, p.Name)
		}
	}
	return names
}

// park gives up control: it runs the event loop and, unless the next
// process event is its own, hands control on and blocks until resumed.
func (p *Proc) park() {
	p.parked = true
	if q := p.sim.next(); q != p {
		p.sim.handoff(q)
		<-p.resume
	}
	if p.shutdown {
		panic(errShutdown{})
	}
}

// Park blocks the process until another event wakes it with Sim.Wake.
// Spurious wakeups are possible; callers must re-check their condition in
// a loop, condition-variable style.
func (p *Proc) Park() { p.park() }

// Wake schedules q to resume at the current virtual time. Safe to call
// from the event loop (At functions) or from another process. Waking a
// non-parked, sleeping or finished process is a harmless no-op at
// dispatch time.
func (s *Sim) Wake(q *Proc) {
	s.push(event{t: s.now, p: q})
}

// Sleep blocks the process for d of virtual time. Other events targeting
// the process during the sleep (e.g. message deliveries) do not shorten
// it: they are dropped at dispatch until the deadline is reached.
func (p *Proc) Sleep(d time.Duration) {
	p.wakeAt = p.sim.now + max(d, 0)
	p.sim.push(event{t: p.wakeAt, p: p})
	p.park()
	p.wakeAt = 0
}

// Advance spends d of virtual CPU time. Semantically identical to Sleep —
// the distinction is documentation: Advance models computation, Sleep
// models waiting.
func (p *Proc) Advance(d time.Duration) { p.Sleep(d) }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.sim.now }

// Sim returns the simulation owning the process.
func (p *Proc) Sim() *Sim { return p.sim }
