package vtime

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

func TestSleepAdvancesClock(t *testing.T) {
	s := NewSim()
	var woke time.Duration
	s.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * time.Second)
		woke = p.Now()
	})
	end := s.Run()
	if woke != 5*time.Second {
		t.Fatalf("woke at %v, want 5s", woke)
	}
	if end != 5*time.Second {
		t.Fatalf("sim ended at %v, want 5s", end)
	}
}

func TestParallelSleepsOverlap(t *testing.T) {
	// Two processes sleeping 10s concurrently finish at 10s, not 20s —
	// virtual time models parallel hardware.
	s := NewSim()
	for i := 0; i < 2; i++ {
		s.Spawn("p", func(p *Proc) { p.Advance(10 * time.Second) })
	}
	if end := s.Run(); end != 10*time.Second {
		t.Fatalf("parallel advance ended at %v, want 10s", end)
	}
}

func TestSequentialOrderingWithinProcess(t *testing.T) {
	s := NewSim()
	var marks []time.Duration
	s.Spawn("p", func(p *Proc) {
		p.Sleep(time.Second)
		marks = append(marks, p.Now())
		p.Sleep(2 * time.Second)
		marks = append(marks, p.Now())
	})
	s.Run()
	if len(marks) != 2 || marks[0] != time.Second || marks[1] != 3*time.Second {
		t.Fatalf("marks = %v", marks)
	}
}

func TestAtClosuresRunInOrder(t *testing.T) {
	s := NewSim()
	var order []int
	s.At(2*time.Second, func() { order = append(order, 2) })
	s.At(1*time.Second, func() { order = append(order, 1) })
	s.At(3*time.Second, func() { order = append(order, 3) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	s := NewSim()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Second, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of schedule order: %v", order)
		}
	}
}

func TestParkWake(t *testing.T) {
	s := NewSim()
	ready := false
	var consumerDone time.Duration
	consumer := s.Spawn("consumer", func(p *Proc) {
		for !ready {
			p.Park()
		}
		consumerDone = p.Now()
	})
	s.Spawn("producer", func(p *Proc) {
		p.Sleep(7 * time.Second)
		ready = true
		s.Wake(consumer)
	})
	s.Run()
	if consumerDone != 7*time.Second {
		t.Fatalf("consumer finished at %v, want 7s", consumerDone)
	}
}

func TestSpuriousWakeupHandled(t *testing.T) {
	// Waking a process whose predicate is still false must not break it.
	s := NewSim()
	ready := false
	finished := false
	consumer := s.Spawn("consumer", func(p *Proc) {
		for !ready {
			p.Park()
		}
		finished = true
	})
	s.Spawn("noise", func(p *Proc) {
		p.Sleep(time.Second)
		s.Wake(consumer) // spurious: predicate still false
		p.Sleep(time.Second)
		ready = true
		s.Wake(consumer)
	})
	s.Run()
	if !finished {
		t.Fatal("consumer never finished")
	}
}

func TestRunReturnsWithParkedProcesses(t *testing.T) {
	s := NewSim()
	s.Spawn("server", func(p *Proc) {
		for {
			p.Park() // waits forever: no one wakes it
		}
	})
	done := make(chan time.Duration)
	go func() { done <- s.Run() }()
	select {
	case end := <-done:
		if end != 0 {
			t.Fatalf("end = %v, want 0", end)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return with a parked server")
	}
	if parked := s.Parked(); len(parked) != 1 || parked[0] != "server" {
		t.Fatalf("Parked() = %v", parked)
	}
	s.Close()
	if parked := s.Parked(); len(parked) != 0 {
		t.Fatalf("after Close, Parked() = %v", parked)
	}
}

func TestSpawnFromProcess(t *testing.T) {
	s := NewSim()
	var childTime time.Duration
	s.Spawn("parent", func(p *Proc) {
		p.Sleep(3 * time.Second)
		s.Spawn("child", func(c *Proc) {
			c.Sleep(2 * time.Second)
			childTime = c.Now()
		})
	})
	s.Run()
	if childTime != 5*time.Second {
		t.Fatalf("child finished at %v, want 5s", childTime)
	}
}

func TestDeterminism(t *testing.T) {
	// The same program produces the identical event trace twice.
	run := func() []time.Duration {
		s := NewSim()
		var trace []time.Duration
		var procs []*Proc
		for i := 0; i < 5; i++ {
			i := i
			procs = append(procs, s.Spawn("w", func(p *Proc) {
				for j := 0; j < 3; j++ {
					p.Sleep(time.Duration(i+1) * time.Second)
					trace = append(trace, p.Now())
				}
			}))
		}
		_ = procs
		s.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestNegativeDelaysClamped(t *testing.T) {
	s := NewSim()
	ran := false
	s.At(-time.Second, func() { ran = true })
	s.Spawn("p", func(p *Proc) { p.Sleep(-5) })
	if end := s.Run(); end != 0 {
		t.Fatalf("negative delays advanced the clock to %v", end)
	}
	if !ran {
		t.Fatal("negative-delay closure never ran")
	}
}

func TestMaxStepsGuard(t *testing.T) {
	s := NewSim()
	s.MaxSteps = 100
	s.Spawn("spinner", func(p *Proc) {
		for {
			p.Sleep(time.Millisecond)
		}
	})
	defer func() {
		if recover() == nil {
			t.Fatal("runaway simulation did not panic")
		}
	}()
	s.Run()
}

func TestStepsCounter(t *testing.T) {
	s := NewSim()
	s.At(time.Second, func() {})
	s.At(2*time.Second, func() {})
	s.Run()
	if s.Steps() != 2 {
		t.Fatalf("Steps = %d, want 2", s.Steps())
	}
}

func TestManyProcessesScale(t *testing.T) {
	// 200 processes, a chain of wakes: P(i) wakes P(i+1).
	s := NewSim()
	const n = 200
	procs := make([]*Proc, n)
	tokens := make([]bool, n)
	var last time.Duration
	for i := n - 1; i >= 0; i-- {
		i := i
		procs[i] = s.Spawn("chain", func(p *Proc) {
			for !tokens[i] {
				p.Park()
			}
			p.Advance(time.Millisecond)
			if i+1 < n {
				tokens[i+1] = true
				s.Wake(procs[i+1])
			} else {
				last = p.Now()
			}
		})
	}
	s.At(0, func() {
		tokens[0] = true
		s.Wake(procs[0])
	})
	s.Run()
	if last != n*time.Millisecond {
		t.Fatalf("chain finished at %v, want %v", last, n*time.Millisecond)
	}
	s.Close()
}

// waitGoroutines polls until the live goroutine count is back to want: a
// released process goroutine exits just after handing control back, so
// the count settles a moment after Run or Close returns.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines alive, want %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRunAndCloseReleaseGoroutines(t *testing.T) {
	// The event loop runs on process goroutines; the one that finds the
	// queue empty — here a finishing worker — hands control back to Run
	// and must still exit, as must the parked server once Close runs.
	before := runtime.NumGoroutine()
	s := NewSim()
	s.Spawn("server", func(p *Proc) {
		for {
			p.Park()
		}
	})
	for i := 1; i <= 3; i++ {
		d := time.Duration(i) * time.Second
		s.Spawn("worker", func(p *Proc) { p.Advance(d) })
	}
	if end := s.Run(); end != 3*time.Second {
		t.Fatalf("end = %v, want 3s", end)
	}
	s.Close()
	waitGoroutines(t, before)
}

func TestMaxStepsOnProcessGoroutine(t *testing.T) {
	// MaxSteps trips inside the loop while a process goroutine holds
	// control; Run must still panic on its caller's goroutine (a panic
	// anywhere else would crash the test binary), and Close must release
	// both spinners, including the one that ran the last dispatch.
	before := runtime.NumGoroutine()
	s := NewSim()
	s.MaxSteps = 50
	for i := 0; i < 2; i++ {
		s.Spawn("spinner", func(p *Proc) {
			for {
				p.Sleep(time.Millisecond)
			}
		})
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("runaway simulation did not panic")
			}
		}()
		s.Run()
	}()
	if s.Steps() != 51 {
		t.Fatalf("Steps = %d, want 51 (the tripping event is counted)", s.Steps())
	}
	if parked := s.Parked(); len(parked) != 2 {
		t.Fatalf("Parked() = %v, want both spinners", parked)
	}
	s.Close()
	waitGoroutines(t, before)
}

func TestRunAgainResumesParkedProcess(t *testing.T) {
	s := NewSim()
	ready := false
	var done time.Duration
	p := s.Spawn("waiter", func(p *Proc) {
		for !ready {
			p.Park()
		}
		done = p.Now()
	})
	s.At(time.Second, func() {})
	if end := s.Run(); end != time.Second {
		t.Fatalf("first Run ended at %v, want 1s", end)
	}
	if parked := s.Parked(); len(parked) != 1 {
		t.Fatalf("Parked() after first Run = %v", parked)
	}
	s.At(2*time.Second, func() {
		ready = true
		s.Wake(p)
	})
	if end := s.Run(); end != 3*time.Second {
		t.Fatalf("second Run ended at %v, want 3s", end)
	}
	if done != 3*time.Second {
		t.Fatalf("waiter resumed at %v, want 3s", done)
	}
	if parked := s.Parked(); len(parked) != 0 {
		t.Fatalf("Parked() after second Run = %v", parked)
	}
	s.Close()
}

func TestWakeMidSleepKeepsOrder(t *testing.T) {
	// Wakes delivered to a sleeping process neither end its Sleep early
	// nor move any later event: an At due at the deadline but scheduled
	// before the sleep still runs first, one scheduled during it after.
	s := NewSim()
	var trace []string
	mark := func(what string, at time.Duration) {
		trace = append(trace, fmt.Sprintf("%s@%v", what, at))
	}
	s.At(10*time.Second, func() { mark("early-at", s.Now()) })
	sleeper := s.Spawn("sleeper", func(p *Proc) {
		p.Sleep(10 * time.Second)
		mark("sleeper", p.Now())
	})
	s.Spawn("noise", func(p *Proc) {
		p.Sleep(3 * time.Second)
		s.Wake(sleeper)
		p.Sleep(2 * time.Second)
		s.Wake(sleeper)
		s.At(5*time.Second, func() { mark("late-at", s.Now()) })
		mark("noise", p.Now())
	})
	if end := s.Run(); end != 10*time.Second {
		t.Fatalf("end = %v, want 10s", end)
	}
	want := []string{"noise@5s", "early-at@10s", "sleeper@10s", "late-at@10s"}
	if fmt.Sprint(trace) != fmt.Sprint(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	// Two starts, two noise sleeps, two wakes, one deadline, two Ats: the
	// dropped wakes are still events.
	if s.Steps() != 9 {
		t.Fatalf("Steps = %d, want 9", s.Steps())
	}
}

func TestCloseBeforeStart(t *testing.T) {
	// A process whose start event never ran is released by Close without
	// running its body.
	before := runtime.NumGoroutine()
	s := NewSim()
	ran := false
	s.Spawn("unstarted", func(p *Proc) {
		ran = true
		p.Park()
	})
	s.Close()
	if ran {
		t.Fatal("Close ran the body of an unstarted process")
	}
	waitGoroutines(t, before)
}
