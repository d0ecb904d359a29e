package vtime

import "time"

// Clock is a monotonic time source: Now returns the elapsed duration since
// an arbitrary fixed origin. It is the single clock abstraction shared by
// everything in the repository that meters elapsed time — deadline polling
// (core.Options.Stop), job deadlines, idle accounting — so that a
// virtual-time harness run charges all of them against the same simulated
// clock instead of mixing simulated and wall time. Sim, Proc and the
// cluster transports (mpi.Comm) all satisfy it; Wall adapts the host's
// monotonic clock for real processes.
type Clock interface {
	Now() time.Duration
}

// wallClock reads the host monotonic clock, reported as the duration since
// the clock was created.
type wallClock struct{ origin time.Time }

func (w wallClock) Now() time.Duration { return time.Since(w.origin) }

// Wall returns a Clock backed by the host's monotonic clock. The origin is
// the moment of the call, which keeps readings small and comparable the way
// virtual-time readings are; only differences between readings are
// meaningful, as with any Clock.
func Wall() Clock { return wallClock{origin: time.Now()} }

var (
	_ Clock = (*Sim)(nil)
	_ Clock = (*Proc)(nil)
)
