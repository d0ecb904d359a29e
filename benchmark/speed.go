package main

import "time"

// The sandbox this benchmark must repeat on runs in one of two states for
// minutes at a time. In the slow one every core-bound loop tried — a
// dependent multiply chain, four independent chains, a branchy walk over a
// 128 KiB table, the searches themselves — takes 1.29 times as long, with
// process CPU time stretched alike: the signature of a clock that lost its
// turbo to the neighbours. No statistic over one run's rounds can remove a
// state that outlasts the run, and ten runs that straddle a change of
// state spread by 18%. So every round is bracketed by a short calibration
// loop, and every time is reported at reference speed: the measured time
// multiplied by referenceKernel / the loop's measured time. That brings
// the 18% down to between 3% and 4%.
//
// The loop is one dependent chain of multiplies, shifts and adds. Its
// duration is set by instruction latency alone, so neither the compiler's
// choices (an earlier loop with a data-dependent branch ran 2.4 times
// slower when the compiler stopped turning the branch into a conditional
// move) nor where the linker happens to place it can change what it
// costs, and it shares no code with the program under test. What it does
// not follow is a slowdown that is not the clock's: contention for memory
// or for the other hardware thread reaches the searches and not the chain.

// referenceKernel is the calibration loop's duration on this class of
// machine when it is undisturbed. Only the run-to-run ratio matters to a
// comparison; the constant keeps reference-speed times readable as the
// times a quiet machine would show.
const referenceKernel = 1920 * time.Microsecond

var speedSink uint64

// calibrationKernel is the fixed work: a million steps of one dependency
// chain, about eight cycles each.
//
//go:noinline
func calibrationKernel() uint64 {
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 1_000_000; i++ {
		x ^= x >> 29
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 32
		x += uint64(i)
	}
	return x
}

// machineSpeed returns how fast the machine is right now relative to the
// reference: 1 when undisturbed, about 0.78 in the slow state. It takes
// the quickest of three passes, which sheds a stray preemption but not a
// state that lasts.
func machineSpeed() float64 {
	best := time.Duration(0)
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		speedSink += calibrationKernel()
		if d := time.Since(t0); best == 0 || d < best {
			best = d
		}
	}
	return referenceKernel.Seconds() / best.Seconds()
}
