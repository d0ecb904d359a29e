// Command pnmcs-worker hosts median ranks of a distributed pnmcsd, with
// its share of the clients as helper goroutines: the worker-node binary
// of the paper's MPI deployment, one process per machine (or per core
// group).
//
// Start a coordinator that expects two workers, then dial in:
//
//	pnmcsd -addr :8723 -workers 2 -worker-listen :8724
//	pnmcs-worker -connect host:8724
//	pnmcs-worker -connect host:8724
//
// The handshake assigns this process a contiguous rank range and carries
// the pool configuration, from which the worker derives the same world
// layout the coordinator built; no further configuration is needed. The
// process serves rollouts until the coordinator drains and shuts the rank
// world down, then prints its service statistics and exits.
//
// -retry keeps dialing a not-yet-listening coordinator (connection
// refused) for the given budget, so workers and coordinator can be
// started in any order.
//
// -silence arms the worker-side liveness monitor: a coordinator stream
// that carries nothing (no frames, no pings) for the budget is declared
// dead instead of hanging the process forever on a blackholed link. When
// the link dies — by silence or by a read error — the worker redials the
// coordinator with jittered exponential backoff, up to -redials times,
// reviving its old slot (the coordinator queues the slot's frames while
// the worker is away). An orderly shutdown broadcast still exits cleanly.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/mpi"
	"repro/internal/mpi/codec"
	"repro/internal/parallel"
	"repro/internal/rng"
)

// workerOpts collects everything serveLoop needs, so tests can drive the
// full connect/serve/redial cycle in-process.
type workerOpts struct {
	connect string
	token   string
	retry   time.Duration // per-connection dial budget
	silence time.Duration // worker-side liveness budget; 0 disables
	redials int           // automatic redials after a lost coordinator link
	backoff time.Duration // base redial backoff, doubled each attempt with jitter
	// jitterSeed seeds the process-private backoff jitter source. Zero
	// seeds from the clock — a fleet of workers must not jitter in
	// lockstep — and tests pin it for a reproducible schedule. Mirrors
	// service.Config.RetrySeed; like there, results never depend on it.
	jitterSeed uint64
	logf       func(format string, args ...any)
}

// dialRetry dials the coordinator, retrying transient refusals for the
// configured budget. A version or token mismatch is permanent: the same
// coordinator will refuse every retry, so fail fast instead of hammering
// it. A slot rejection stays retryable — a slot freed by another worker's
// failed handshake, or by a crashed worker whose place this process is
// taking (rolling replacement), becomes claimable again moments later.
func dialRetry(o workerOpts) (*mpi.NetWorker, error) {
	deadline := time.Now().Add(o.retry)
	for {
		w, err := mpi.DialWorker(o.connect, o.token)
		if err == nil {
			return w, nil
		}
		if errors.Is(err, codec.ErrVersion) || errors.Is(err, mpi.ErrBadToken) {
			return nil, fmt.Errorf("dial %s: %w", o.connect, err)
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("dial %s: %w (retry budget %v exhausted)", o.connect, err, o.retry)
		}
		o.logf("dial %s: %v; retrying", o.connect, err)
		time.Sleep(250 * time.Millisecond)
	}
}

// redialDelay is the jittered exponential backoff before redial attempt
// (1-based): base doubled per attempt, capped at 30s, then halved plus a
// uniform random half so a fleet of workers losing the same coordinator
// does not stampede it in lockstep when it comes back. The jitter draws
// from the worker's private source, not the global math/rand: nothing
// else can perturb (or be perturbed by) the redial schedule, and a
// pinned workerOpts.jitterSeed reproduces it exactly.
func redialDelay(jitter *rng.Rand, base time.Duration, attempt int) time.Duration {
	if base <= 0 {
		base = 250 * time.Millisecond
	}
	shift := attempt - 1
	if shift > 10 {
		shift = 10
	}
	d := base << shift
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	half := d / 2
	return half + time.Duration(jitter.Uint64n(uint64(half)+1))
}

// serveLoop dials the coordinator and serves pool ranks until an orderly
// shutdown. When the coordinator link dies instead — a read error, or the
// -silence monitor on a blackholed stream — it redials with jittered
// exponential backoff, up to o.redials times across the process lifetime:
// the worker-side half of the pool's rolling-replacement story, reclaiming
// (or reviving) the slot whose frames the coordinator held in the
// meantime.
func serveLoop(o workerOpts) error {
	seed := o.jitterSeed
	if seed == 0 {
		seed = uint64(time.Now().UnixNano())
	}
	jitter := rng.New(seed)
	for attempt := 0; ; attempt++ {
		w, err := dialRetry(o)
		if err != nil {
			return err
		}
		if o.silence > 0 {
			w.SetSilenceTimeout(o.silence)
		}
		lo, hi := w.RankRange()
		o.logf("connected to %s: ranks [%d, %d) of a %d-rank world", o.connect, lo, hi, w.Size())

		stats, err := parallel.ServeWorker(w)
		if err != nil {
			return err
		}
		o.logf("drained: %d medians, %d clients, idle %v", stats.Medians, stats.Clients, stats.Idle.Round(time.Millisecond))
		o.logf("transport: %d frames / %d bytes in, %d frames / %d bytes out, codec %v encode / %v decode",
			stats.Net.FramesRecv, stats.Net.BytesRecv, stats.Net.FramesSent, stats.Net.BytesSent,
			time.Duration(stats.Net.EncodeNs).Round(time.Microsecond),
			time.Duration(stats.Net.DecodeNs).Round(time.Microsecond))
		if !stats.Lost {
			return nil // orderly shutdown broadcast
		}
		if attempt >= o.redials {
			return fmt.Errorf("coordinator link lost; redial budget (%d) exhausted", o.redials)
		}
		d := redialDelay(jitter, o.backoff, attempt+1)
		o.logf("coordinator link lost; redialing in %v (attempt %d of %d)", d.Round(time.Millisecond), attempt+1, o.redials)
		time.Sleep(d)
	}
}

func main() {
	connect := flag.String("connect", "127.0.0.1:8724", "coordinator worker-listen address")
	retry := flag.Duration("retry", 30*time.Second, "dial budget: keep retrying the coordinator this long")
	token := flag.String("worker-token", "", "shared secret presented at handshake (must match the coordinator's -worker-token)")
	silence := flag.Duration("silence", 30*time.Second, "declare the coordinator lost after this much stream silence (0 disables; keep well above the coordinator's ping interval, default 2s)")
	redials := flag.Int("redials", 5, "redial the coordinator this many times after a lost link before giving up (0 disables)")
	backoff := flag.Duration("redial-backoff", 250*time.Millisecond, "base redial backoff, doubled each attempt with jitter")
	flag.Parse()

	if err := serveLoop(workerOpts{
		connect: *connect,
		token:   *token,
		retry:   *retry,
		silence: *silence,
		redials: *redials,
		backoff: *backoff,
		logf:    log.Printf,
	}); err != nil {
		log.Fatal(err)
	}
}
