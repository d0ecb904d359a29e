// Package mpi provides the message-passing substrate the parallel search is
// written against, standing in for the Open MPI layer of the paper.
//
// The paper's processes communicate with MPI point-to-point operations over
// MPI_COMM_WORLD on a Gigabit cluster. Here the same primitives — blocking
// Send/Recv with tags, wildcard receive, a world of numbered ranks — are an
// interface with three implementations:
//
//   - VirtualCluster: processes run under internal/vtime's deterministic
//     discrete-event scheduler. CPU work is charged in metered work units
//     scaled by per-rank speed (modelling the paper's heterogeneous
//     1.86/2.33 GHz nodes) and messages cost latency + size/bandwidth
//     (modelling the Gigabit interconnect). This transport regenerates the
//     paper's timing tables on any simulated cluster size.
//
//   - WallCluster: processes are plain goroutines communicating through
//     mutex-guarded mailboxes in real time, for native runs on real cores.
//
//   - NetCluster / NetWorker: processes span OS processes over TCP — a
//     coordinator hosting the control ranks plus dialed-in worker
//     processes each hosting a rank range — with every message encoded as
//     a typed, versioned, length-prefixed frame (internal/mpi/codec). The
//     closest analogue of the paper's actual deployment; see net.go.
//     Unlike MPI, a worker rank reaches only the coordinator's ranks and
//     its own process's ranks: the coordinator drops a frame one worker
//     addresses to another worker's rank.
//
// The parallel algorithms in internal/parallel are written once against
// Comm and run unchanged on any transport.
package mpi

import (
	"time"

	"repro/internal/game"
)

// Rank identifies a process, 0-based, like an MPI rank.
type Rank int

// AnyRank is the wildcard source for Recv, like MPI_ANY_SOURCE.
const AnyRank Rank = -1

// External is the From rank of messages injected into a cluster from
// outside the rank world (WallCluster.Inject). A long-lived service feeds
// job submissions and cancellations to its ranks this way; no real rank
// ever has this value.
const External Rank = -2

// Tag labels a message kind, like an MPI tag.
type Tag int

// AnyTag is the wildcard tag for Recv, like MPI_ANY_TAG.
const AnyTag Tag = -1

// Msg is a received message.
type Msg struct {
	From    Rank
	Tag     Tag
	Payload any
}

// Comm is one process's endpoint into the world, handed to the process
// body at start. Methods must only be called from that process.
type Comm interface {
	// Rank returns this process's rank.
	Rank() Rank
	// Size returns the number of ranks in the world.
	Size() int
	// Send delivers payload to rank `to` with the given tag. It does not
	// block on the receiver (buffered, like MPI_Isend + eager protocol;
	// the paper's messages are small positions and scores).
	Send(to Rank, tag Tag, payload any)
	// Recv blocks until a message matching (from, tag) is available and
	// returns the earliest such message. AnyRank and AnyTag are wildcards.
	Recv(from Rank, tag Tag) Msg
	// Work charges n work units of CPU time to this process. On the
	// virtual transport this advances the process's clock by
	// n × unit-cost ÷ rank-speed; on the wall transport the work already
	// consumed real CPU and this is a no-op (unless throttled).
	Work(n int64)
	// Now returns the transport's notion of elapsed time.
	Now() time.Duration
}

// Cluster builds a world of processes and runs them to completion.
type Cluster interface {
	// Size returns the world size.
	Size() int
	// Start registers the body of a rank. Every rank must be started
	// exactly once before Run.
	Start(rank Rank, body func(Comm))
	// Run executes all processes until each body returns, and reports the
	// elapsed (virtual or wall) time.
	Run() time.Duration
}

// matches reports whether a message satisfies a (from, tag) pattern.
func (m Msg) matches(from Rank, tag Tag) bool {
	return (from == AnyRank || m.From == from) && (tag == AnyTag || m.Tag == tag)
}

// PayloadSize estimates the wire size of a payload in bytes for the
// virtual network model. Positions report their own encoded size via
// game.Sizer; scalar control messages cost a small constant; unknown
// payloads a conservative default.
func PayloadSize(v any) int {
	const header = 16 // envelope: from, tag, length
	switch x := v.(type) {
	case nil:
		return header
	case game.Sizer:
		return header + x.EncodedSize()
	case int, int32, int64, uint64, float64, Rank, Tag, bool:
		return header + 8
	case []float64:
		return header + 8*len(x)
	case []game.Move:
		return header + 8*len(x)
	case string:
		return header + len(x)
	default:
		return header + 64
	}
}
