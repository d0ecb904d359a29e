package mpi

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/vtime"
)

// NetworkModel describes the simulated interconnect. The zero value is not
// useful; start from DefaultNetwork.
type NetworkModel struct {
	// Latency is the fixed per-message delivery delay.
	Latency time.Duration
	// Bandwidth is the link throughput in bytes per second, applied to the
	// estimated payload size.
	Bandwidth float64
}

// DefaultNetwork models the paper's Gigabit Ethernet with MPI eager-path
// latency: ~100µs per message plus 125 MB/s of throughput.
func DefaultNetwork() NetworkModel {
	return NetworkModel{Latency: 100 * time.Microsecond, Bandwidth: 125e6}
}

// delay returns the delivery delay for a payload of the given size.
func (n NetworkModel) delay(bytes int) time.Duration {
	d := n.Latency
	if n.Bandwidth > 0 {
		d += time.Duration(float64(bytes) / n.Bandwidth * float64(time.Second))
	}
	return d
}

// VirtualConfig configures a virtual cluster.
type VirtualConfig struct {
	// Speeds holds one relative CPU speed per rank (1.0 = the reference
	// 1.86 GHz node of the paper). Its length is the world size.
	Speeds []float64
	// UnitCost is the virtual CPU time one work unit costs on a speed-1.0
	// node. One work unit is one simulated game move (see core.Meter).
	UnitCost time.Duration
	// Network is the interconnect model.
	Network NetworkModel
	// MaxSteps optionally bounds the number of simulator events as a
	// runaway guard; 0 means unbounded.
	MaxSteps uint64
}

// DefaultUnitCost approximates the cost of one playout step on the paper's
// reference 1.86 GHz node. Absolute table values scale linearly with this
// constant; speedups do not depend on it.
const DefaultUnitCost = 5 * time.Microsecond

// VirtualCluster runs processes under a deterministic discrete-event
// scheduler with per-rank CPU speeds and a network model.
type VirtualCluster struct {
	sim   *vtime.Sim
	cfg   VirtualConfig
	ranks []*virtualComm

	// Messages in flight: Send parks each in a slot and schedules the
	// stored arrive call on the slot's index, so a delivery allocates
	// neither an event nor a closure. Vacated slots are reused.
	inflight []delivery
	free     []int
	arrive   func(int)
}

// delivery is one message in flight to dst.
type delivery struct {
	dst *virtualComm
	msg Msg
}

// NewVirtualCluster builds a world with one rank per entry of cfg.Speeds.
func NewVirtualCluster(cfg VirtualConfig) *VirtualCluster {
	if len(cfg.Speeds) == 0 {
		panic("mpi: virtual cluster needs at least one rank")
	}
	for r, s := range cfg.Speeds {
		if s <= 0 {
			panic(fmt.Sprintf("mpi: rank %d has non-positive speed %v", r, s))
		}
	}
	if cfg.UnitCost <= 0 {
		cfg.UnitCost = DefaultUnitCost
	}
	sim := vtime.NewSim()
	sim.MaxSteps = cfg.MaxSteps
	c := &VirtualCluster{sim: sim, cfg: cfg}
	c.arrive = c.deliver
	c.ranks = make([]*virtualComm, len(cfg.Speeds))
	for r := range cfg.Speeds {
		c.ranks[r] = &virtualComm{cluster: c, rank: Rank(r)}
	}
	return c
}

// Size implements Cluster.
func (c *VirtualCluster) Size() int { return len(c.ranks) }

// Start implements Cluster.
func (c *VirtualCluster) Start(rank Rank, body func(Comm)) {
	vc := c.ranks[rank]
	if vc.started {
		panic(fmt.Sprintf("mpi: rank %d started twice", rank))
	}
	vc.started = true
	vc.proc = c.sim.Spawn(fmt.Sprintf("rank%d", rank), func(p *vtime.Proc) {
		body(vc)
	})
}

// Run implements Cluster: it executes the simulation until every event has
// been processed and returns the virtual makespan. Processes still blocked
// in Recv when the system quiesces are terminated (the protocol should
// shut them down explicitly; termination here is a safety net mirroring
// mpirun tearing down stragglers).
func (c *VirtualCluster) Run() time.Duration {
	for _, vc := range c.ranks {
		if !vc.started {
			panic(fmt.Sprintf("mpi: rank %d never started", vc.rank))
		}
	}
	end := c.sim.Run()
	c.sim.Close()
	return end
}

// Parked lists the ranks still blocked after Run, for protocol debugging.
func (c *VirtualCluster) Parked() []string { return c.sim.Parked() }

// virtualComm is the per-rank endpoint of a VirtualCluster.
type virtualComm struct {
	cluster *VirtualCluster
	rank    Rank
	proc    *vtime.Proc
	started bool
	mailbox []Msg
}

func (v *virtualComm) Rank() Rank { return v.rank }
func (v *virtualComm) Size() int  { return v.cluster.Size() }

// Send implements Comm: the message arrives after the network delay for
// its estimated size. Delivery is an event-loop call, so ordering between
// concurrent senders is deterministic (event sequence order).
func (v *virtualComm) Send(to Rank, tag Tag, payload any) {
	c := v.cluster
	d := delivery{dst: c.ranks[to], msg: Msg{From: v.rank, Tag: tag, Payload: payload}}
	var slot int
	if n := len(c.free); n > 0 {
		slot = c.free[n-1]
		c.free = c.free[:n-1]
		c.inflight[slot] = d
	} else {
		slot = len(c.inflight)
		c.inflight = append(c.inflight, d)
	}
	c.sim.AtCall(c.cfg.Network.delay(PayloadSize(payload)), c.arrive, slot)
}

// deliver appends the message in slot to its receiver's mailbox and frees
// the slot.
func (c *VirtualCluster) deliver(slot int) {
	d := c.inflight[slot]
	c.inflight[slot] = delivery{}
	c.free = append(c.free, slot)
	d.dst.mailbox = append(d.dst.mailbox, d.msg)
	// Wake the receiver unconditionally; a spurious wake of a rank not
	// blocked in Recv is dropped by the event loop.
	if d.dst.proc != nil {
		c.sim.Wake(d.dst.proc)
	}
}

// Recv implements Comm: it parks until a matching message is in the
// mailbox and removes the earliest match.
func (v *virtualComm) Recv(from Rank, tag Tag) Msg {
	for {
		for i, m := range v.mailbox {
			if m.matches(from, tag) {
				// Delete zeroes the vacated tail, so it pins no payload.
				v.mailbox = slices.Delete(v.mailbox, i, i+1)
				return m
			}
		}
		v.proc.Park()
	}
}

// Work implements Comm: n units cost n × UnitCost ÷ speed of virtual time.
func (v *virtualComm) Work(n int64) {
	if n <= 0 {
		return
	}
	cost := time.Duration(float64(n) * float64(v.cluster.cfg.UnitCost) / v.cluster.cfg.Speeds[v.rank])
	v.proc.Advance(cost)
}

// Now implements Comm.
func (v *virtualComm) Now() time.Duration { return v.cluster.sim.Now() }

var _ Comm = (*virtualComm)(nil)
var _ Cluster = (*VirtualCluster)(nil)
