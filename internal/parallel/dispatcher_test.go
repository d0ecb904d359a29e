package parallel

import (
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/mpi"
)

// TestDispatcherScripts drives the per-run dispatcher loop under each
// policy with scripted medians and clients on a per-run layout of 2
// medians and 3 clients: root 0, dispatcher 1, medians m0, m1, clients
// c0–c2. Every script line sends one message to the dispatcher and names
// the assignment it must cause, if any; an assignment nobody named
// surfaces as a wrong client on a later line or in the final quiet check.
func TestDispatcherScripts(t *testing.T) {
	lay := cluster.Homogeneous(3).Layout(2)
	m0, m1 := lay.Medians[0], lay.Medians[1]
	c0, c1, c2 := lay.Clients[0], lay.Clients[1], lay.Clients[2]
	const none mpi.Rank = -3
	type line struct {
		from    mpi.Rank // mpi.External: injected, as the pool does
		tag     mpi.Tag
		payload any
		median  mpi.Rank // receives an assignment…
		client  mpi.Rank // …of this client
	}
	req := func(from mpi.Rank, moves int, median, client mpi.Rank) line {
		return line{from, tagRequest, moves, median, client}
	}
	free := func(from, median, client mpi.Rank) line { return line{from, tagFree, nil, median, client} }

	for _, tc := range []struct {
		name   string
		pol    dispatchPolicy
		script []line
	}{
		{"blind round-robin cycles whatever the clients say", dispatchPolicy{blind: true}, []line{
			req(m0, 5, m0, c0),
			req(m1, 5, m1, c1),
			free(c0, none, none), // ignored: c2 is next, not c0
			req(m0, 5, m0, c2),
			req(c1, 5, none, none), // forged: clients do not request clients
			req(m0, 5, m0, c0),
			req(m0, 5, m0, c1), // never queues, busy or not
		}},
		{"arrival order", dispatchPolicy{}, []line{
			req(m0, 5, m0, c0), req(m1, 5, m1, c1), req(m0, 5, m0, c2),
			req(m0, 9, none, none), req(m1, 2, none, none), // both queue
			free(c1, m0, c1),
			free(c0, m1, c0),
		}},
		{"longest expected job first", dispatchPolicy{longestFirst: true}, []line{
			req(m0, 5, m0, c0), req(m1, 5, m1, c1), req(m0, 5, m0, c2),
			req(m0, 9, none, none), req(m1, 2, none, none),
			free(c1, m1, c1), // 2 moves played: the longer game ahead
			free(c0, m0, c0),
		}},
		{"forged and duplicate frames", dispatchPolicy{}, []line{
			free(c0, none, none), // already free: a second entry would double-book it
			free(m1, none, none), // not a client
			req(c2, 1, none, none),
			{mpi.External, tagRequest, 5, none, none}, // not a median
			{m0, tagRequest, "garbled", m0, c0},       // still answered: the median is waiting
			req(m0, 5, m0, c1), req(m0, 5, m0, c2),
			req(m1, 5, none, none), // queues: c0 was free once, not twice
			free(c2, m1, c2),
			free(c2, none, none), // free again, nobody waiting
			free(c2, none, none), // duplicate
			req(m0, 5, m0, c2),
			req(m1, 5, none, none),
			free(c1, m1, c1),
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sp := newScripted(t, lay.Size(), map[mpi.Rank]func(mpi.Comm){
				lay.Dispatcher: func(c mpi.Comm) { runDispatcher(c, lay, tc.pol, nil) },
			})
			for i, ln := range tc.script {
				if ln.from == mpi.External {
					sp.cl.Inject(lay.Dispatcher, ln.tag, ln.payload)
				} else {
					sp.send(ln.from, lay.Dispatcher, ln.tag, ln.payload)
				}
				if ln.median == none {
					continue
				}
				if got := sp.expect(ln.median, tagAssign).Payload; got != ln.client {
					t.Fatalf("line %d: median %d was assigned client %v, want %d", i, ln.median, got, ln.client)
				}
			}
			// The last line of every script is an assignment, so the
			// dispatcher has consumed everything before it.
			for r := mpi.Rank(0); int(r) < lay.Size(); r++ {
				if r != lay.Dispatcher {
					sp.quiet(r)
				}
			}
		})
	}
}

// scriptedPool is a wall cluster with a per-run rank layout in which the
// test plays every rank except those given a real body: a scripted rank
// forwards what it receives to its inbox, and the test sends in its name.
type scriptedPool struct {
	t     *testing.T
	cl    *mpi.WallCluster
	comm  []mpi.Comm
	inbox []chan mpi.Msg
}

// newScripted starts a world of size ranks that runs the real bodies
// given and scripts every other rank.
func newScripted(t *testing.T, size int, real map[mpi.Rank]func(mpi.Comm)) *scriptedPool {
	t.Helper()
	sp := &scriptedPool{t: t, cl: mpi.NewWallCluster(size),
		comm: make([]mpi.Comm, size), inbox: make([]chan mpi.Msg, size)}
	var ready sync.WaitGroup
	for r := mpi.Rank(0); int(r) < size; r++ {
		if body, ok := real[r]; ok {
			sp.cl.Start(r, body)
			continue
		}
		// Sized to hold a whole script: a scripted rank never blocks on the test.
		sp.inbox[r] = make(chan mpi.Msg, 64)
		ready.Add(1)
		sp.cl.Start(r, func(c mpi.Comm) {
			sp.comm[c.Rank()] = c
			ready.Done()
			for {
				msg := c.Recv(mpi.AnyRank, mpi.AnyTag)
				if msg.Tag == tagShutdown {
					return
				}
				sp.inbox[c.Rank()] <- msg
			}
		})
	}
	done := make(chan struct{})
	go func() {
		sp.cl.Run()
		close(done)
	}()
	ready.Wait()
	t.Cleanup(func() {
		for r := 0; r < size; r++ {
			sp.cl.Inject(mpi.Rank(r), tagShutdown, nil)
		}
		<-done
	})
	return sp
}

// send sends in the name of a scripted rank (a wall Comm's Send only
// touches the receiver's mailbox, so the test goroutine may call it).
func (sp *scriptedPool) send(from, to mpi.Rank, tag mpi.Tag, payload any) {
	sp.comm[from].Send(to, tag, payload)
}

// expect returns the next message a scripted rank received, which must
// carry tag.
func (sp *scriptedPool) expect(rank mpi.Rank, tag mpi.Tag) mpi.Msg {
	sp.t.Helper()
	select {
	case msg := <-sp.inbox[rank]:
		if msg.Tag != tag {
			sp.t.Fatalf("rank %d received tag %d from %d, want tag %d", rank, msg.Tag, msg.From, tag)
		}
		return msg
	case <-time.After(10 * time.Second):
		sp.t.Fatalf("rank %d: no message with tag %d", rank, tag)
		panic("unreachable")
	}
}

// quiet asserts a scripted rank has nothing waiting once the rank under
// test has provably moved on (the caller sequences that).
func (sp *scriptedPool) quiet(rank mpi.Rank) {
	sp.t.Helper()
	select {
	case msg := <-sp.inbox[rank]:
		sp.t.Fatalf("rank %d received unexpected tag %d from %d: %+v", rank, msg.Tag, msg.From, msg.Payload)
	default:
	}
}
