package parallel

import (
	"testing"

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
