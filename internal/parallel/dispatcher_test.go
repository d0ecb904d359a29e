package parallel

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/mpi"
)

// TestDispatcherScripts drives the one dispatcher loop under each policy
// with scripted medians and clients: 1 slot × 2 medians × 3 clients, so
// scheduler 1, dispatcher 2, then medians m0, m1 and clients c0–c2 in
// newPoolWorld's interleaved order (c0 c1 m0 c2 m1). Every script line
// sends one message to the dispatcher and names the assignment it must
// cause, if any; an assignment nobody named surfaces as a wrong client on
// a later line or in the final quiet check.
func TestDispatcherScripts(t *testing.T) {
	w := newPoolWorld(PoolConfig{Slots: 1, Medians: 2, Clients: 3})
	m0, m1 := w.medians[0], w.medians[1]
	c0, c1, c2 := w.clients[0], w.clients[1], w.clients[2]
	const none mpi.Rank = -3
	// near splits the worker ranks the way a two-process net pool does:
	// c0, c1 and m0 share one process, c2 and m1 the other.
	second := map[mpi.Rank]bool{c2: true, m1: true}
	near := func(a, b mpi.Rank) bool { return second[a] == second[b] }
	span := func(r mpi.Rank) svcRanksLost { return svcRanksLost{Lo: r, Hi: r + 1} }
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
	notice := func(tag mpi.Tag, r, median, client mpi.Rank) line {
		return line{mpi.External, tag, span(r), median, client}
	}

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
			{m0, tagRanksLost, span(c0), none, none},           // only the pool declares losses…
			{mpi.External, tagRanksDead, span(c0), none, none}, // …and only to a fault-aware dispatcher
			{mpi.External, tagRequest, 5, none, none},          // not a median
			{m0, tagRequest, "garbled", m0, c0},                // still answered: the median is waiting
			req(m0, 5, m0, c1), req(m0, 5, m0, c2),
			req(m1, 5, none, none), // queues: c0 was free once, not twice
			free(c2, m1, c2),
			free(c2, none, none), // free again, nobody waiting
			free(c2, none, none), // duplicate
			req(m0, 5, m0, c2),
			req(m1, 5, none, none),
			free(c1, m1, c1),
		}},
		{"near: a median gets its own process's client first", dispatchPolicy{near: near}, []line{
			req(m1, 5, m1, c2), // c0 heads the free list, c2 is m1's own
			req(m0, 5, m0, c0),
			req(m0, 5, m0, c1),
			free(c2, none, none),
			free(c0, none, none), // free list c2, c0: m0 skips c2 for c0
			req(m0, 5, m0, c0),
		}},
		{"near: falls back to the first free client", dispatchPolicy{near: near}, []line{
			req(m1, 5, m1, c2),
			req(m1, 5, m1, c0), // none of m1's own is free
			req(m0, 5, m0, c1),
		}},
		{"near: longest expected job first still picks the request", dispatchPolicy{longestFirst: true, near: near}, []line{
			req(m0, 5, m0, c0), req(m0, 5, m0, c1), req(m1, 5, m1, c2),
			req(m1, 9, none, none), req(m0, 2, none, none),
			free(c2, m0, c2), // m1's own client, but m0's game is longer
			free(c0, m1, c0),
		}},
		{"near: blind round-robin ignores it", dispatchPolicy{blind: true, near: near}, []line{
			req(m1, 5, m1, c0),
			req(m1, 5, m1, c1),
			req(m0, 5, m0, c2),
			req(m1, 5, m1, c0),
		}},
		{"worker loss, abandonment and revival", dispatchPolicy{faultAware: true}, []line{
			req(m0, 5, m0, c0), req(m1, 5, m1, c1), req(m0, 5, m0, c2),
			req(m1, 1, none, none), req(m0, 2, none, none),
			// m1 died: its queued request goes, c1 (stranded on it) serves m0.
			notice(tagRanksLost, m1, m0, c1),
			// c0 died and its replacement boots idle: re-freed unasked.
			notice(tagRanksLost, c0, none, none),
			req(m1, 5, m1, c0),
			// c2 abandoned: it leaves the rotation, notices and all.
			notice(tagRanksDead, c2, none, none),
			free(c2, none, none),
			req(m0, 5, none, none), // queues — c2 was retired, not re-freed
			free(c1, m0, c1),
			// m0 abandoned: c1, stranded on it, is freed; c2 stays retired.
			notice(tagRanksDead, m0, none, none),
			req(m1, 5, m1, c1),
			// c2's worker came back after all: it boots idle and is re-freed
			// unasked, so its own notice is a duplicate.
			notice(tagRanksRevived, c2, none, none),
			free(c2, none, none),
			req(m1, 5, m1, c2),
			req(m1, 5, none, none),
			free(c0, m1, c0),
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sp := newScriptedPool(t, PoolConfig{Slots: 1, Medians: 2, Clients: 3}, map[mpi.Rank]func(mpi.Comm, *poolWorld){
				2: func(c mpi.Comm, w *poolWorld) {
					runDispatcher(c, cluster.Layout{Medians: w.medians, Clients: w.clients}, tc.pol, nil)
				},
			})
			for i, ln := range tc.script {
				if ln.from == mpi.External {
					sp.cl.Inject(sp.w.disp, ln.tag, ln.payload)
				} else {
					sp.send(ln.from, sp.w.disp, ln.tag, ln.payload)
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
			for r := mpi.Rank(0); int(r) < sp.w.size(); r++ {
				if r != sp.w.disp {
					sp.quiet(r)
				}
			}
		})
	}
}
