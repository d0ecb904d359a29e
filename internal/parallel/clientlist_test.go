package parallel

import (
	"testing"

	"repro/internal/mpi"
)

// TestClientList drives the in-process free list without a cluster: the
// first-in free client is taken first, waiting medians are served
// longest-first under LastMinute and in arrival order under RoundRobin, a
// freed client goes to a waiting median rather than back on the list, and
// putting a client that is already free, or is no client of the list,
// changes nothing.
func TestClientList(t *testing.T) {
	// 1 slot, 3 medians, 3 clients: worker ranks 2..7 are c m c m c m.
	for _, tc := range []struct {
		algo  Algorithm
		order []int // waiting medians served, as indexes into medians
	}{
		{LastMinute, []int{1, 2, 0}},
		{RoundRobin, []int{0, 1, 2}},
	} {
		w := newPoolWorld(PoolConfig{Slots: 1, Medians: 3, Clients: 3, Algo: tc.algo}, 1)
		l := newClientList(w, w.firstWorker(), mpi.Rank(w.size()))
		a, b, c := w.clients[0], w.clients[1], w.clients[2]
		m := w.medians

		// The free list starts in rank order and hands out its head.
		for _, want := range []mpi.Rank{a, b, c} {
			if got, ok := l.take(m[0], 10); !ok || got != want {
				t.Fatalf("%v: take gave (%d, %v), want client %d", tc.algo, got, ok, want)
			}
		}
		// Freed clients queue behind each other: first in, first out.
		for _, cl := range []mpi.Rank{b, a} {
			if median, ok := l.put(cl); ok {
				t.Fatalf("%v: put(%d) went to median %d with none waiting", tc.algo, cl, median)
			}
		}
		if _, ok := l.put(b); ok || len(l.free) != 2 {
			t.Fatalf("%v: putting a free client again changed the list to %v", tc.algo, l.free)
		}
		for _, r := range []mpi.Rank{m[0], 0, mpi.Rank(w.size())} {
			if _, ok := l.put(r); ok || len(l.free) != 2 {
				t.Fatalf("%v: putting rank %d, no client of the list, changed it to %v", tc.algo, r, l.free)
			}
		}
		for _, want := range []mpi.Rank{b, a} {
			if got, ok := l.take(m[1], 10); !ok || got != want {
				t.Fatalf("%v: take gave (%d, %v), want the first freed client %d", tc.algo, got, ok, want)
			}
		}

		// Three medians wait: the one with the most moves played asks first,
		// the one with the fewest second.
		for i, moves := range []int{30, 5, 20} {
			if got, ok := l.take(m[i], moves); ok {
				t.Fatalf("%v: take gave client %d from an empty list", tc.algo, got)
			}
		}
		for k, cl := range []mpi.Rank{c, a, b} {
			median, ok := l.put(cl)
			if want := m[tc.order[k]]; !ok || median != want {
				t.Fatalf("%v: freed client %d went to (%d, %v), want median %d", tc.algo, cl, median, ok, want)
			}
		}
		if len(l.free) != 0 || len(l.waiting) != 0 {
			t.Fatalf("%v: hand-backs left free %v, waiting %v", tc.algo, l.free, l.waiting)
		}
	}
}
