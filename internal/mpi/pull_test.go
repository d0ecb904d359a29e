package mpi

import (
	"testing"
	"time"
)

// fakeComm records sends for PullSource unit tests. The Msg.From field is
// repurposed to hold the destination rank of each recorded send.
type fakeComm struct {
	sends []Msg
}

func (f *fakeComm) Rank() Rank { return 0 }
func (f *fakeComm) Size() int  { return 8 }
func (f *fakeComm) Send(to Rank, tag Tag, payload any) {
	f.sends = append(f.sends, Msg{From: to, Tag: tag, Payload: payload})
}
func (f *fakeComm) Recv(from Rank, tag Tag) Msg { panic("not used") }
func (f *fakeComm) Work(n int64)                {}
func (f *fakeComm) Now() time.Duration          { return 0 }

var _ Comm = (*fakeComm)(nil)

func TestPullSourceMatchesFIFO(t *testing.T) {
	// Items offered before any request queue up; requests then drain them
	// in offer order. Requests arriving first queue as waiting workers and
	// are granted in request order.
	f := &fakeComm{}
	s := NewPullSource(f, Tag(7))

	s.Offer("x")
	s.Offer("y")
	if got := s.Ready(); got != 2 {
		t.Fatalf("ready %d, want 2", got)
	}
	s.Request(3)
	s.Request(4)
	s.Request(5) // no item yet: queues
	if len(f.sends) != 2 {
		t.Fatalf("%d grants sent, want 2", len(f.sends))
	}
	if f.sends[0].Payload != "x" || f.sends[1].Payload != "y" {
		t.Fatalf("grants out of order: %+v", f.sends)
	}
	s.Offer("z") // granted straight to the one worker left waiting
	if len(f.sends) != 3 || f.sends[2].From != 5 || f.sends[2].Payload != "z" {
		t.Fatalf("third grant wrong: %+v", f.sends)
	}
	if s.Outstanding() != 3 {
		t.Fatalf("outstanding %d, want 3", s.Outstanding())
	}
	s.Done()
	s.Done()
	s.Done()
	if s.Outstanding() != 0 {
		t.Fatalf("outstanding %d after 3 Done, want 0", s.Outstanding())
	}
}

func TestPullSourceAbandonAndDepth(t *testing.T) {
	// The mid-run stop: every queued item is dropped, grants already out
	// are unaffected.
	f := &fakeComm{}
	s := NewPullSource(f, Tag(7))
	for i := 0; i < 4; i++ {
		s.Offer(i)
	}
	s.Request(2) // grants item 0
	if n := s.AbandonFunc(func(any) bool { return true }); n != 3 {
		t.Fatalf("abandoned %d, want 3", n)
	}
	if s.Ready() != 0 {
		t.Fatal("ready items survived the abandon")
	}
	if s.Outstanding() != 1 {
		t.Fatalf("outstanding %d after abandon, want 1 (grants unaffected)", s.Outstanding())
	}
	max, mean := s.DepthStats()
	if max != 4 || mean <= 0 {
		t.Fatalf("depth stats max=%d mean=%v, want max 4 and positive mean", max, mean)
	}
}

func TestPullSourceAbandonFunc(t *testing.T) {
	f := &fakeComm{}
	s := NewPullSource(f, Tag(7))
	for i := 0; i < 6; i++ {
		s.Offer(i)
	}
	// Selective purge: drop the odd items, keep the evens in FIFO order —
	// the cancel-one-speculative-branch shape.
	if n := s.AbandonFunc(func(item any) bool { return item.(int)%2 == 1 }); n != 3 {
		t.Fatalf("abandoned %d, want 3", n)
	}
	if s.Ready() != 3 {
		t.Fatalf("ready %d after selective abandon, want 3", s.Ready())
	}
	for want := 0; want <= 4; want += 2 {
		s.Request(Rank(want + 1))
		if got := f.sends[len(f.sends)-1].Payload; got != want {
			t.Fatalf("grant order broken: got %v, want %v", got, want)
		}
	}
	if s.Outstanding() != 3 {
		t.Fatalf("outstanding %d, want 3", s.Outstanding())
	}
	// Dropping nothing and dropping everything are both legal.
	s.Offer(7)
	if n := s.AbandonFunc(func(any) bool { return false }); n != 0 {
		t.Fatalf("no-op abandon dropped %d", n)
	}
	if n := s.AbandonFunc(func(any) bool { return true }); n != 1 {
		t.Fatalf("drop-all abandon dropped %d, want 1", n)
	}
	if s.Ready() != 0 {
		t.Fatalf("ready %d after drop-all, want 0", s.Ready())
	}
}

func TestPullSourceDoneWithoutGrantPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Done without grant did not panic")
		}
	}()
	NewPullSource(&fakeComm{}, Tag(1)).Done()
}

func TestPullSourceGrantedCallback(t *testing.T) {
	f := &fakeComm{}
	s := NewPullSource(f, Tag(9))
	var to []Rank
	s.Granted = func(r Rank) { to = append(to, r) }
	s.Request(6)
	s.Offer("w")
	if len(to) != 1 || to[0] != 6 {
		t.Fatalf("callback ranks %v, want [6]", to)
	}
}
