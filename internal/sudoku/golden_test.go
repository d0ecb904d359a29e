package sudoku

// Golden pins of everything the search can observe of a Sudoku position
// (see gametest.GoldenDigest).

import (
	"testing"

	"repro/internal/game"
	"repro/internal/gametest"
)

func wireRoundTrip(s game.State) (game.State, error) {
	return DecodeWire(s.(*State).AppendWire(nil))
}

const goldenPuzzle = `
53..7....
6..195...
.98....6.
8...6...3
4..8.3..1
7...2...6
.6....28.
...419..5
....8..79`

func TestGoldenOrderAndHashes(t *testing.T) {
	givens := func() *State {
		s, err := ParseGivens(3, goldenPuzzle)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cases := []struct {
		name string
		root func() *State
		want [3]uint64
	}{
		{"box2", func() *State { return New(2) }, [3]uint64{0xf283df97acaa1f12, 0x814082aa6bf0f2b1, 0xdf8f7032fe9839e5}},
		{"box3", func() *State { return New(3) }, [3]uint64{0xb594afc4c19558f5, 0xc4d6a5327142fec3, 0xbfb0646a3dc4d4c8}},
		{"box4", func() *State { return New(4) }, [3]uint64{0x1fee234d0f10b51, 0x7c8589bb640ed3fc, 0x1fe7b66027b0dfdb}},
		{"box5", func() *State { return New(5) }, [3]uint64{0x44c4616db87fd8a5, 0x9dbb814e96085e40, 0x96ece87d0864fe9a}},
		{"givens3", givens, [3]uint64{0x1dd0c4bf32c06db4, 0x47dc5c1e05c6457a, 0x72a793614310a209}},
	}
	for _, c := range cases {
		for i, w := range c.want {
			// The recycled spare starts with another box side.
			s := c.root()
			if got := gametest.GoldenDigest(t, s, New(2+(s.box-1)%4), uint64(101+i), wireRoundTrip); got != w {
				t.Errorf("%s seed %d: digest %#x, want %#x", c.name, 101+i, got, w)
			}
		}
	}
}
