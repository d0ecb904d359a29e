package samegame

// Golden pins of everything the search can observe of a SameGame position
// (see gametest.GoldenDigest).

import (
	"testing"

	"repro/internal/game"
	"repro/internal/gametest"
)

func wireRoundTrip(s game.State) (game.State, error) {
	return DecodeWire(s.(*State).AppendWire(nil))
}

func TestGoldenOrderAndHashes(t *testing.T) {
	cases := []struct {
		name         string
		w, h, colors int
		want         [3]uint64
	}{
		{"8x8x4", 8, 8, 4, [3]uint64{0xae0a862d72af06bc, 0x76456be36896df2, 0xf5cedc538a994f20}},
		{"15x15x5", 15, 15, 5, [3]uint64{0x9f241a1bfbfe0a, 0x8f8e22ecdc910348, 0xd7ddd4be7e8c14d4}},
		{"12x1x3", 12, 1, 3, [3]uint64{0xd32f3bdec6873298, 0xe58929206c2e76c9, 0x41f525c392193382}},
		{"1x12x3", 1, 12, 3, [3]uint64{0x5e60e3d2ea03c09f, 0xba20b4734b812471, 0xf496db4258d9f569}},
	}
	for _, c := range cases {
		for i, w := range c.want {
			seed := uint64(101 + i)
			// The recycled spare starts with other dimensions.
			if got := gametest.GoldenDigest(t, NewRandom(c.w, c.h, c.colors, seed), NewRandom(3, 3, 2, 1), seed, wireRoundTrip); got != w {
				t.Errorf("%s seed %d: digest %#x, want %#x", c.name, seed, got, w)
			}
		}
	}
}
