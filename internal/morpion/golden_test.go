package morpion

// Golden pins of everything the search can observe of a Morpion position
// (see gametest.GoldenDigest): Morpion's wire form also replays moves
// through live Play, so list order matters twice over.

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
		v    Variant
		wire func(game.State) (game.State, error) // only the four standard variants have a wire code
		want [3]uint64
	}{
		{Var5D, wireRoundTrip, [3]uint64{0x6e14d0e7f21fb98a, 0x8a7a8e1b5e9a1d87, 0x2116907e0496bece}},
		{Var5T, wireRoundTrip, [3]uint64{0xe9f00b19976a51f3, 0xeaa1c5cdc2c11695, 0xa05514c89c8b6319}},
		{Var4D, wireRoundTrip, [3]uint64{0xfb77187f202c647f, 0x454a36c93ddba7, 0x87b4712d63deb0ad}},
		{Var4T, wireRoundTrip, [3]uint64{0xd3ff8e35dd52e3d6, 0x95bc2570096cd2ef, 0x669c193b0e04d5da}},
		// Non-standard rule sets on the smallest legal boards: other line
		// lengths, and games that can reach the border.
		{Variant{Name: "5D/30", LineLen: 5, Disjoint: true, BoardSize: 30}, nil, [3]uint64{0xbde34280e4e0179f, 0x80781f79b4689dcf, 0xcb102a351386ae4b}},
		{Variant{Name: "4T/23", LineLen: 4, BoardSize: 23}, nil, [3]uint64{0xee46547697b558fd, 0xd6c8940e9872f440, 0xf983ed627d9b413d}},
		{Variant{Name: "3T/19", LineLen: 3, BoardSize: 19}, nil, [3]uint64{0xe2ede27d6a89d33d, 0x4afba9f01f8e0093, 0x89c0ca2f67553565}},
		{Variant{Name: "3D/19", LineLen: 3, Disjoint: true, BoardSize: 19}, nil, [3]uint64{0x2bed90bd36aaaca0, 0x63b2c8358e162b7f, 0x1ec5784df0642704}},
	}
	for _, c := range cases {
		for i, w := range c.want {
			if got := gametest.GoldenDigest(t, New(c.v), New(Var4T), uint64(101+i), c.wire); got != w {
				t.Errorf("%s seed %d: digest %#x, want %#x", c.v.Name, 101+i, got, w)
			}
		}
	}
}
