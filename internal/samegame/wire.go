package samegame

// Wire encoding of SameGame positions for the distributed rank world
// (mpi.NetCluster). Gravity and column collapse destroy move history, so —
// unlike Morpion — a mid-game board cannot be replayed from a move list;
// the encoding ships the board itself, one byte per cell, plus the score
// and move count the board alone cannot recover:
//
//	u8 w | u8 h | u8 colors | uvarint moves | u64 score bits | w*h cell bytes
//
// Decoding validates dimensions and cell values and returns an error on
// malformed bytes, never a corrupted position.

import (
	"encoding/binary"
	"fmt"
	"math"
)

// wireMaxSide caps the board dimensions a decoder accepts; it matches the
// largest boards the service exposes with headroom.
const wireMaxSide = 64

// AppendWire appends the position's wire encoding to buf.
func (s *State) AppendWire(buf []byte) []byte {
	buf = append(buf, byte(s.w), byte(s.h), byte(s.colors))
	buf = binary.AppendUvarint(buf, uint64(s.moves))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.score))
	for _, c := range s.cells {
		buf = append(buf, byte(c))
	}
	return buf
}

// DecodeWire reconstructs a position encoded by AppendWire, consuming all
// of data. Per the clone contract the decoded position starts with an
// empty undo history floored at the shipped position.
func DecodeWire(data []byte) (*State, error) {
	if len(data) < 3 {
		return nil, fmt.Errorf("samegame: wire: truncated header")
	}
	w, h, colors := int(data[0]), int(data[1]), int(data[2])
	if w < 1 || w > wireMaxSide || h < 1 || h > wireMaxSide {
		return nil, fmt.Errorf("samegame: wire: board %dx%d out of range", w, h)
	}
	if colors < 1 || colors > 9 {
		return nil, fmt.Errorf("samegame: wire: %d colours out of range", colors)
	}
	data = data[3:]
	moves, used := binary.Uvarint(data)
	if used <= 0 {
		return nil, fmt.Errorf("samegame: wire: truncated move count")
	}
	data = data[used:]
	if moves > uint64(w*h) {
		return nil, fmt.Errorf("samegame: wire: %d moves on a %d-cell board", moves, w*h)
	}
	if len(data) != 8+w*h {
		return nil, fmt.Errorf("samegame: wire: body %d bytes, want %d", len(data), 8+w*h)
	}
	score := math.Float64frombits(binary.LittleEndian.Uint64(data))
	data = data[8:]
	s := &State{
		w: w, h: h, colors: colors, lay: layoutFor(w, h),
		cells: make([]int8, w*h),
		score: score,
		moves: int(moves),
	}
	for i, b := range data {
		if int(b) > colors {
			return nil, fmt.Errorf("samegame: wire: cell %d has colour %d of %d", i, b, colors)
		}
		s.cells[i] = int8(b)
	}
	s.hash = s.contentHash()
	s.initScratch()
	return s, nil
}
