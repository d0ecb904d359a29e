package sudoku

// Wire encoding of Sudoku positions for the distributed rank world
// (mpi.NetCluster). The constraint bitmasks are derived state, so only the
// grid itself travels, one byte per cell, plus the counters the grid alone
// cannot recover (which filled cells are givens, where the next-empty
// cursor stands):
//
//	u8 box | uvarint filled | uvarint givens | uvarint next | side² cell bytes
//
// Decoding rebuilds the row/column/box masks cell by cell, rejecting
// duplicate values as it goes, and validates the cursor invariant (every
// cell below `next` is filled), so malformed bytes return an error, never
// an inconsistent position.

import (
	"encoding/binary"
	"fmt"
)

// AppendWire appends the position's wire encoding to buf.
func (s *State) AppendWire(buf []byte) []byte {
	buf = append(buf, byte(s.box))
	buf = binary.AppendUvarint(buf, uint64(s.filled))
	buf = binary.AppendUvarint(buf, uint64(s.givens))
	buf = binary.AppendUvarint(buf, uint64(s.next))
	for _, v := range s.grid {
		buf = append(buf, byte(v))
	}
	return buf
}

// DecodeWire reconstructs a position encoded by AppendWire, consuming all
// of data. Per the clone contract the decoded position starts with an
// empty undo history floored at the shipped position.
func DecodeWire(data []byte) (*State, error) {
	if len(data) < 1 {
		return nil, fmt.Errorf("sudoku: wire: empty")
	}
	box := int(data[0])
	if box < 2 || box > 5 {
		return nil, fmt.Errorf("sudoku: wire: box side %d out of range 2..5", box)
	}
	data = data[1:]
	read := func(name string) (int, error) {
		v, used := binary.Uvarint(data)
		if used <= 0 {
			return 0, fmt.Errorf("sudoku: wire: truncated %s", name)
		}
		data = data[used:]
		return int(v), nil
	}
	filled, err := read("filled")
	if err != nil {
		return nil, err
	}
	givens, err := read("givens")
	if err != nil {
		return nil, err
	}
	next, err := read("next")
	if err != nil {
		return nil, err
	}
	s := New(box)
	cells := s.side * s.side
	if len(data) != cells {
		return nil, fmt.Errorf("sudoku: wire: grid %d bytes, want %d", len(data), cells)
	}
	if filled+givens > cells || next > cells {
		return nil, fmt.Errorf("sudoku: wire: counters filled=%d givens=%d next=%d on %d cells",
			filled, givens, next, cells)
	}
	nonEmpty := 0
	for idx, b := range data {
		if b == 0 {
			if idx < next {
				return nil, fmt.Errorf("sudoku: wire: empty cell %d below next cursor %d", idx, next)
			}
			continue
		}
		// int(b) — not int8 — so bytes ≥ 0x80 are caught here instead of
		// wrapping negative and feeding place a negative shift count.
		if int(b) > s.side {
			return nil, fmt.Errorf("sudoku: wire: cell %d holds %d on a side-%d grid", idx, b, s.side)
		}
		if !s.place(idx, int8(b)) {
			return nil, fmt.Errorf("sudoku: wire: cell %d value %d conflicts", idx, b)
		}
		nonEmpty++
	}
	if filled+givens != nonEmpty {
		return nil, fmt.Errorf("sudoku: wire: filled+givens = %d but %d cells are set",
			filled+givens, nonEmpty)
	}
	s.filled = filled
	s.givens = givens
	s.next = next
	return s, nil
}
