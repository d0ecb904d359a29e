package codec_test

// Native fuzz target for the frame decoder: arbitrary bytes must produce
// either a decoded frame or an error — never a panic and never an
// out-of-range allocation. Frames that do decode must re-encode and
// re-decode stably (the encoding is canonical).
//
// The target lives in the external test package so it can register the
// full production kind set: importing internal/parallel pulls in the mpi
// Rank kind and every pool-protocol payload (candidates, scores,
// results, the fault-tolerance ranks-lost/regrant notices), which makes
// the committed seed corpus under testdata/fuzz — ping/pong heartbeat
// control frames, telemetry-bearing goodbyes, re-grant frames — decode
// end-to-end instead of dying at the kind lookup.

import (
	"reflect"
	"testing"

	"repro/internal/mpi/codec"

	_ "repro/internal/parallel" // register mpi + pool-protocol payload kinds
)

func FuzzDecodeFrame(f *testing.F) {
	// Seed with a couple of well-formed frames and classic corruptions;
	// the committed corpus in testdata/fuzz adds control (ping/pong/bye)
	// and fault-protocol (ranks-lost, regrant) frames and an eval-carrying
	// candidate, stamped v2 and v3, and v5 chunk and chunk-result frames,
	// one well-formed and one malformed each (an illegal move, an item
	// count that lies), whose kinds are retired besides. Every one of them
	// now pins version rejection. The pool payloads at the current version
	// are internal/parallel's FuzzDecodePoolFrame seeds.
	for _, fr := range []codec.Frame{
		{From: 0, To: 1, Tag: 2, Payload: nil},
		{From: -2, To: 3, Tag: 64, Payload: uint64(99)},
		{From: 1, To: 2, Tag: 8, Payload: "seed"},
		// The heartbeat control envelope (To = ctrlRank, ping tag).
		{From: -100, To: -100, Tag: 1, Payload: nil},
		// A telemetry-bearing pong: per-rank idle seconds.
		{From: 5, To: -100, Tag: 2, Payload: []float64{0.25, 1.5}},
	} {
		buf, err := codec.AppendFrame(nil, fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf[4:])
		f.Add(buf) // length prefix misinterpreted as body
	}
	f.Add([]byte{})
	f.Add([]byte{codec.Version})
	f.Add([]byte{42, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, body []byte) {
		fr, err := codec.DecodeFrame(body)
		if err != nil {
			return
		}
		// Canonical re-encode: the byte form must reach a fixed point in
		// one round trip. Compared as bytes, not decoded values — NaN
		// payloads are legal on the wire and NaN != NaN would fail a
		// value comparison that the encoding itself satisfies.
		buf, err := codec.AppendFrame(nil, fr)
		if err != nil {
			t.Fatalf("decoded frame %+v does not re-encode: %v", fr, err)
		}
		again, err := codec.DecodeFrame(buf[4:])
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		buf2, err := codec.AppendFrame(nil, again)
		if err != nil {
			t.Fatalf("re-decoded frame %+v does not re-encode: %v", again, err)
		}
		if !reflect.DeepEqual(buf, buf2) {
			t.Fatalf("unstable canonical encoding:\n%x\n%x", buf, buf2)
		}
	})
}
