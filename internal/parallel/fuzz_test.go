package parallel

// Native fuzz targets for the two inputs a peer controls. FuzzDecodeWorkerBlob
// covers the worker handshake blob, the one input a pnmcs-worker takes
// from its coordinator before any frame: arbitrary bytes must decode to a
// pool world ServeWorker can build, or to an error — never a panic, a
// degenerate world, one beyond wireMaxWorld or one with a worker lacking a
// role. Its committed corpus under testdata/fuzz holds version-4 blobs —
// one per pool shape, a truncated one, one with trailing bytes and one
// claiming 2^40 medians — a version-5 blob with the local-dispatch flag
// set and the version-6 blob of net_loopback's pool, all of which the
// version check now refuses; the seeds added in code are current-version
// blobs. FuzzDecodePoolFrame covers the pool's frame payloads, which the
// coordinator decodes from worker-sent bytes and a worker from the
// coordinator's.

import (
	"bytes"
	"testing"

	"repro/internal/game"
	"repro/internal/morpion"
	"repro/internal/mpi"
	"repro/internal/mpi/codec"
	"repro/internal/samegame"
	"repro/internal/sudoku"
)

func FuzzDecodeWorkerBlob(f *testing.F) {
	for i, cfg := range []PoolConfig{
		{Slots: 1, Medians: 1, Clients: 1},
		{Slots: 3, Medians: 5, Clients: 9},
		{Slots: 1, Medians: 2, Clients: 3, CacheMB: 128, CacheVerify: true},
	} {
		f.Add(appendWorkerBlob(nil, cfg, 1+i%2))
	}
	f.Add([]byte{})
	f.Add([]byte{workerBlobVersion})

	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, workers, err := decodeWorkerBlob(data)
		if err != nil {
			return
		}
		if cfg.Slots < 1 || cfg.Medians < 1 || cfg.Clients < 1 {
			t.Fatalf("degenerate world decoded: %+v", cfg)
		}
		if n := cfg.Slots + 1 + cfg.Medians + cfg.Clients; n > wireMaxWorld {
			t.Fatalf("world of %d ranks decoded, limit %d", n, wireMaxWorld)
		}
		if workers < 1 || workers > cfg.Medians {
			t.Fatalf("%d workers decoded for %d medians and %d clients", workers, cfg.Medians, cfg.Clients)
		}
		again, againWorkers, err := decodeWorkerBlob(appendWorkerBlob(nil, cfg, workers))
		if err != nil {
			t.Fatalf("re-encoded blob does not decode: %v", err)
		}
		if again != cfg || againWorkers != workers {
			t.Fatalf("blob round trip: %+v on %d workers != %+v on %d", again, againWorkers, cfg, workers)
		}
	})
}

// FuzzDecodePoolFrame starts from a current-version frame of every pool
// payload kind — a candidate of each domain with and without an evaluator
// name, a step score, an abandon ack, a regrant and a speculation cancel —
// and holds the frame decoder to FuzzDecodeFrame's contract: arbitrary
// bytes decode or fail, never panic, and a decoded frame re-encodes to a
// canonical fixed point in one round trip.
func FuzzDecodePoolFrame(f *testing.F) {
	played := func(st game.State, n int) game.State {
		var moves []game.Move
		for range n {
			if moves = st.LegalMoves(moves[:0]); len(moves) == 0 {
				break
			}
			st.Play(moves[len(moves)/2])
		}
		return st
	}
	var payloads []any
	for _, st := range []game.State{
		played(game.NewArmTree(3, 4, 9), 2),
		played(morpion.New(morpion.Var5D), 3),
		played(samegame.NewRandom(5, 5, 3, 3), 2),
		played(sudoku.New(2), 4),
	} {
		for _, eval := range []string{"", "heuristic"} {
			payloads = append(payloads, svcCandidate{Step: 3, Cand: 1, Par: 2, State: st, P: jobParams{
				Slot: 1, Epoch: 7, Level: 2, Seed: 41, Memorize: true, JobScale: 1 << 20,
				Root: mpi.Rank(1), Eval: eval, Cache: eval != "",
			}})
		}
	}
	payloads = append(payloads,
		svcScore{Epoch: 7, Step: 3, Cand: 1, Par: -1, Score: 21.5, Rollouts: 400, Units: 9000, Chunks: 2},
		svcAbandonAck{Epoch: 7, Dropped: 4},
		svcRegrant{Epoch: 7, Count: 2},
		svcSpecCancel{Slot: 1, Epoch: 7, Step: -1, Keep: -1},
	)
	for _, v := range payloads {
		buf, err := codec.AppendFrame(nil, codec.Frame{From: 3, To: 0, Tag: 66, Payload: v})
		if err != nil {
			f.Fatalf("seed %T: %v", v, err)
		}
		f.Add(buf[4:])
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		fr, err := codec.DecodeFrame(body)
		if err != nil {
			return
		}
		// Compared as bytes, not decoded values: NaN scores are legal on
		// the wire, and NaN != NaN.
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
		if !bytes.Equal(buf, buf2) {
			t.Fatalf("unstable canonical encoding:\n%x\n%x", buf, buf2)
		}
	})
}
