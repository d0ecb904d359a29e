package parallel

// Round-trip property tests for the parallel protocol's wire payloads:
// Decode(Encode(m)) == m for every registered kind, with
// testing/quick-generated field values, plus the worker handshake blob.

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/game"
	"repro/internal/mpi"
	"repro/internal/mpi/codec"
)

// payloadTrip encodes and decodes one payload value.
func payloadTrip(t *testing.T, v any) any {
	t.Helper()
	buf, err := codec.EncodePayload(nil, v)
	if err != nil {
		t.Fatalf("encode %T: %v", v, err)
	}
	out, err := codec.DecodePayload(buf)
	if err != nil {
		t.Fatalf("decode %T: %v", v, err)
	}
	return out
}

// nonneg maps arbitrary quick-generated ints onto the non-negative ranges
// the protocol uses (steps, candidate indexes, counters).
func nonneg(v int) int {
	if v < 0 {
		return -(v + 1)
	}
	return v
}

// par maps arbitrary quick-generated ints onto the branch-discriminator
// range [-1, ∞): -1 is the no-parent sentinel of step 0 and the
// synchronous schedulers, everything else a move index.
func par(v int) int {
	return nonneg(v) - 1
}

func quickParams(slot int, epoch uint64, level int, seed uint64, memorize bool, scale int64, root int) jobParams {
	if scale < 0 {
		scale = -(scale + 1)
	}
	return jobParams{
		Slot:      nonneg(slot),
		Epoch:     epoch,
		Level:     nonneg(level) % (MaxLevel + 1), // decoders reject levels beyond the cap
		Seed:      seed,
		Memorize:  memorize,
		JobScale:  scale,
		Root:      mpi.Rank(nonneg(root)),
		Speculate: nonneg(slot) % (MaxSpeculate + 1), // decoders reject widths beyond the cap
	}
}

func TestScalarPayloadRoundTrips(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	checks := map[string]any{
		"svcScore": func(epoch uint64, step, cand, p int, score float64, rollouts, units, chunks int64) bool {
			v := svcScore{
				Epoch: epoch, Step: nonneg(step), Cand: nonneg(cand), Par: par(p), Score: score,
				Rollouts: int64(nonneg(int(rollouts % (1 << 40)))), Units: int64(nonneg(int(units % (1 << 40)))),
				Chunks: int64(nonneg(int(chunks % (1 << 40)))),
			}
			got := payloadTrip(t, v).(svcScore)
			return got.Epoch == v.Epoch && got.Step == v.Step && got.Cand == v.Cand &&
				got.Par == v.Par && got.Rollouts == v.Rollouts && got.Units == v.Units &&
				got.Chunks == v.Chunks && math.Float64bits(got.Score) == math.Float64bits(v.Score)
		},
		"svcSpecCancel": func(slot int, epoch uint64, step, keep int) bool {
			v := svcSpecCancel{Slot: nonneg(slot), Epoch: epoch, Step: par(step), Keep: par(keep)}
			return payloadTrip(t, v).(svcSpecCancel) == v
		},
		"svcChunkResult": func(keys []uint64, seq int, score float64, units int64) bool {
			v := svcChunkResult{Keys: keys}
			for i := range keys {
				v.Seqs = append(v.Seqs, (nonneg(seq)+i)%wireMaxChunk)
				v.Scores = append(v.Scores, score+float64(i))
				v.Units = append(v.Units, int64(nonneg(int(units%(1<<40))))+int64(i))
			}
			got := payloadTrip(t, v).(svcChunkResult)
			if len(got.Keys) != len(keys) || len(got.Seqs) != len(keys) || len(got.Scores) != len(keys) || len(got.Units) != len(keys) {
				return false
			}
			for i := range keys {
				if got.Keys[i] != v.Keys[i] || got.Seqs[i] != v.Seqs[i] || got.Units[i] != v.Units[i] ||
					math.Float64bits(got.Scores[i]) != math.Float64bits(v.Scores[i]) {
					return false
				}
			}
			return true
		},
		"svcAbandonAck": func(epoch uint64, dropped int) bool {
			v := svcAbandonAck{Epoch: epoch, Dropped: nonneg(dropped)}
			return payloadTrip(t, v).(svcAbandonAck) == v
		},
		"svcRanksLost": func(lo, hi int) bool {
			l, h := nonneg(lo), nonneg(hi)
			if h < l {
				l, h = h, l
			}
			v := svcRanksLost{Lo: mpi.Rank(l), Hi: mpi.Rank(h)}
			return payloadTrip(t, v).(svcRanksLost) == v
		},
		"svcRegrant": func(epoch uint64, count int) bool {
			v := svcRegrant{Epoch: epoch, Count: nonneg(count)}
			return payloadTrip(t, v).(svcRegrant) == v
		},
	}
	for name, fn := range checks {
		if err := quick.Check(fn, cfg); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestStateCarryingPayloadRoundTrips(t *testing.T) {
	st := game.NewArmTree(3, 4, 9)
	st.Play(1)
	st.Play(2)

	if err := quick.Check(func(step, candIdx, p int, slot int, epoch uint64, level int, seed uint64, mem bool, scale int64, root int) bool {
		v := svcCandidate{
			Step: nonneg(step), Cand: nonneg(candIdx), Par: par(p),
			P:     quickParams(slot, epoch, level, seed, mem, scale, root),
			State: st,
		}
		g := payloadTrip(t, v).(svcCandidate)
		return g.Step == v.Step && g.Cand == v.Cand && g.Par == v.Par && g.P == v.P && g.State.MovesPlayed() == 2
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Errorf("svcCandidate: %v", err)
	}

	// A chunk carries moves that are legal at its Base (the decoder checks).
	legal := st.LegalMoves(nil)
	if err := quick.Check(func(keys []uint64, seq, p int, slot int, epoch uint64, level int, seed uint64, mem bool, scale int64, root int) bool {
		keys = keys[:min(len(keys), len(legal))]
		v := svcChunk{Par: par(p), P: quickParams(slot, epoch, level, seed, mem, scale, root), Base: st, Keys: keys}
		for i := range keys {
			v.Moves = append(v.Moves, legal[i])
			v.Seqs = append(v.Seqs, (nonneg(seq)+i)%wireMaxChunk)
		}
		g := payloadTrip(t, v).(svcChunk)
		return g.Par == v.Par && g.P == v.P && g.Base.MovesPlayed() == 2 &&
			slices.Equal(g.Moves, v.Moves) && slices.Equal(g.Keys, v.Keys) && slices.Equal(g.Seqs, v.Seqs)
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Errorf("svcChunk: %v", err)
	}
}

// TestPerRunKindsAreUnknown pins the deletion of the per-run protocol's
// codec kinds: Execute never runs on the net transport, so a frame of kind
// 64–67 (candidate, job, jobScore, stepScore) can only come from a
// misbehaving worker socket, and the coordinator must refuse to decode it.
func TestPerRunKindsAreUnknown(t *testing.T) {
	good, err := codec.AppendFrame(nil, codec.Frame{From: 3, To: 0, Tag: int32(tagStepScore), Payload: svcRegrant{Epoch: 1, Count: 2}})
	if err != nil {
		t.Fatal(err)
	}
	body := good[4:] // past the length prefix
	if _, err := codec.DecodeFrame(body); err != nil {
		t.Fatalf("control frame: %v", err)
	}
	for kind := uint16(64); kind < uint16(kindSvcCandidate); kind++ {
		binary.LittleEndian.PutUint16(body[13:], kind) // the payload kind follows the 13-byte header
		if _, err := codec.DecodeFrame(body); !errors.Is(err, codec.ErrKind) {
			t.Errorf("frame of kind %d: decode error %v, want ErrKind", kind, err)
		}
	}
	for _, v := range []any{candidate{}, job{}, jobScore{}, stepScore{}} {
		if _, err := codec.EncodePayload(nil, v); !errors.Is(err, codec.ErrKind) {
			t.Errorf("%T: encode error %v, want ErrKind", v, err)
		}
	}
}

// TestChunkDecodersRejectMalformed pins the hardening of the two chunk
// decoders: every malformed shape a remote frame can take is an error —
// never a panic, an unbounded allocation, or a chunk whose moves the
// client's Play would panic on.
func TestChunkDecodersRejectMalformed(t *testing.T) {
	st := game.NewArmTree(3, 4, 9)
	legal := st.LegalMoves(nil)
	good := svcChunk{Par: -1, P: jobParams{Level: 2, Epoch: 1}, Base: st,
		Moves: legal[:2], Keys: []uint64{7, 8}, Seqs: []int{0, 1}}
	goodRes := svcChunkResult{Keys: []uint64{7, 8}, Seqs: []int{0, 1}, Scores: []float64{1, 2}, Units: []int64{3, 4}}

	// Encoders refuse parallel slices of different lengths.
	for name, v := range map[string]any{
		"chunk keys short":   svcChunk{P: good.P, Base: st, Moves: legal[:2], Keys: []uint64{7}, Seqs: []int{0, 1}},
		"chunk seqs short":   svcChunk{P: good.P, Base: st, Moves: legal[:2], Keys: []uint64{7, 8}, Seqs: []int{0}},
		"result scores long": svcChunkResult{Keys: []uint64{7}, Seqs: []int{0}, Scores: []float64{1, 2}, Units: []int64{3}},
		"result units short": svcChunkResult{Keys: []uint64{7}, Seqs: []int{0}, Scores: []float64{1}},
	} {
		if _, err := codec.EncodePayload(nil, v); err == nil {
			t.Errorf("%s: encoded", name)
		}
	}

	encode := func(v any) []byte {
		buf, err := codec.EncodePayload(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	count := func(n uint64) []byte { return binary.AppendUvarint(nil, n) }
	chunkHead := appendJobParams(appendPar(binary.LittleEndian.AppendUint16(nil, uint16(kindSvcChunk)), -1), good.P)
	resHead := binary.LittleEndian.AppendUint16(nil, uint16(kindSvcChunkResult))
	item := func(mv game.Move, seq uint64) []byte {
		b := binary.AppendUvarint(nil, uint64(mv))
		b = binary.LittleEndian.AppendUint64(b, 7)
		return binary.AppendUvarint(b, seq)
	}
	base, err := codec.EncodeState(nil, st)
	if err != nil {
		t.Fatal(err)
	}
	cat := func(parts ...[]byte) []byte { return slices.Concat(parts...) }

	full := encode(good)
	fullRes := encode(goodRes)
	cases := map[string][]byte{
		"chunk count over cap":        cat(chunkHead, count(wireMaxChunk+1), base),
		"chunk count beyond bytes":    cat(chunkHead, count(1000), item(legal[0], 0), base),
		"chunk truncated item":        full[:len(chunkHead)+3],
		"chunk seq out of range":      cat(chunkHead, count(1), item(legal[0], wireMaxChunk), base),
		"chunk without base":          cat(chunkHead, count(1), item(legal[0], 0)),
		"chunk undecodable base":      cat(chunkHead, count(1), item(legal[0], 0), []byte{0xff, 0xff, 1, 2}),
		"chunk illegal move":          cat(chunkHead, count(1), item(game.Move(1<<40), 0), base),
		"chunk more items than moves": cat(chunkHead, count(4), item(legal[0], 0), item(legal[0], 1), item(legal[1], 2), item(legal[2], 3), base),
		"result count over cap":       cat(resHead, count(wireMaxChunk+1)),
		"result count beyond bytes":   cat(resHead, count(3), fullRes[len(resHead)+1:]),
		"result truncated":            fullRes[:len(fullRes)-1],
		"result trailing bytes":       cat(fullRes, []byte{0}),
		"result seq out of range": cat(resHead, count(1), binary.LittleEndian.AppendUint64(nil, 7),
			binary.AppendUvarint(nil, wireMaxChunk), binary.LittleEndian.AppendUint64(nil, 0), []byte{0}),
	}
	for name, buf := range cases {
		if v, err := codec.DecodePayload(buf); err == nil {
			t.Errorf("%s: decoded as %+v", name, v)
		}
	}
	// The well-formed twins of the cases above do decode.
	for name, buf := range map[string][]byte{"chunk": full, "result": fullRes,
		"handmade chunk": cat(chunkHead, count(1), item(legal[0], 0), base)} {
		if _, err := codec.DecodePayload(buf); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestEvalNameLimits pins the remote-controlled-length guard on evaluator
// names: the decoder must reject names beyond wireMaxEvalName and
// truncated name bytes, never allocate for them.
func TestEvalNameLimits(t *testing.T) {
	long := make([]byte, wireMaxEvalName+1)
	for i := range long {
		long[i] = 'x'
	}
	if _, _, err := readEvalName(appendEvalName(nil, string(long))); err == nil {
		t.Fatal("oversized evaluator name accepted")
	}
	buf := appendEvalName(nil, "heuristic")
	if _, _, err := readEvalName(buf[:len(buf)-1]); err == nil {
		t.Fatal("truncated evaluator name accepted")
	}
	name, rest, err := readEvalName(appendEvalName(nil, ""))
	if err != nil || name != "" || len(rest) != 0 {
		t.Fatalf("empty name (uniform sentinel) round trip: %q, %d rest, %v", name, len(rest), err)
	}
}

// TestJobParamsEvalRoundTrip pins the evaluator name riding every pool
// candidate and client job (the codec v3 jobParams extension) and the
// speculation width behind it (the codec v4 extension).
func TestJobParamsEvalRoundTrip(t *testing.T) {
	p := jobParams{
		Slot: 2, Epoch: 9, Level: 3, Seed: 41, Memorize: true,
		JobScale: 1 << 20, Root: mpi.Rank(1), Eval: "heuristic", Speculate: 4,
	}
	got, rest, err := readJobParams(appendJobParams(nil, p))
	if err != nil {
		t.Fatal(err)
	}
	if got != p || len(rest) != 0 {
		t.Fatalf("job params round trip: %+v, %d rest", got, len(rest))
	}
	// A speculation width beyond the remote-controlled-size cap is
	// malformed, not allocated for.
	p.Speculate = MaxSpeculate + 1
	if _, _, err := readJobParams(appendJobParams(nil, p)); err == nil {
		t.Fatal("oversized speculation width accepted")
	}
}

func TestWorkerBlobRoundTrip(t *testing.T) {
	cfg := PoolConfig{
		Slots: 3, Medians: 5, Clients: 9, Algo: LastMinute, Speculate: 2,
	}
	got, err := decodeWorkerBlob(appendWorkerBlob(nil, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if got != cfg {
		t.Fatalf("blob round trip: %+v != %+v", got, cfg)
	}

	// A negative pool-wide speculation width means "off" everywhere it is
	// consulted; the blob clamps it to 0 so the worker sees the same thing.
	neg := cfg
	neg.Speculate = -3
	got, err = decodeWorkerBlob(appendWorkerBlob(nil, neg))
	if err != nil {
		t.Fatal(err)
	}
	if got.Speculate != 0 {
		t.Fatalf("negative speculation width round-tripped as %d, want clamp to 0", got.Speculate)
	}

	if _, err := decodeWorkerBlob(nil); err == nil {
		t.Fatal("empty blob accepted")
	}
	if _, err := decodeWorkerBlob([]byte{workerBlobVersion + 1, 1, 1, 1, 0}); err == nil {
		t.Fatal("foreign blob version accepted")
	}
	if _, err := decodeWorkerBlob(appendWorkerBlob(nil, PoolConfig{})); err == nil {
		t.Fatal("degenerate pool config accepted")
	}

	// The world a blob lays out is built rank by rank before anything else
	// is checked, so its size is capped at decode: 2^40 medians must not
	// decode, and neither may three counts that only overflow together.
	for _, huge := range []PoolConfig{
		{Slots: 1, Medians: 1 << 40, Clients: 1},
		{Slots: 1, Medians: wireMaxWorld - 3, Clients: 1},
		{Slots: wireMaxWorld, Medians: wireMaxWorld, Clients: wireMaxWorld},
	} {
		if _, err := decodeWorkerBlob(appendWorkerBlob(nil, huge)); err == nil {
			t.Fatalf("oversized world %d/%d/%d accepted", huge.Slots, huge.Medians, huge.Clients)
		}
	}
	if _, err := decodeWorkerBlob(appendWorkerBlob(nil, PoolConfig{Slots: 1, Medians: wireMaxWorld - 4, Clients: 1})); err != nil {
		t.Fatalf("world of exactly %d ranks rejected: %v", wireMaxWorld, err)
	}
}

// TestServeWorkerRejectsForeignWorld hands a worker a blob whose world
// disagrees with the handshake's: ServeWorker must refuse it before it
// builds a rank, instead of serving a layout the coordinator does not have.
func TestServeWorkerRejectsForeignWorld(t *testing.T) {
	nc, err := mpi.ListenNet(mpi.NetConfig{
		Listen:      "127.0.0.1:0",
		LocalRanks:  3,
		WorkerRanks: []int{2},
		Blob:        appendWorkerBlob(nil, PoolConfig{Slots: 1, Medians: 3, Clients: 1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpi.DialWorker(nc.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ServeWorker(w); err == nil {
		t.Fatal("blob of 7 ranks served in a world of 5")
	}
	for r := 0; r < 3; r++ {
		nc.Start(mpi.Rank(r), func(mpi.Comm) {})
	}
	nc.Run()
}
