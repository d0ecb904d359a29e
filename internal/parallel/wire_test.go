package parallel

// Round-trip property tests for the parallel protocol's wire payloads:
// Decode(Encode(m)) == m for every registered kind, with
// testing/quick-generated field values, plus the worker handshake blob.

import (
	"encoding/binary"
	"errors"
	"math"
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
		"svcAbandonAck": func(epoch uint64, dropped int) bool {
			v := svcAbandonAck{Epoch: epoch, Dropped: nonneg(dropped)}
			return payloadTrip(t, v).(svcAbandonAck) == v
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

}

// TestPerRunKindsAreUnknown pins the deletion of the per-run protocol's
// codec kinds: Execute never runs on the net transport, so a frame of kind
// 64–67 (candidate, job, jobScore, stepScore) can only come from a
// misbehaving worker socket, and the coordinator must refuse to decode it.
// The same holds for kind 73, the worker-loss notice's: the pool only ever
// injects it at its own scheduler; and for kinds 69 and 71, the retired
// rollout chunk's and chunk result's: a median step's rollouts never leave
// its process.
func TestPerRunKindsAreUnknown(t *testing.T) {
	good, err := codec.AppendFrame(nil, codec.Frame{From: 3, To: 0, Tag: int32(tagStepScore), Payload: svcRegrant{Epoch: 1, Count: 2}})
	if err != nil {
		t.Fatal(err)
	}
	body := good[4:] // past the length prefix
	if _, err := codec.DecodeFrame(body); err != nil {
		t.Fatalf("control frame: %v", err)
	}
	for _, kind := range []uint16{64, 65, 66, 67, 69, 71, 73} {
		binary.LittleEndian.PutUint16(body[13:], kind) // the payload kind follows the 13-byte header
		if _, err := codec.DecodeFrame(body); !errors.Is(err, codec.ErrKind) {
			t.Errorf("frame of kind %d: decode error %v, want ErrKind", kind, err)
		}
	}
	for _, v := range []any{candidate{}, job{}, jobScore{}, stepScore{}, svcRanksLost{}} {
		if _, err := codec.EncodePayload(nil, v); !errors.Is(err, codec.ErrKind) {
			t.Errorf("%T: encode error %v, want ErrKind", v, err)
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
	for _, workers := range []int{1, 2, 5} {
		got, gotWorkers, err := decodeWorkerBlob(appendWorkerBlob(nil, cfg, workers))
		if err != nil {
			t.Fatal(err)
		}
		if got != cfg || gotWorkers != workers {
			t.Fatalf("blob round trip: %+v on %d workers != %+v on %d", got, gotWorkers, cfg, workers)
		}
	}
	// A worker count of zero, or past medians, lays out a world NewNetPool
	// refuses: some worker would host no median. Past clients is fine.
	for _, workers := range []int{0, 6} {
		if _, _, err := decodeWorkerBlob(appendWorkerBlob(nil, cfg, workers)); err == nil {
			t.Fatalf("blob of %d workers for 5 medians and 9 clients accepted", workers)
		}
	}
	few := PoolConfig{Slots: 1, Medians: 3, Clients: 2}
	if got, gotWorkers, err := decodeWorkerBlob(appendWorkerBlob(nil, few, 3)); err != nil || got != few || gotWorkers != 3 {
		t.Fatalf("blob of 3 workers for 3 medians and 2 clients: %+v on %d, %v", got, gotWorkers, err)
	}
	// net_loopback's pool, byte for byte: the worker count is the first
	// reserved v2 field.
	loopback := PoolConfig{Slots: 2, Medians: 2, Clients: 2, Algo: LastMinute, CacheMB: 64}
	if got := appendWorkerBlob(nil, loopback, 2); string(got) != "\x07\x02\x02\x02\x01\x02\x00@\x00\x00" {
		t.Fatalf("v7 blob of net_loopback's pool is %q", got)
	}
	// A version-6 blob is refused: its fields lay the worker ranges out
	// with client ranks this coordinator does not have. So is the
	// committed v6 fuzz seed valid_workers.
	v6 := appendWorkerBlob(nil, loopback, 2)
	v6[0] = 6
	if _, _, err := decodeWorkerBlob(v6); err == nil {
		t.Fatal("version-6 blob accepted")
	}
	// A version-5 blob is refused: it lays the world out with a dispatcher
	// rank this coordinator does not have.
	v5 := appendWorkerBlob(nil, cfg, 1)
	v5[0] = 5
	if _, _, err := decodeWorkerBlob(v5); err == nil {
		t.Fatal("version-5 blob accepted")
	}

	// A negative pool-wide speculation width means "off" everywhere it is
	// consulted; the blob clamps it to 0 so the worker sees the same thing.
	neg := cfg
	neg.Speculate = -3
	got, _, err := decodeWorkerBlob(appendWorkerBlob(nil, neg, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got.Speculate != 0 {
		t.Fatalf("negative speculation width round-tripped as %d, want clamp to 0", got.Speculate)
	}

	if _, _, err := decodeWorkerBlob(nil); err == nil {
		t.Fatal("empty blob accepted")
	}
	if _, _, err := decodeWorkerBlob([]byte{workerBlobVersion + 1, 1, 1, 1, 0}); err == nil {
		t.Fatal("foreign blob version accepted")
	}
	if _, _, err := decodeWorkerBlob(appendWorkerBlob(nil, PoolConfig{}, 1)); err == nil {
		t.Fatal("degenerate pool config accepted")
	}

	// The world a blob lays out is built rank by rank before anything else
	// is checked, so its size is capped at decode: 2^40 medians must not
	// decode, and neither may three counts that only overflow together.
	for _, huge := range []PoolConfig{
		{Slots: 1, Medians: 1 << 40, Clients: 1},
		{Slots: 1, Medians: wireMaxWorld - 2, Clients: 1},
		{Slots: wireMaxWorld, Medians: wireMaxWorld, Clients: wireMaxWorld},
	} {
		if _, _, err := decodeWorkerBlob(appendWorkerBlob(nil, huge, 1)); err == nil {
			t.Fatalf("oversized world %d/%d/%d accepted", huge.Slots, huge.Medians, huge.Clients)
		}
	}
	if _, _, err := decodeWorkerBlob(appendWorkerBlob(nil, PoolConfig{Slots: 1, Medians: wireMaxWorld - 3, Clients: 1}, 1)); err != nil {
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
		Blob:        appendWorkerBlob(nil, PoolConfig{Slots: 1, Medians: 4, Clients: 1}, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpi.DialWorker(nc.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ServeWorker(w); err == nil {
		t.Fatal("blob of 6 ranks served in a world of 5")
	}
	for r := 0; r < 3; r++ {
		nc.Start(mpi.Rank(r), func(mpi.Comm) {})
	}
	nc.Run()
}

// TestServeWorkerRejectsForeignRange hands a worker of a 1 slot × 2
// medians × 2 clients pool the rank range [2, 4) — both medians — where
// the blob's layout has two ranges of one median each: ServeWorker must
// refuse it rather than serve medians another worker also serves.
func TestServeWorkerRejectsForeignRange(t *testing.T) {
	nc, err := mpi.ListenNet(mpi.NetConfig{
		Listen:      "127.0.0.1:0",
		LocalRanks:  2,
		WorkerRanks: []int{2},
		Blob:        appendWorkerBlob(nil, PoolConfig{Slots: 1, Medians: 2, Clients: 2}, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpi.DialWorker(nc.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ServeWorker(w); err == nil {
		t.Fatal("a range of both medians served")
	}
	for r := 0; r < 2; r++ {
		nc.Start(mpi.Rank(r), func(mpi.Comm) {})
	}
	nc.Run()
}
