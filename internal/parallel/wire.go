package parallel

// Wire encodings of the pool protocol's payloads (service candidates,
// step scores, abandon acks, re-grant and speculation-cancel notices),
// registered with the frame codec so they can cross process boundaries on
// the net transport. The in-process transports never touch these:
// payloads stay bare Go values between goroutines. The per-run protocol
// (candidate, job, jobScore, stepScore) has no encodings: Execute only
// ever runs on the virtual and wall transports, so no frame of those kinds
// was ever sent, and a kind the coordinator can decode is a kind a worker
// socket can make it decode. A median step's rollouts never travel at
// all: the median shares them with its own process's helpers in memory.
//
// Encodings follow the codec conventions: fixed-width little-endian
// scalars via encoding/binary, uvarints for small counts, and a nested
// typed state as the final field (a payload always extends to the end of
// its frame, so the state needs no length prefix).

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/game"
	"repro/internal/mpi"
	"repro/internal/mpi/codec"
)

// svcCandidate is the slot→scheduler→median payload: one candidate
// position of a root step, tagged with its logical coordinates and the
// owning job. Par is the async scheduler's branch discriminator — the
// parent move index the candidate's step assumes was played at the
// previous step (see candidate.Par); the median echoes it in svcScore so
// the slot can shed scores of speculative branches that lost the argmax.
type svcCandidate struct {
	Step  int
	Cand  int
	Par   int // parent move index at the previous root step (−1 = none)
	P     jobParams
	State game.State
}

// svcScore is the median→slot result: the final score of the Cand-th
// candidate of the root step Step, plus the rollout accounting of the
// candidate's whole level-(ℓ−1) game. Rollout counts ride the protocol
// instead of a shared-memory collector so they survive process
// boundaries: on the net transport the median that played the game lives
// in another OS process. Step exists for worker churn: when a lost
// median's score turns out to have survived the crash, the re-granted
// duplicate finishes during some later root step, and without the step
// echo its score — Epoch valid, Cand in range — would be accepted as that
// later step's answer. Undisturbed runs never produce a cross-step score;
// churn does. Par echoes the granted candidate's branch discriminator:
// the async slot accepts a score only when both Step and Par match its
// current gather, which is what sheds a losing speculative branch's
// in-flight games without any per-score bookkeeping.
type svcScore struct {
	Epoch    uint64
	Step     int
	Cand     int
	Par      int // branch discriminator echo (svcCandidate.Par)
	Score    float64
	Rollouts int64 // rollouts executed for this candidate's game
	Units    int64 // metered work units across those rollouts
	Chunks   int64 // steps of the game whose rollouts a helper joined
}

// svcRanksLost is the worker-loss notice the pool injects at its scheduler
// when a worker process dies or is abandoned: the contiguous rank range
// [Lo, Hi) the worker hosted. The scheduler re-queues the medians'
// outstanding candidate grants. Nothing else needs telling: the worker's
// medians took their helpers and posted steps with them. The scheduler is
// a coordinator rank and the notice an Inject, so it never crosses the
// wire and has no codec kind.
type svcRanksLost struct {
	Lo, Hi mpi.Rank
}

// svcRegrant is the scheduler→slot notice that Count of the job's granted
// candidates were lost with a worker and re-queued; the slot accumulates
// it into Result.Regranted. Informational only: the re-granted candidates
// re-enter the normal grant/score flow and change no score.
type svcRegrant struct {
	Epoch uint64
	Count int
}

// svcAbandonAck is the scheduler→slot answer to an abandon: how many of
// the abandoning step's candidates were still queued (and are now
// dropped). Every queued candidate of the epoch is dropped — speculative
// next-step ones included — but only the gathered step's count rides the
// ack, because only those candidates figure in the slot's drain
// arithmetic. The epoch lets a slot discard an ack that outlived its job.
type svcAbandonAck struct {
	Epoch   uint64
	Dropped int
}

// svcAbandon is the slot→scheduler abandon order (offAbandon): drop every
// queued candidate of the epoch, ack the count belonging to root step
// Step. Slots and the scheduler are both coordinator ranks, so this never
// crosses the wire and needs no codec kind.
type svcAbandon struct {
	Epoch uint64
	Step  int
}

// svcSpecCancel is the speculation cancel order of the async scheduler.
// The slot sends it on its offSpecCancel band when an argmax resolves
// (Step = the speculated root step, Keep = the winning move index) or
// when the job ends with speculation still in flight (Step = −1: every
// speculative grant of the epoch is moot). The scheduler purges covered
// queued candidates, remembers the latest cancel per slot — applied again
// when a dead worker's grants are re-queued — and re-broadcasts the order
// to the medians (tagSpecCancel), which skip covered buffered grants and
// abort covered games mid-play without reporting a score. Fire-and-forget,
// like tagJobFail: no ack, because a cancel that loses a race is harmless
// — covered scores are shed by the slot's epoch/step/Par guards anyway.
type svcSpecCancel struct {
	Slot  int
	Epoch uint64
	Step  int // speculated root step the cancel covers; −1 = all steps
	Keep  int // branch (parent move) to keep: the argmax winner; −1 = none
}

// Application payload kinds (64+ is the application band, see codec).
// 64–67 were the per-run protocol's and stay unassigned, so the surviving
// kinds keep their wire values. So do 69 and 71, the retired rollout
// chunk's and chunk result's, and 73, the worker-loss notice's: it is only
// ever injected at the coordinator's own scheduler.
const (
	kindSvcCandidate  codec.Kind = 68 + iota // pool slot -> scheduler -> median
	_                                        // 69: unassigned (see above)
	kindSvcScore                             // pool median -> slot
	_                                        // 71: unassigned (see above)
	kindSvcAbandonAck                        // pool scheduler -> slot
	_                                        // 73: unassigned (see above)
	kindSvcRegrant                           // pool scheduler -> slot: grants re-queued
	kindSvcSpecCancel                        // pool scheduler -> median: speculative branch cancelled
)

// The worker handshake blob (appendWorkerBlob) is NOT a frame payload: it
// travels inside the handshake welcome with its own version byte, so it
// has no codec kind.

func init() {
	codec.Register(kindSvcCandidate,
		func(buf []byte, v svcCandidate) ([]byte, error) {
			buf = binary.AppendUvarint(buf, uint64(v.Step))
			buf = binary.AppendUvarint(buf, uint64(v.Cand))
			buf = appendPar(buf, v.Par)
			buf = appendJobParams(buf, v.P)
			return codec.EncodeState(buf, v.State)
		},
		func(data []byte) (svcCandidate, error) {
			var c svcCandidate
			step, data, err := codec.ReadUvarint(data)
			if err != nil {
				return c, err
			}
			cand, data, err := codec.ReadUvarint(data)
			if err != nil {
				return c, err
			}
			par, data, err := readPar(data)
			if err != nil {
				return c, err
			}
			p, data, err := readJobParams(data)
			if err != nil {
				return c, err
			}
			st, err := codec.DecodeState(data)
			if err != nil {
				return c, err
			}
			return svcCandidate{Step: int(step), Cand: int(cand), Par: par, P: p, State: st}, nil
		})

	codec.Register(kindSvcScore,
		func(buf []byte, v svcScore) ([]byte, error) {
			buf = binary.LittleEndian.AppendUint64(buf, v.Epoch)
			buf = binary.AppendUvarint(buf, uint64(v.Step))
			buf = binary.AppendUvarint(buf, uint64(v.Cand))
			buf = appendPar(buf, v.Par)
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Score))
			buf = binary.AppendUvarint(buf, uint64(v.Rollouts))
			buf = binary.AppendUvarint(buf, uint64(v.Units))
			return binary.AppendUvarint(buf, uint64(v.Chunks)), nil
		},
		func(data []byte) (svcScore, error) {
			var s svcScore
			if len(data) < 8 {
				return s, fmt.Errorf("%w: svcScore epoch", codec.ErrTruncated)
			}
			s.Epoch = binary.LittleEndian.Uint64(data)
			step, data, err := codec.ReadUvarint(data[8:])
			if err != nil {
				return s, err
			}
			s.Step = int(step)
			cand, data, err := codec.ReadUvarint(data)
			if err != nil {
				return s, err
			}
			s.Cand = int(cand)
			par, data, err := readPar(data)
			if err != nil {
				return s, err
			}
			s.Par = par
			if len(data) < 8 {
				return s, fmt.Errorf("%w: svcScore score", codec.ErrTruncated)
			}
			s.Score = math.Float64frombits(binary.LittleEndian.Uint64(data))
			rollouts, data, err := codec.ReadUvarint(data[8:])
			if err != nil {
				return s, err
			}
			units, data, err := codec.ReadUvarint(data)
			if err != nil {
				return s, err
			}
			chunks, data, err := codec.ReadUvarint(data)
			if err != nil {
				return s, err
			}
			if len(data) != 0 {
				return s, fmt.Errorf("%w: svcScore trailing bytes", codec.ErrMalformed)
			}
			s.Rollouts, s.Units, s.Chunks = int64(rollouts), int64(units), int64(chunks)
			return s, nil
		})

	codec.Register(kindSvcRegrant,
		func(buf []byte, v svcRegrant) ([]byte, error) {
			buf = binary.LittleEndian.AppendUint64(buf, v.Epoch)
			return binary.AppendUvarint(buf, uint64(v.Count)), nil
		},
		func(data []byte) (svcRegrant, error) {
			var r svcRegrant
			if len(data) < 8 {
				return r, fmt.Errorf("%w: regrant epoch", codec.ErrTruncated)
			}
			r.Epoch = binary.LittleEndian.Uint64(data)
			count, data, err := codec.ReadUvarint(data[8:])
			if err != nil {
				return r, err
			}
			if len(data) != 0 {
				return r, fmt.Errorf("%w: regrant trailing bytes", codec.ErrMalformed)
			}
			r.Count = int(count)
			return r, nil
		})

	codec.Register(kindSvcSpecCancel,
		func(buf []byte, v svcSpecCancel) ([]byte, error) {
			buf = binary.AppendUvarint(buf, uint64(v.Slot))
			buf = binary.LittleEndian.AppendUint64(buf, v.Epoch)
			// Step and Keep use the Par shift: −1 is a legal value for both
			// (−1 step = the whole epoch, −1 keep = no surviving branch).
			buf = appendPar(buf, v.Step)
			return appendPar(buf, v.Keep), nil
		},
		func(data []byte) (svcSpecCancel, error) {
			var cn svcSpecCancel
			slot, data, err := codec.ReadUvarint(data)
			if err != nil {
				return cn, err
			}
			cn.Slot = int(slot)
			if len(data) < 8 {
				return cn, fmt.Errorf("%w: spec cancel epoch", codec.ErrTruncated)
			}
			cn.Epoch = binary.LittleEndian.Uint64(data)
			step, data, err := readPar(data[8:])
			if err != nil {
				return cn, err
			}
			cn.Step = step
			keep, data, err := readPar(data)
			if err != nil {
				return cn, err
			}
			cn.Keep = keep
			if len(data) != 0 {
				return cn, fmt.Errorf("%w: spec cancel trailing bytes", codec.ErrMalformed)
			}
			return cn, nil
		})

	codec.Register(kindSvcAbandonAck,
		func(buf []byte, v svcAbandonAck) ([]byte, error) {
			buf = binary.LittleEndian.AppendUint64(buf, v.Epoch)
			return binary.AppendUvarint(buf, uint64(v.Dropped)), nil
		},
		func(data []byte) (svcAbandonAck, error) {
			var a svcAbandonAck
			if len(data) < 8 {
				return a, fmt.Errorf("%w: abandon ack", codec.ErrTruncated)
			}
			a.Epoch = binary.LittleEndian.Uint64(data)
			dropped, data, err := codec.ReadUvarint(data[8:])
			if err != nil {
				return a, err
			}
			if len(data) != 0 {
				return a, fmt.Errorf("%w: abandon ack trailing bytes", codec.ErrMalformed)
			}
			a.Dropped = int(dropped)
			return a, nil
		})
}

// wireMaxWorld caps the ranks and clients a decoded worker blob may lay
// out: the worker builds every rank of the world before it serves its own
// range, and starts its share of the clients as goroutines.
const wireMaxWorld = 1 << 16

// wireMaxEvalName caps the evaluator-name bytes a decoded job frame may
// carry: names are short registry keys, and the cap bounds the
// allocation a remote-controlled length prefix can demand.
const wireMaxEvalName = 64

// appendEvalName encodes a registered evaluator name (uvarint length +
// bytes; empty = uniform playouts).
func appendEvalName(buf []byte, name string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(name)))
	return append(buf, name...)
}

// readEvalName decodes appendEvalName's encoding.
func readEvalName(data []byte) (string, []byte, error) {
	n, data, err := codec.ReadUvarint(data)
	if err != nil {
		return "", nil, err
	}
	if n > wireMaxEvalName {
		return "", nil, fmt.Errorf("%w: evaluator name of %d bytes exceeds limit %d", codec.ErrMalformed, n, wireMaxEvalName)
	}
	if uint64(len(data)) < n {
		return "", nil, fmt.Errorf("%w: evaluator name", codec.ErrTruncated)
	}
	return string(data[:n]), data[n:], nil
}

// appendPar encodes a branch discriminator (or any −1-capable small
// index, like svcSpecCancel's Step/Keep) as uvarint(v+1), so −1 — the
// "no parent" sentinel — costs one byte and never goes negative on the
// wire.
func appendPar(buf []byte, v int) []byte {
	return binary.AppendUvarint(buf, uint64(v+1))
}

// readPar decodes appendPar's encoding.
func readPar(data []byte) (int, []byte, error) {
	v, data, err := codec.ReadUvarint(data)
	if err != nil {
		return 0, nil, err
	}
	return int(v) - 1, data, nil
}

// appendJobParams encodes the per-job knobs that ride every candidate.
func appendJobParams(buf []byte, p jobParams) []byte {
	buf = binary.AppendUvarint(buf, uint64(p.Slot))
	buf = binary.LittleEndian.AppendUint64(buf, p.Epoch)
	buf = binary.AppendUvarint(buf, uint64(p.Level))
	buf = binary.LittleEndian.AppendUint64(buf, p.Seed)
	b := byte(0)
	if p.Memorize {
		b = 1
	}
	buf = append(buf, b)
	buf = binary.AppendUvarint(buf, uint64(p.JobScale))
	buf = binary.AppendUvarint(buf, uint64(p.Root))
	buf = appendEvalName(buf, p.Eval)
	flags := byte(0)
	if p.Cache {
		flags |= 1
	}
	buf = append(buf, flags)
	// Speculate is normalized before shipping (playJob clamps it to ≥0),
	// so a plain uvarint suffices.
	return binary.AppendUvarint(buf, uint64(p.Speculate))
}

// readJobParams decodes appendJobParams' encoding and returns the
// remaining bytes.
func readJobParams(data []byte) (jobParams, []byte, error) {
	var p jobParams
	slot, data, err := codec.ReadUvarint(data)
	if err != nil {
		return p, nil, err
	}
	if len(data) < 8 {
		return p, nil, fmt.Errorf("%w: job params epoch", codec.ErrTruncated)
	}
	epoch := binary.LittleEndian.Uint64(data)
	level, data, err := codec.ReadUvarint(data[8:])
	if err != nil {
		return p, nil, err
	}
	if level > MaxLevel {
		return p, nil, fmt.Errorf("%w: job level %d exceeds limit %d", codec.ErrMalformed, level, MaxLevel)
	}
	if len(data) < 9 {
		return p, nil, fmt.Errorf("%w: job params seed", codec.ErrTruncated)
	}
	seed := binary.LittleEndian.Uint64(data)
	memorize := data[8]
	if memorize > 1 {
		return p, nil, fmt.Errorf("%w: job params memorize flag %d", codec.ErrMalformed, memorize)
	}
	scale, data, err := codec.ReadUvarint(data[9:])
	if err != nil {
		return p, nil, err
	}
	root, data, err := codec.ReadUvarint(data)
	if err != nil {
		return p, nil, err
	}
	eval, data, err := readEvalName(data)
	if err != nil {
		return p, nil, err
	}
	if len(data) < 1 {
		return p, nil, fmt.Errorf("%w: job params flags", codec.ErrTruncated)
	}
	flags := data[0]
	if flags > 1 {
		return p, nil, fmt.Errorf("%w: job params flags %#x", codec.ErrMalformed, flags)
	}
	spec, data, err := codec.ReadUvarint(data[1:])
	if err != nil {
		return p, nil, err
	}
	if spec > MaxSpeculate {
		return p, nil, fmt.Errorf("%w: job speculate %d exceeds limit %d", codec.ErrMalformed, spec, MaxSpeculate)
	}
	return jobParams{
		Slot:      int(slot),
		Epoch:     epoch,
		Level:     int(level),
		Seed:      seed,
		Memorize:  memorize == 1,
		JobScale:  int64(scale),
		Root:      mpi.Rank(root),
		Eval:      eval,
		Cache:     flags&1 != 0,
		Speculate: int(spec),
	}, data, nil
}

// workerBlobVersion guards the handshake blob layout independently of the
// frame version: the blob is interpreted by parallel, not by the codec.
// Version history: 1 carried the pool shape (slots/medians/clients/algo);
// 2 added the evaluation batch shape, two uvarints that are reserved
// since the batcher was removed (written as 0, read and discarded);
// 3 added the transposition-cache shape (CacheMB, CacheVerify flag);
// 4 added the async-root speculation default (Speculate); 5 carried a
// local-dispatch flag in the first reserved v2 field; 6 carries the worker
// count there instead, and drops the dispatcher rank from the world; 7
// keeps the fields and drops the client ranks: a worker's range holds its
// medians only, and its clients run as helpers. A v5 worker must not join
// a v6 coordinator, nor a v6 worker a v7 one: each would lay the rank
// ranges out differently.
const workerBlobVersion = 7

// appendWorkerBlob encodes the PoolConfig and worker count a pnmcs-worker
// needs to derive the identical poolWorld the coordinator built — and,
// since v3, to size its transposition cache the way the coordinator was
// configured.
func appendWorkerBlob(buf []byte, cfg PoolConfig, workers int) []byte {
	buf = append(buf, workerBlobVersion)
	buf = binary.AppendUvarint(buf, uint64(cfg.Slots))
	buf = binary.AppendUvarint(buf, uint64(cfg.Medians))
	buf = binary.AppendUvarint(buf, uint64(cfg.Clients))
	buf = binary.AppendUvarint(buf, uint64(cfg.Algo))
	buf = binary.AppendUvarint(buf, uint64(workers)) // since v6: in the first reserved v2 field
	buf = append(buf, 0)                             // the second reserved v2 field
	buf = binary.AppendUvarint(buf, uint64(cfg.CacheMB))
	verify := uint64(0)
	if cfg.CacheVerify {
		verify = 1
	}
	buf = binary.AppendUvarint(buf, verify)
	// v4: the pool-wide speculation default. Negative configs mean "off"
	// everywhere they are consulted, so they ship as 0.
	return binary.AppendUvarint(buf, uint64(max(0, cfg.Speculate)))
}

// decodeWorkerBlob reverses appendWorkerBlob.
func decodeWorkerBlob(data []byte) (cfg PoolConfig, workers int, err error) {
	if len(data) < 1 {
		return cfg, 0, fmt.Errorf("parallel: empty worker blob")
	}
	if data[0] != workerBlobVersion {
		return cfg, 0, fmt.Errorf("parallel: worker blob version %d, want %d", data[0], workerBlobVersion)
	}
	data = data[1:]
	fields := []*int{&cfg.Slots, &cfg.Medians, &cfg.Clients}
	world := uint64(1) // the scheduler; clients count too (see wireMaxWorld)
	for _, f := range fields {
		v, rest, err := codec.ReadUvarint(data)
		if err != nil {
			return cfg, 0, fmt.Errorf("parallel: worker blob: %w", err)
		}
		if world += min(v, wireMaxWorld); world > wireMaxWorld {
			return cfg, 0, fmt.Errorf("parallel: worker blob: world exceeds %d ranks", wireMaxWorld)
		}
		*f, data = int(v), rest
	}
	algo, data, err := codec.ReadUvarint(data)
	if err != nil {
		return cfg, 0, fmt.Errorf("parallel: worker blob: %w", err)
	}
	cfg.Algo = Algorithm(algo)
	w, data, err := codec.ReadUvarint(data)
	if err != nil {
		return cfg, 0, fmt.Errorf("parallel: worker blob: %w", err)
	}
	if _, data, err = codec.ReadUvarint(data); err != nil { // reserved v2 field
		return cfg, 0, fmt.Errorf("parallel: worker blob: %w", err)
	}
	cacheMB, data, err := codec.ReadUvarint(data)
	if err != nil {
		return cfg, 0, fmt.Errorf("parallel: worker blob: %w", err)
	}
	cfg.CacheMB = int(cacheMB)
	verify, data, err := codec.ReadUvarint(data)
	if err != nil {
		return cfg, 0, fmt.Errorf("parallel: worker blob: %w", err)
	}
	if verify > 1 {
		return cfg, 0, fmt.Errorf("parallel: worker blob: cache-verify flag %d", verify)
	}
	cfg.CacheVerify = verify == 1
	spec, rest, err := codec.ReadUvarint(data)
	if err != nil {
		return cfg, 0, fmt.Errorf("parallel: worker blob: %w", err)
	}
	if spec > MaxSpeculate {
		return cfg, 0, fmt.Errorf("parallel: worker blob: speculate %d exceeds limit %d", spec, MaxSpeculate)
	}
	cfg.Speculate = int(spec)
	if len(rest) != 0 {
		// Trailing bytes mean version skew (a field added without bumping
		// workerBlobVersion): fail loudly — a misparsed blob would
		// desynchronize the whole rank/tag layout.
		return cfg, 0, fmt.Errorf("parallel: worker blob: %d trailing bytes", len(rest))
	}
	if cfg.Slots < 1 || cfg.Medians < 1 || cfg.Clients < 1 {
		return cfg, 0, fmt.Errorf("parallel: worker blob: degenerate pool %d/%d/%d",
			cfg.Slots, cfg.Medians, cfg.Clients)
	}
	// NewNetPool's bound: a worker count past medians would lay out a
	// worker without a median. Clients still count against wireMaxWorld
	// above: each is a helper goroutine a worker starts on this input.
	if w < 1 || w > uint64(cfg.Medians) {
		return cfg, 0, fmt.Errorf("parallel: worker blob: %d workers for %d medians", w, cfg.Medians)
	}
	return cfg, int(w), nil
}
