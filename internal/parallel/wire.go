package parallel

// Wire encodings of the pool protocol's payloads (service candidates,
// rollout chunks and results, abandon acks), registered with the frame
// codec so they can cross process boundaries on the net transport. The
// in-process transports never touch these: payloads stay bare Go values
// between goroutines. The per-run protocol (candidate, job, jobScore,
// stepScore) has no encodings: Execute only ever runs on the virtual and
// wall transports, so no frame of those kinds was ever sent, and a kind
// the coordinator can decode is a kind a worker socket can make it decode.
//
// Encodings follow the codec conventions: fixed-width little-endian
// scalars via encoding/binary, uvarints for small counts, and a nested
// typed state as the final field (a payload always extends to the end of
// its frame, so the state needs no length prefix).

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/game"
	"repro/internal/mpi"
	"repro/internal/mpi/codec"
)

// Application payload kinds (64+ is the application band, see codec).
// 64–67 were the per-run protocol's and stay unassigned, so the surviving
// kinds keep their wire values.
const (
	kindSvcCandidate   codec.Kind = 68 + iota // pool slot -> scheduler -> median
	kindSvcChunk                              // pool median -> client
	kindSvcScore                              // pool median -> slot
	kindSvcChunkResult                        // pool client -> median
	kindSvcAbandonAck                         // pool scheduler -> slot
	kindSvcRanksLost                          // pool coordinator -> median: worker ranks died
	kindSvcRegrant                            // pool scheduler -> slot: grants re-queued
	kindSvcSpecCancel                         // pool scheduler -> median: speculative branch cancelled
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

	codec.Register(kindSvcChunk,
		func(buf []byte, v svcChunk) ([]byte, error) {
			if len(v.Keys) != len(v.Moves) || len(v.Seqs) != len(v.Moves) {
				return nil, fmt.Errorf("%w: svcChunk with %d moves, %d keys, %d seqs",
					codec.ErrMalformed, len(v.Moves), len(v.Keys), len(v.Seqs))
			}
			buf = appendPar(buf, v.Par)
			buf = appendJobParams(buf, v.P)
			buf = binary.AppendUvarint(buf, uint64(len(v.Moves)))
			for i, mv := range v.Moves {
				buf = binary.AppendUvarint(buf, uint64(mv))
				buf = binary.LittleEndian.AppendUint64(buf, v.Keys[i])
				buf = binary.AppendUvarint(buf, uint64(v.Seqs[i]))
			}
			return codec.EncodeState(buf, v.Base)
		},
		func(data []byte) (svcChunk, error) {
			var ck svcChunk
			par, data, err := readPar(data)
			if err != nil {
				return ck, err
			}
			p, data, err := readJobParams(data)
			if err != nil {
				return ck, err
			}
			n, data, err := readChunkCount(data, 1+8+1)
			if err != nil {
				return ck, err
			}
			ck = svcChunk{Par: par, P: p, Moves: make([]game.Move, n), Keys: make([]uint64, n), Seqs: make([]int, n)}
			for i := range ck.Moves {
				mv, rest, err := codec.ReadUvarint(data)
				if err != nil {
					return ck, err
				}
				if len(rest) < 8 {
					return ck, fmt.Errorf("%w: svcChunk key %d", codec.ErrTruncated, i)
				}
				ck.Moves[i], ck.Keys[i] = game.Move(mv), binary.LittleEndian.Uint64(rest)
				if ck.Seqs[i], data, err = readChunkSeq(rest[8:]); err != nil {
					return ck, err
				}
			}
			if ck.Base, err = codec.DecodeState(data); err != nil {
				return ck, err
			}
			// The client plays every move on a copy of Base, and Play
			// panics on an illegal move: reject here what the position
			// does not allow.
			legal := ck.Base.LegalMoves(nil)
			if n > len(legal) {
				return ck, fmt.Errorf("%w: svcChunk of %d items on a position with %d moves", codec.ErrMalformed, n, len(legal))
			}
			for i, mv := range ck.Moves {
				if !slices.Contains(legal, mv) {
					return ck, fmt.Errorf("%w: svcChunk item %d: illegal move %#x", codec.ErrMalformed, i, mv)
				}
			}
			return ck, nil
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

	codec.Register(kindSvcChunkResult,
		func(buf []byte, v svcChunkResult) ([]byte, error) {
			if len(v.Keys) != len(v.Seqs) || len(v.Scores) != len(v.Seqs) || len(v.Units) != len(v.Seqs) {
				return nil, fmt.Errorf("%w: svcChunkResult with %d seqs, %d keys, %d scores, %d units",
					codec.ErrMalformed, len(v.Seqs), len(v.Keys), len(v.Scores), len(v.Units))
			}
			buf = binary.AppendUvarint(buf, uint64(len(v.Seqs)))
			for i, seq := range v.Seqs {
				buf = binary.LittleEndian.AppendUint64(buf, v.Keys[i])
				buf = binary.AppendUvarint(buf, uint64(seq))
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.Scores[i]))
				buf = binary.AppendUvarint(buf, uint64(v.Units[i]))
			}
			return buf, nil
		},
		func(data []byte) (svcChunkResult, error) {
			var r svcChunkResult
			n, data, err := readChunkCount(data, 8+1+8+1)
			if err != nil {
				return r, err
			}
			r = svcChunkResult{Keys: make([]uint64, n), Seqs: make([]int, n), Scores: make([]float64, n), Units: make([]int64, n)}
			for i := range r.Seqs {
				if len(data) < 8 {
					return r, fmt.Errorf("%w: svcChunkResult key %d", codec.ErrTruncated, i)
				}
				r.Keys[i] = binary.LittleEndian.Uint64(data)
				if r.Seqs[i], data, err = readChunkSeq(data[8:]); err != nil {
					return r, err
				}
				if len(data) < 8 {
					return r, fmt.Errorf("%w: svcChunkResult score %d", codec.ErrTruncated, i)
				}
				r.Scores[i] = math.Float64frombits(binary.LittleEndian.Uint64(data))
				units, rest, err := codec.ReadUvarint(data[8:])
				if err != nil {
					return r, err
				}
				r.Units[i], data = int64(units), rest
			}
			if len(data) != 0 {
				return r, fmt.Errorf("%w: svcChunkResult trailing bytes", codec.ErrMalformed)
			}
			return r, nil
		})

	codec.Register(kindSvcRanksLost,
		func(buf []byte, v svcRanksLost) ([]byte, error) {
			buf = binary.AppendUvarint(buf, uint64(v.Lo))
			return binary.AppendUvarint(buf, uint64(v.Hi)), nil
		},
		func(data []byte) (svcRanksLost, error) {
			var l svcRanksLost
			lo, data, err := codec.ReadUvarint(data)
			if err != nil {
				return l, err
			}
			hi, data, err := codec.ReadUvarint(data)
			if err != nil {
				return l, err
			}
			if len(data) != 0 {
				return l, fmt.Errorf("%w: ranks-lost trailing bytes", codec.ErrMalformed)
			}
			if hi < lo {
				return l, fmt.Errorf("%w: ranks-lost range [%d, %d)", codec.ErrMalformed, lo, hi)
			}
			return svcRanksLost{Lo: mpi.Rank(lo), Hi: mpi.Rank(hi)}, nil
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

// wireMaxChunk caps the items a decoded chunk or chunk result may carry,
// and the candidate index of each. A chunk never holds more items than its
// position has legal moves; the widest step of the bundled domains is
// box-4 sudoku's first, at 4096.
const wireMaxChunk = 1 << 16

// readChunkCount decodes the item count of a chunk or chunk result and
// bounds it by the cap and by the bytes that are actually there (each
// item takes at least itemMin), so a lying count allocates nothing.
func readChunkCount(data []byte, itemMin int) (int, []byte, error) {
	n, data, err := codec.ReadUvarint(data)
	if err != nil {
		return 0, nil, err
	}
	if n > wireMaxChunk {
		return 0, nil, fmt.Errorf("%w: chunk of %d items exceeds limit %d", codec.ErrMalformed, n, wireMaxChunk)
	}
	if n > uint64(len(data)/itemMin) {
		return 0, nil, fmt.Errorf("%w: chunk of %d items in %d bytes", codec.ErrTruncated, n, len(data))
	}
	return int(n), data, nil
}

// readChunkSeq decodes one item's candidate index.
func readChunkSeq(data []byte) (int, []byte, error) {
	seq, data, err := codec.ReadUvarint(data)
	if err != nil {
		return 0, nil, err
	}
	if seq >= wireMaxChunk {
		return 0, nil, fmt.Errorf("%w: chunk seq %d exceeds limit %d", codec.ErrMalformed, seq, wireMaxChunk)
	}
	return int(seq), data, nil
}

// wireMaxWorld caps the ranks a decoded worker blob may lay out: the
// worker builds every rank of the world before it serves its own range.
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

// appendJobParams encodes the per-job knobs that ride every candidate and
// client job.
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
// 4 added the async-root speculation default (Speculate).
const workerBlobVersion = 4

// appendWorkerBlob encodes the PoolConfig a pnmcs-worker needs to derive
// the identical poolWorld the coordinator built — and, since v3, to size
// its transposition cache the way the coordinator was configured.
func appendWorkerBlob(buf []byte, cfg PoolConfig) []byte {
	buf = append(buf, workerBlobVersion)
	buf = binary.AppendUvarint(buf, uint64(cfg.Slots))
	buf = binary.AppendUvarint(buf, uint64(cfg.Medians))
	buf = binary.AppendUvarint(buf, uint64(cfg.Clients))
	buf = binary.AppendUvarint(buf, uint64(cfg.Algo))
	buf = append(buf, 0, 0) // reserved v2 fields
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
func decodeWorkerBlob(data []byte) (PoolConfig, error) {
	var cfg PoolConfig
	if len(data) < 1 {
		return cfg, fmt.Errorf("parallel: empty worker blob")
	}
	if data[0] != workerBlobVersion {
		return cfg, fmt.Errorf("parallel: worker blob version %d, want %d", data[0], workerBlobVersion)
	}
	data = data[1:]
	fields := []*int{&cfg.Slots, &cfg.Medians, &cfg.Clients}
	world := uint64(2) // scheduler and dispatcher
	for _, f := range fields {
		v, rest, err := codec.ReadUvarint(data)
		if err != nil {
			return cfg, fmt.Errorf("parallel: worker blob: %w", err)
		}
		if world += min(v, wireMaxWorld); world > wireMaxWorld {
			return cfg, fmt.Errorf("parallel: worker blob: world exceeds %d ranks", wireMaxWorld)
		}
		*f, data = int(v), rest
	}
	algo, data, err := codec.ReadUvarint(data)
	if err != nil {
		return cfg, fmt.Errorf("parallel: worker blob: %w", err)
	}
	cfg.Algo = Algorithm(algo)
	for range 2 { // reserved v2 fields
		if _, data, err = codec.ReadUvarint(data); err != nil {
			return cfg, fmt.Errorf("parallel: worker blob: %w", err)
		}
	}
	cacheMB, data, err := codec.ReadUvarint(data)
	if err != nil {
		return cfg, fmt.Errorf("parallel: worker blob: %w", err)
	}
	cfg.CacheMB = int(cacheMB)
	verify, data, err := codec.ReadUvarint(data)
	if err != nil {
		return cfg, fmt.Errorf("parallel: worker blob: %w", err)
	}
	if verify > 1 {
		return cfg, fmt.Errorf("parallel: worker blob: cache-verify flag %d", verify)
	}
	cfg.CacheVerify = verify == 1
	spec, rest, err := codec.ReadUvarint(data)
	if err != nil {
		return cfg, fmt.Errorf("parallel: worker blob: %w", err)
	}
	if spec > MaxSpeculate {
		return cfg, fmt.Errorf("parallel: worker blob: speculate %d exceeds limit %d", spec, MaxSpeculate)
	}
	cfg.Speculate = int(spec)
	if len(rest) != 0 {
		// Trailing bytes mean version skew (a field added without bumping
		// workerBlobVersion): fail loudly — a misparsed blob would
		// desynchronize the whole rank/tag layout.
		return cfg, fmt.Errorf("parallel: worker blob: %d trailing bytes", len(rest))
	}
	if cfg.Slots < 1 || cfg.Medians < 1 || cfg.Clients < 1 {
		return cfg, fmt.Errorf("parallel: worker blob: degenerate pool %d/%d/%d",
			cfg.Slots, cfg.Medians, cfg.Clients)
	}
	return cfg, nil
}
