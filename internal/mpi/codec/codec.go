// Package codec is the wire protocol of the distributed rank world: a
// typed, versioned, length-prefixed frame format for every payload that
// crosses a process boundary through mpi.Comm.
//
// The in-process transports (VirtualCluster, WallCluster) pass payloads as
// bare `any` values between goroutines; nothing needs to be serialized.
// The net transport (mpi.NetCluster) runs ranks in separate OS processes
// connected by TCP — the shape of the paper's Open MPI deployment on a
// Gigabit cluster — so every message must have an explicit byte encoding.
// This package owns that encoding:
//
//	frame     := u32 length | body            (length = len(body), LE)
//	body      := u8 version | i32 from | i32 to | i32 tag | payload
//	payload   := u16 kind | bytes             (kind-specific encoding)
//
// All fixed-width integers are little-endian; variable-length integers use
// encoding/binary's uvarint. The version byte is checked on every frame:
// a frame of an unknown version is rejected with ErrVersion, never
// half-decoded — the cross-version safety the handshake negotiates (see
// mpi.NetCluster) is enforced per frame as well.
//
// Payload types are identified by a Kind and registered with Register,
// the way encoding/gob registers concrete types. The codec package itself
// registers the primitives and the domain positions (morpion, samegame,
// sudoku and the synthetic ArmTree, each with a compact domain-specific
// state encoding — see the wire.go file of each domain package);
// internal/mpi registers its Rank type and internal/parallel registers the
// protocol structs (candidates, jobs, scores, abandon acks). Registration
// happens in package init functions, before any goroutine touches the
// registry, so lookups are lock-free.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
)

// Version is the wire protocol version stamped on every frame and offered
// in the NetCluster handshake. Bump it on any incompatible change to the
// frame layout, the handshake layout, or a payload encoding.
//
// History: 1 = the original frame format; 2 = fault-tolerance wire
// changes (token field in the worker hello, svcScore gained Step,
// svcResult gained Key); 3 = evaluator wire changes (job params gained
// the evaluator name, new evaluation batch request/reply payloads);
// 4 = async-root wire changes (candidates and scores gained the branch
// discriminator Par, job params gained Speculate, new speculation-cancel
// payload, worker blob gained the pool speculation default); 5 = chunked
// pool rollouts (the per-rollout svcJob/svcResult payloads gave way to
// svcChunk/svcChunkResult, svcScore gained Chunks, the never-used
// evaluation batch payloads of 3 are gone, application kinds renumbered);
// 6 = job params lost Speculate (the speculation width is read only by
// the slot, which never leaves the coordinator).
const Version = 6

// MaxFrame bounds the body length a reader will accept. A corrupt or
// hostile length prefix must not make a worker allocate gigabytes; the
// real protocol's largest messages are candidate positions of a few KiB.
const MaxFrame = 1 << 24

// Kind identifies a payload type on the wire.
type Kind uint16

// Builtin payload kinds. 0–15 are primitives, 16–31 domain positions,
// 32–63 reserved for the mpi layer, 64+ application protocols
// (internal/parallel).
const (
	KindNil     Kind = 0
	KindInt     Kind = 1
	KindInt64   Kind = 2
	KindUint64  Kind = 3
	KindFloat64 Kind = 4
	KindBool    Kind = 5
	KindString  Kind = 6
	KindMove    Kind = 7
	KindMoves   Kind = 8
	KindFloats  Kind = 9

	KindArmTree  Kind = 16
	KindMorpion  Kind = 17
	KindSameGame Kind = 18
	KindSudoku   Kind = 19

	// KindRank is registered by package mpi (codec cannot import it).
	KindRank Kind = 32
)

// Decode/encode errors. Decoders wrap these so callers can errors.Is.
var (
	// ErrVersion rejects a frame stamped with an unknown protocol version.
	ErrVersion = errors.New("codec: unknown frame version")
	// ErrKind rejects a payload whose kind is not registered.
	ErrKind = errors.New("codec: unknown payload kind")
	// ErrTruncated rejects a frame or payload shorter than its encoding.
	ErrTruncated = errors.New("codec: truncated frame")
	// ErrMalformed rejects a payload whose bytes violate its invariants
	// (illegal move sequence, out-of-range cell, inconsistent grid).
	ErrMalformed = errors.New("codec: malformed payload")
)

// entry is one registered payload type.
type entry struct {
	enc func(buf []byte, v any) ([]byte, error)
	dec func(data []byte) (any, error)
}

var (
	byKind = map[Kind]*entry{}
	byType = map[reflect.Type]Kind{}
)

// Register binds kind to the concrete type T with its encoder and decoder.
// The encoder appends T's payload bytes to buf; the decoder consumes the
// whole data slice (a payload always extends to the end of its frame) and
// returns the reconstructed value or an error for malformed bytes — it
// must never panic on arbitrary input. Register panics on a duplicate
// kind or type: registration is package-init wiring, not runtime state.
func Register[T any](kind Kind, enc func(buf []byte, v T) ([]byte, error), dec func(data []byte) (T, error)) {
	t := reflect.TypeOf((*T)(nil)).Elem()
	if _, dup := byKind[kind]; dup {
		panic(fmt.Sprintf("codec: kind %d registered twice", kind))
	}
	if _, dup := byType[t]; dup {
		panic(fmt.Sprintf("codec: type %v registered twice", t))
	}
	byKind[kind] = &entry{
		enc: func(buf []byte, v any) ([]byte, error) { return enc(buf, v.(T)) },
		dec: func(data []byte) (any, error) { return dec(data) },
	}
	byType[t] = kind
}

// KindOf reports the registered kind of v's concrete type.
func KindOf(v any) (Kind, bool) {
	if v == nil {
		return KindNil, true
	}
	k, ok := byType[reflect.TypeOf(v)]
	return k, ok
}

// EncodePayload appends the typed encoding of v — a u16 kind followed by
// the kind-specific bytes — to buf. It fails on unregistered types.
func EncodePayload(buf []byte, v any) ([]byte, error) {
	if v == nil {
		return binary.LittleEndian.AppendUint16(buf, uint16(KindNil)), nil
	}
	kind, ok := byType[reflect.TypeOf(v)]
	if !ok {
		return nil, fmt.Errorf("%w: no kind for %T", ErrKind, v)
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(kind))
	return byKind[kind].enc(buf, v)
}

// DecodePayload decodes a payload produced by EncodePayload, consuming all
// of data.
func DecodePayload(data []byte) (any, error) {
	if len(data) < 2 {
		return nil, fmt.Errorf("%w: payload header", ErrTruncated)
	}
	kind := Kind(binary.LittleEndian.Uint16(data))
	if kind == KindNil {
		if len(data) != 2 {
			return nil, fmt.Errorf("%w: nil payload with %d trailing bytes", ErrMalformed, len(data)-2)
		}
		return nil, nil
	}
	e, ok := byKind[kind]
	if !ok {
		return nil, fmt.Errorf("%w: kind %d", ErrKind, kind)
	}
	return e.dec(data[2:])
}

// Frame is one routed message of the rank world: the (from, to, tag)
// envelope of an mpi message plus its payload. Ranks and tags travel as
// raw int32 so this package does not depend on package mpi; negative
// values are legal (mpi.External sources, control frames).
type Frame struct {
	From, To int32
	Tag      int32
	Payload  any
}

// frameHeader is the fixed part of a body: version + from + to + tag.
const frameHeader = 1 + 4 + 4 + 4

// AppendFrame appends the complete length-prefixed encoding of f to buf.
func AppendFrame(buf []byte, f Frame) ([]byte, error) {
	lenAt := len(buf)
	buf = append(buf, 0, 0, 0, 0) // length back-patched below
	buf = append(buf, Version)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(f.From))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(f.To))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(f.Tag))
	buf, err := EncodePayload(buf, f.Payload)
	if err != nil {
		return nil, err
	}
	body := len(buf) - lenAt - 4
	if body > MaxFrame {
		return nil, fmt.Errorf("codec: frame body %d exceeds MaxFrame", body)
	}
	binary.LittleEndian.PutUint32(buf[lenAt:], uint32(body))
	return buf, nil
}

// PeekEnvelope reads a frame body's (from, to, tag) envelope without
// decoding the payload. The coordinator's hub uses it to route control
// frames and to drop a frame a worker may not send before paying (or
// trusting) payload decoding. ok is false for a truncated header or a
// foreign version.
func PeekEnvelope(body []byte) (from, to, tag int32, ok bool) {
	if len(body) < frameHeader || body[0] != Version {
		return 0, 0, 0, false
	}
	return int32(binary.LittleEndian.Uint32(body[1:])),
		int32(binary.LittleEndian.Uint32(body[5:])),
		int32(binary.LittleEndian.Uint32(body[9:])), true
}

// DecodeFrame decodes a frame body (the bytes after the length prefix).
// It rejects unknown versions with ErrVersion before looking at anything
// else, so version negotiation failures are always reported as such.
func DecodeFrame(body []byte) (Frame, error) {
	if len(body) < 1 {
		return Frame{}, fmt.Errorf("%w: empty body", ErrTruncated)
	}
	if body[0] != Version {
		return Frame{}, fmt.Errorf("%w: got %d, speak %d", ErrVersion, body[0], Version)
	}
	if len(body) < frameHeader {
		return Frame{}, fmt.Errorf("%w: header", ErrTruncated)
	}
	f := Frame{
		From: int32(binary.LittleEndian.Uint32(body[1:])),
		To:   int32(binary.LittleEndian.Uint32(body[5:])),
		Tag:  int32(binary.LittleEndian.Uint32(body[9:])),
	}
	p, err := DecodePayload(body[frameHeader:])
	if err != nil {
		return Frame{}, err
	}
	f.Payload = p
	return f, nil
}
