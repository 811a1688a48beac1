package bus

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"loadbalance/internal/message"
)

// Wire protocol v2: length-prefixed binary frames. A connection opens with a
// two-byte preamble (magic, version), then exchanges frames:
//
//	uvarint(1+len(payload))  kind byte  payload bytes
//
// Frame kinds are hello (client → server: agent name), hello-ack (server →
// client: negotiated version), envelope (either direction: a binary
// message.Envelope) and error (server → client: terminal error text, the
// connection closes after it). Envelope payloads use the single-pass binary
// codec in internal/message, so nothing on the wire is JSON-in-JSON. A
// connection whose first byte is not the magic is closed unanswered and
// counted as a protocol error.

// Protocol constants.
const (
	// WireVersion is the highest protocol version this build speaks.
	WireVersion = 2
	// wireMagic opens every connection. 0xB5 ("bus") can begin neither UTF-8
	// text nor a JSON document, so a stray text client is told apart at once.
	wireMagic byte = 0xB5
	// DefaultMaxFrame bounds a single frame (kind + payload). Reward tables
	// are a few kB; a megabyte frame is a protocol error, not a message.
	DefaultMaxFrame = 1 << 20
)

// Frame kinds.
const (
	frameHello    byte = 1
	frameHelloAck byte = 2
	frameEnvelope byte = 3
	frameError    byte = 4
)

// Wire protocol errors.
var (
	ErrFrameTooLarge = errors.New("bus: frame exceeds size limit")
	ErrBadHandshake  = errors.New("bus: bad wire handshake")
	ErrRemote        = errors.New("bus: remote error")
)

// appendUvarint appends the varint encoding of v to dst.
func appendUvarint(dst []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(dst, tmp[:n]...)
}

// appendFrame appends one wire frame to dst.
func appendFrame(dst []byte, kind byte, payload []byte) []byte {
	dst = appendUvarint(dst, uint64(1+len(payload)))
	dst = append(dst, kind)
	return append(dst, payload...)
}

// EncodeEnvelopeFrame appends env as one v2 envelope frame to dst: varint
// length, kind byte, then the envelope's binary encoding, written in a
// single pass.
func EncodeEnvelopeFrame(dst []byte, env message.Envelope) []byte {
	size := env.BinarySize()
	dst = appendUvarint(dst, uint64(1+size))
	dst = append(dst, frameEnvelope)
	return env.AppendBinary(dst)
}

// DecodeEnvelopeFrame parses one v2 envelope frame produced by
// EncodeEnvelopeFrame and returns the number of bytes consumed.
func DecodeEnvelopeFrame(data []byte) (message.Envelope, int, error) {
	n, used := binary.Uvarint(data)
	if used <= 0 || n == 0 {
		return message.Envelope{}, 0, fmt.Errorf("%w: bad frame length", ErrBadHandshake)
	}
	// Compare in uint64 before converting: a crafted 2^63-scale length must
	// error out, not overflow int and slip past the bounds check.
	if n > uint64(len(data)-used) {
		return message.Envelope{}, 0, io.ErrUnexpectedEOF
	}
	end := used + int(n)
	if data[used] != frameEnvelope {
		return message.Envelope{}, 0, fmt.Errorf("%w: frame kind %d, want envelope", ErrBadHandshake, data[used])
	}
	env, err := message.UnmarshalBinary(data[used+1 : end])
	if err != nil {
		return message.Envelope{}, 0, err
	}
	return env, end, nil
}

// readFrame reads one frame from r, rejecting frames above max bytes.
func readFrame(r *bufio.Reader, max int) (kind byte, payload []byte, n int, err error) {
	length, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, nil, 0, err
	}
	if length == 0 {
		return 0, nil, 0, fmt.Errorf("%w: empty frame", ErrBadHandshake)
	}
	if length > uint64(max) {
		return 0, nil, 0, fmt.Errorf("%w: %d bytes (limit %d)", ErrFrameTooLarge, length, max)
	}
	buf := make([]byte, length)
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, 0, err
	}
	return buf[0], buf[1:], uvarintLen(length) + int(length), nil
}

// uvarintLen is the encoded size of v as a uvarint.
func uvarintLen(v uint64) int {
	var tmp [binary.MaxVarintLen64]byte
	return binary.PutUvarint(tmp[:], v)
}

// WireStats is a snapshot of one transport endpoint's frame counters. All
// counters are cumulative; Dropped counts envelopes discarded because a
// peer's bounded outbound queue was full (overload shedding, mirroring the
// in-process bus's rejected-delivery semantics).
type WireStats struct {
	FramesIn  uint64
	FramesOut uint64
	BytesIn   uint64
	BytesOut  uint64
	Dropped   uint64 // outbound envelopes shed at a full per-connection queue
	Hellos    uint64 // accepted handshakes
	Rejected  uint64 // hello rejections (duplicate or invalid names)
	Malformed uint64 // frames skipped as undecodable
	ProtoErrs uint64 // sessions terminated on protocol errors (oversized frame, bad stream, wrong first byte)
}

// wireCounters is the atomic backing store for WireStats.
type wireCounters struct {
	framesIn, framesOut atomic.Uint64
	bytesIn, bytesOut   atomic.Uint64
	dropped             atomic.Uint64
	hellos              atomic.Uint64
	rejected            atomic.Uint64
	malformed           atomic.Uint64
	protoErrs           atomic.Uint64
}

// snapshot copies the counters.
func (c *wireCounters) snapshot() WireStats {
	return WireStats{
		FramesIn:  c.framesIn.Load(),
		FramesOut: c.framesOut.Load(),
		BytesIn:   c.bytesIn.Load(),
		BytesOut:  c.bytesOut.Load(),
		Dropped:   c.dropped.Load(),
		Hellos:    c.hellos.Load(),
		Rejected:  c.rejected.Load(),
		Malformed: c.malformed.Load(),
		ProtoErrs: c.protoErrs.Load(),
	}
}
