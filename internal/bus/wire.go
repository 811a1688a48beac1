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

// Wire protocol v3: length-prefixed binary frames. A connection opens with a
// two-byte preamble (magic, version), then exchanges frames:
//
//	uvarint(1+len(payload))  kind byte  payload bytes
//
// Frame kinds are hello (client → server: agent name), hello-ack (server →
// client: the version spoken), envelope (either direction: a binary
// message.Envelope), error (server → client: terminal error text, the
// connection closes after it) and fan-out (client → server: one envelope for
// several named recipients):
//
//	uvarint(count)  count × (uvarint(len) recipient bytes)  binary envelope
//
// Envelope payloads use the single-pass binary codec in internal/message, so
// nothing on the wire is JSON-in-JSON. A connection whose first byte is not
// the magic is closed unanswered and counted as a protocol error. Exactly one
// version is spoken: a receiver skips frame kinds it does not know, so a v2
// server would silently lose every fan-out, and a peer announcing anything
// below WireVersion is refused at the hello instead.
//
// What a frame costs. Neither end allocates for the frame itself, only for
// what the envelope keeps. Reading: every frame of a connection lands in that
// connection's one buffer (frameReader), which the next frame overwrites —
// UnmarshalBinary and decodeFanOut take out the two pieces an envelope keeps,
// its header string and its payload, and retain nothing else. A bid, an
// award, a session end or a table is decoded and validated there, in the
// buffer, and leaves as the payload with no Body, so the server's trust
// boundary (Validated) and every receiver's Decode after it cost nothing; any
// other body is copied out as the Body and parsed once, at that boundary.
// Writing: a Client encodes into its one buffer under its write gate; the bus
// encodes each envelope for a Server connection straight into the pending
// half of the connection's buffer pair, and its writer puts everything
// pending on the wire in one write (outbound, tcp.go). Either way an envelope
// that carries its payload — built in process, or decoded off a wire — has
// its payload's JSON encoded there, once, behind the frame's length
// (appendEnvelopeFrame).
//
// So a server that relays a bid from one connection to another writes the
// value it validated, in the bytes json.Marshal writes, not the bytes the
// peer sent: the same value, and the same bytes whenever the peer wrote what
// json.Marshal writes, as this package does.
// A buffer one big frame grew past retainedFrameBuf is dropped after that
// frame instead of being kept for the connection's life.

// Protocol constants.
const (
	// WireVersion is the protocol version this build speaks.
	WireVersion = 3
	// wireMagic opens every connection. 0xB5 ("bus") can begin neither UTF-8
	// text nor a JSON document, so a stray text client is told apart at once.
	wireMagic byte = 0xB5
	// DefaultMaxFrame bounds a single frame (kind + payload). Reward tables
	// are a few kB; a megabyte frame is a protocol error, not a message.
	DefaultMaxFrame = 1 << 20
	// minFrameBuf is the size a connection's frame buffers start at: a bid or
	// an award frame is under 100 bytes and a ten-entry reward table under
	// 600, so a negotiating connection never grows them.
	minFrameBuf = 512
	// retainedFrameBuf is the largest frame buffer a connection keeps between
	// frames. MaxFrame only says what a peer may send once — replication's is
	// 64 MB, for a snapshot bootstrap — and a connection that kept what its
	// largest frame grew would hold that for life; the frames that recur
	// (meter batches, journal batches, obs batches of a tick) are well under
	// 64 KB, so they reuse the buffer and the rare giant pays its own way.
	retainedFrameBuf = 64 << 10
)

// Frame kinds.
const (
	frameHello    byte = 1
	frameHelloAck byte = 2
	frameEnvelope byte = 3
	frameError    byte = 4
	frameFanOut   byte = 5
)

// Wire protocol errors.
var (
	ErrFrameTooLarge = errors.New("bus: frame exceeds size limit")
	ErrBadHandshake  = errors.New("bus: bad wire handshake")
	ErrRemote        = errors.New("bus: remote error")
)

// appendFrameHeader appends the length and kind of a frame whose payload is
// size bytes, first growing dst — once — to hold the whole frame, so the
// payload appended next does not reallocate: to the frame's exact size from
// nothing, by doubling when dst is a buffer that collects frames, which is
// then not copied per frame.
func appendFrameHeader(dst []byte, kind byte, size int) []byte {
	n := uint64(1 + size)
	if need := len(dst) + uvarintLen(n) + int(n); need > cap(dst) {
		dst = append(make([]byte, 0, max(need, 2*cap(dst))), dst...)
	}
	dst = binary.AppendUvarint(dst, n)
	return append(dst, kind)
}

// appendFrame appends one wire frame to dst.
func appendFrame(dst []byte, kind byte, payload []byte) []byte {
	return append(appendFrameHeader(dst, kind, len(payload)), payload...)
}

// appendEnvelopeFrame appends env to dst as one frame of the given kind: an
// envelope frame, or a fan-out frame carrying it to every name in to (a
// fan-out's envelope travels with an empty To; the receiving bus concretises
// it per recipient, as it does for a broadcast). The envelope's payload is
// encoded once, straight into dst behind the frame's length, which is
// written once the size is known. On error — a payload that does not encode
// — dst comes back as it was: there is no partial frame.
func appendEnvelopeFrame(dst []byte, kind byte, env message.Envelope, to []string) ([]byte, error) {
	if kind == frameFanOut {
		env.To = ""
	}
	return env.AppendFrame(dst, func(dst []byte, size int) []byte {
		if kind != frameFanOut {
			return appendFrameHeader(dst, kind, size)
		}
		size += uvarintLen(uint64(len(to)))
		for _, n := range to {
			size += message.LenPrefixedSize(len(n))
		}
		dst = appendFrameHeader(dst, kind, size)
		dst = binary.AppendUvarint(dst, uint64(len(to)))
		for _, n := range to {
			dst = message.AppendLenPrefixed(dst, n)
		}
		return dst
	})
}

// EncodeEnvelopeFrame appends env as one envelope frame to dst: varint
// length, kind byte, then the envelope's binary encoding, written in a
// single pass into a single allocation. An envelope whose payload does not
// encode appends nothing.
func EncodeEnvelopeFrame(dst []byte, env message.Envelope) []byte {
	dst, _ = appendEnvelopeFrame(dst, frameEnvelope, env, nil)
	return dst
}

// DecodeEnvelopeFrame parses one envelope frame produced by
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

// errBadFanOut reports a fan-out payload whose recipient list is malformed.
var errBadFanOut = errors.New("bus: malformed fan-out frame")

// decodeFanOut parses a fan-out frame's payload. Like UnmarshalBinary it
// retains nothing of payload: the recipients leave as substrings of one
// string. Every recipient is non-empty — an empty To means broadcast, which
// a fan-out never is.
func decodeFanOut(payload []byte) ([]string, message.Envelope, error) {
	count, used := binary.Uvarint(payload)
	// A recipient is at least two bytes, so a count the remaining bytes
	// cannot hold is refused before anything is sized by it.
	if used <= 0 || count > uint64(len(payload)-used)/2 {
		return nil, message.Envelope{}, fmt.Errorf("%w: recipient count", errBadFanOut)
	}
	rest := payload[used:]
	for i := uint64(0); i < count; i++ {
		name, after, err := message.ReadLenPrefixed(rest)
		if err != nil || len(name) == 0 {
			return nil, message.Envelope{}, fmt.Errorf("%w: recipient %d", errBadFanOut, i)
		}
		rest = after
	}
	env, err := message.UnmarshalBinary(rest)
	if err != nil {
		return nil, message.Envelope{}, err
	}
	list := payload[used : len(payload)-len(rest)]
	names := string(list)
	to := make([]string, count)
	for i := range to {
		name, after, _ := message.ReadLenPrefixed(list) // well-formed: the pass above read it
		hi := len(names) - len(after)
		to[i], list = names[hi-len(name):hi], after
	}
	return to, env, nil
}

// frameReader reads one connection's frames into one buffer.
type frameReader struct {
	r     *bufio.Reader
	limit int    // frames above limit bytes are refused
	buf   []byte // the last frame read; the next overwrites it
}

func newFrameReader(conn io.Reader, limit int) *frameReader {
	return &frameReader{r: bufio.NewReader(conn), limit: limit}
}

// next reads one frame and returns its kind, its payload and its size on the
// wire. The payload is the reader's buffer: it is valid until the next call,
// and whatever outlives that must be copied out of it.
func (fr *frameReader) next() (kind byte, payload []byte, n int, err error) {
	if cap(fr.buf) > retainedFrameBuf {
		fr.buf = nil // before the wait for the next frame, not after it
	}
	length, err := binary.ReadUvarint(fr.r)
	if err != nil {
		return 0, nil, 0, err
	}
	if length == 0 {
		return 0, nil, 0, fmt.Errorf("%w: empty frame", ErrBadHandshake)
	}
	if length > uint64(fr.limit) {
		return 0, nil, 0, fmt.Errorf("%w: %d bytes (limit %d)", ErrFrameTooLarge, length, fr.limit)
	}
	if uint64(cap(fr.buf)) < length {
		fr.buf = make([]byte, max(int(length), minFrameBuf))
	}
	buf := fr.buf[:length]
	if _, err := io.ReadFull(fr.r, buf); err != nil {
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
