package message

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
)

// Binary envelope codec: the form an envelope takes inside a frame of the
// TCP transport (internal/bus/wire.go), and the only envelope codec: an
// envelope crossing the network is written in a single pass into a buffer
// sized up front, and read back in one pass over the frame.
//
// Layout (all lengths are unsigned varints):
//
//	uvarint(len(From))    From bytes
//	uvarint(len(To))      To bytes
//	uvarint(len(Session)) Session bytes
//	uvarint(len(Kind))    Kind bytes
//	uvarint(len(Body))    Body bytes (the payload's JSON document, verbatim)
//	[uvarint(16) TraceID.be64 SpanID.be64]   optional trace context
//
// The Body stays JSON: payload schemas evolve faster than routing metadata,
// and the frame-level decoder reads inside it only for the four kinds whose
// grammar it knows, handing every other body on as bytes.
//
// Cost. An envelope NewEnvelope built has no Body: the codec encodes its
// carried payload once, in json.Marshal's bytes exactly — a bid, an award or a
// table by its schema encoder (schema.go), anything else by encoding/json's
// own encoder — into a scratch buffer kept between frames, and copies it into
// the frame behind the length it now knows. So encoding allocates nothing when
// the caller brings a buffer (AppendFrame, AppendBinary; the transport keeps
// one per connection), but where encoding/json writes a time.Time, whose
// MarshalJSON allocates. Decoding allocates what an envelope keeps — one
// string holding From, To, Session and Kind, and its payload — and reads the
// rest of its input in place, retaining none of it, so a transport reads every
// frame of a connection into one buffer. The four kinds of a negotiation are
// decoded where they lie: a bid or an award costs the payload's box, a session
// end or a table one more (the reason, the entries), and Decode nothing after
// it (schema.go). Any other body is copied out as the Body, which Decode
// parses.
//
// The trailing trace field is optional in both directions: an envelope
// without a trace context encodes as five fields, and the decoder accepts
// both the five-field and six-field layouts.

// ErrTruncated reports a binary envelope that ends mid-field.
var ErrTruncated = errors.New("message: truncated binary envelope")

// traceFieldLen is the payload size of the optional trace field: two
// big-endian 64-bit ids.
const traceFieldLen = 16

// retainedBodyBuf is the largest scratch buffer kept for the next payload: a
// negotiation's bodies are under a kilobyte and a tick's batches well under
// this, and a snapshot bootstrap's megabytes are not kept.
const retainedBodyBuf = 64 << 10

// bodyBuf is where a carried payload's JSON is written on its way into a
// frame or a Body: a buffer kept between uses, written by a schema encoder
// (schema.go) or by a json.Encoder.
type bodyBuf struct {
	enc *json.Encoder
	buf []byte
}

var bodyBufs = sync.Pool{New: func() any {
	b := new(bodyBuf)
	b.enc = json.NewEncoder(b)
	return b
}}

// Write implements io.Writer for the encoder.
func (b *bodyBuf) Write(p []byte) (int, error) {
	b.buf = append(b.buf, p...)
	return len(p), nil
}

// encode returns p's JSON as json.Marshal writes it, valid until b is put
// back: a schema encoder's, or encoding/json's.
func (b *bodyBuf) encode(p Payload) ([]byte, error) {
	buf, schema, err := appendSchemaJSON(b.buf[:0], p)
	b.buf = buf
	if !schema {
		err = b.enc.Encode(p)
		buf = b.buf[:max(len(b.buf)-1, 0)] // Encode ends the document with a newline
	}
	if err != nil {
		return nil, fmt.Errorf("message: encode %s body: %w", p.Kind(), err)
	}
	return buf, nil
}

func (b *bodyBuf) put() {
	if cap(b.buf) > retainedBodyBuf {
		b.buf = nil
	}
	bodyBufs.Put(b)
}

// sizeWith returns the envelope's encoded size with a body of n bytes.
func (e Envelope) sizeWith(n int) int {
	size := LenPrefixedSize(len(e.From)) +
		LenPrefixedSize(len(e.To)) +
		LenPrefixedSize(len(e.Session)) +
		LenPrefixedSize(len(e.Kind)) +
		LenPrefixedSize(n)
	if e.Traced() {
		size += LenPrefixedSize(traceFieldLen)
	}
	return size
}

// BinarySize returns the exact encoded size of the envelope in bytes, or 0
// for one whose payload does not encode. An envelope without a Body has its
// payload encoded to be measured: a caller about to write the envelope learns
// its size from AppendFrame instead, for one encode.
func (e Envelope) BinarySize() int {
	if !e.lazy() {
		return e.sizeWith(len(e.Body))
	}
	b := bodyBufs.Get().(*bodyBuf)
	defer b.put()
	body, err := b.encode(e.payload)
	if err != nil {
		return 0
	}
	return e.sizeWith(len(body))
}

// AppendFrame appends head(dst, size) to dst and then the envelope's binary
// encoding, size bytes: an envelope behind whatever a transport frames it
// with, told its size before it is written. The payload of an envelope
// without a Body is encoded once, here; head is where dst grows to hold the
// frame. On error — a payload json.Marshal refuses — dst comes back as it was
// and head is not called: there is no partial frame.
func (e Envelope) AppendFrame(dst []byte, head func(dst []byte, size int) []byte) ([]byte, error) {
	body := []byte(e.Body)
	if e.lazy() {
		b := bodyBufs.Get().(*bodyBuf)
		defer b.put()
		var err error
		if body, err = b.encode(e.payload); err != nil {
			return dst, err
		}
	}
	dst = head(dst, e.sizeWith(len(body)))
	dst = AppendLenPrefixed(dst, e.From)
	dst = AppendLenPrefixed(dst, e.To)
	dst = AppendLenPrefixed(dst, e.Session)
	dst = AppendLenPrefixed(dst, e.Kind)
	dst = AppendLenPrefixed(dst, body)
	if e.Traced() {
		dst = append(dst, traceFieldLen) // uvarint(16) is one byte
		dst = binary.BigEndian.AppendUint64(dst, e.TraceID)
		dst = binary.BigEndian.AppendUint64(dst, e.SpanID)
	}
	return dst, nil
}

// room grows dst, at most once, to take size more bytes.
func room(dst []byte, size int) []byte { return slices.Grow(dst, size) }

// AppendBinary appends the binary encoding of the envelope to dst and
// returns the extended slice. A dst with BinarySize spare bytes is not
// reallocated. An envelope whose payload does not encode appends nothing;
// AppendFrame and MarshalBinary say why.
func (e Envelope) AppendBinary(dst []byte) []byte {
	dst, _ = e.AppendFrame(dst, room)
	return dst
}

// MarshalBinary renders the envelope in the binary layout.
func (e Envelope) MarshalBinary() ([]byte, error) {
	return e.AppendFrame(nil, room)
}

// UnmarshalBinary parses a binary envelope: five or six well-formed fields
// consuming exactly data, or an error. The body of a bid, an award, a session
// end or a table is decoded here, where it lies, once: if it is in the schema
// grammar (schema.go) and its kind's Validate passes, the envelope comes back
// carrying that payload with no Body, as NewEnvelope builds one, and Decode
// and Validated cost nothing after it. Any other body — another kind, another
// spelling, a value Validate refuses — is copied into Body unread, and
// Envelope.Decode or Validated accept or refuse it exactly as they would have.
//
// The returned envelope retains nothing of data — a transport may overwrite
// its read buffer as soon as the call returns. The four header fields leave as
// substrings of one string; the body leaves as the payload it decoded to, or
// as one slice.
func UnmarshalBinary(data []byte) (Envelope, error) {
	// First pass: find the fields, copying nothing. The header is everything
	// before the Body's length prefix, length prefixes included.
	var at [4]struct{ lo, hi int } // each header field's bytes in data
	rest := data
	for i, field := range [...]string{"from", "to", "session", "kind"} {
		val, after, err := ReadLenPrefixed(rest)
		if err != nil {
			return Envelope{}, fmt.Errorf("%w: %s", err, field)
		}
		rest = after
		at[i].hi = len(data) - len(rest)
		at[i].lo = at[i].hi - len(val)
	}
	body, rest, err := ReadLenPrefixed(rest)
	if err != nil {
		return Envelope{}, fmt.Errorf("%w: body", err)
	}
	var e Envelope
	if len(rest) > 0 {
		// Optional sixth field: the trace context.
		var tc []byte
		if tc, rest, err = ReadLenPrefixed(rest); err != nil {
			return Envelope{}, fmt.Errorf("%w: trace", err)
		}
		if len(tc) != traceFieldLen {
			return Envelope{}, fmt.Errorf("message: trace field is %d bytes, want %d", len(tc), traceFieldLen)
		}
		e.TraceID = binary.BigEndian.Uint64(tc[:8])
		e.SpanID = binary.BigEndian.Uint64(tc[8:])
	}
	if len(rest) != 0 {
		return Envelope{}, fmt.Errorf("message: %d trailing bytes after binary envelope", len(rest))
	}

	header := string(data[:at[3].hi])
	e.From = header[at[0].lo:at[0].hi]
	e.To = header[at[1].lo:at[1].hi]
	e.Session = header[at[2].lo:at[2].hi]
	e.Kind = Kind(header[at[3].lo:at[3].hi])
	if p, ok := inPlace(e.Kind, body); ok {
		e.payload = p
	} else if len(body) > 0 {
		e.Body = make([]byte, len(body))
		copy(e.Body, body)
	}
	return e, nil
}

// AppendLenPrefixed appends one uvarint-length-prefixed byte string — the
// primitive the envelope codec above is built from, exported so other binary
// formats (the durability journal's record frames, the bus's fan-out frame)
// share the exact encoding.
func AppendLenPrefixed[T ~string | ~[]byte](dst []byte, val T) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(val)))
	return append(dst, val...)
}

// LenPrefixedSize returns the encoded size of a length-prefixed byte string
// of n bytes.
func LenPrefixedSize(n int) int {
	var tmp [binary.MaxVarintLen64]byte
	return binary.PutUvarint(tmp[:], uint64(n)) + n
}

// ReadLenPrefixed consumes one uvarint-length-prefixed byte string and
// returns it alongside the remaining data. The returned value aliases data.
func ReadLenPrefixed(data []byte) (val, rest []byte, err error) {
	n, used := binary.Uvarint(data)
	if used <= 0 {
		return nil, nil, ErrTruncated
	}
	data = data[used:]
	if uint64(len(data)) < n {
		return nil, nil, ErrTruncated
	}
	return data[:n], data[n:], nil
}
