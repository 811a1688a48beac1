package message

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// binEnv builds a validated envelope for codec tests.
func binEnv(t *testing.T, p Payload) Envelope {
	t.Helper()
	e, err := NewEnvelope("ua", "c1", "s1", p)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// wireJSON is the Body a wire carries for e: its own, or for an envelope
// NewEnvelope built, its payload's JSON.
func wireJSON(t testing.TB, e Envelope) []byte {
	t.Helper()
	e, err := e.WithBody()
	if err != nil {
		t.Fatal(err)
	}
	return e.Body
}

// binWindow is a valid test window.
func binWindow() Window {
	start := time.Date(2026, 7, 29, 18, 0, 0, 0, time.UTC)
	return Window{Start: start, End: start.Add(2 * time.Hour)}
}

func TestBinaryRoundTripAllKinds(t *testing.T) {
	payloads := []Payload{
		OfferTerms{Window: binWindow(), XMax: 0.8, AllowanceKWh: 13.5, LowPrice: 1, NormalPrice: 2, HighPrice: 3},
		BidRequest{Window: binWindow(), Round: 1, LowPrice: 1, NormalPrice: 2, HighPrice: 3},
		RewardTable{Window: binWindow(), Round: 2, Entries: []RewardEntry{{0, 0}, {0.1, 4.25}, {0.2, 8.5}}},
		CutDownBid{Round: 2, CutDown: 0.2},
		Award{Round: 3, CutDown: 0.2, Reward: 8.5},
		SessionEnd{Round: 3, Reason: "converged"},
	}
	for _, p := range payloads {
		e := binEnv(t, p)
		data, err := e.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != e.BinarySize() {
			t.Fatalf("%s: encoded %d bytes, BinarySize says %d", p.Kind(), len(data), e.BinarySize())
		}
		got, err := UnmarshalBinary(data)
		if err != nil {
			t.Fatalf("%s: %v", p.Kind(), err)
		}
		if got.From != e.From || got.To != e.To || got.Session != e.Session || got.Kind != e.Kind {
			t.Fatalf("%s: metadata mismatch: %+v vs %+v", p.Kind(), got, e)
		}
		decoded, err := got.Decode()
		if err != nil {
			t.Fatalf("%s: decode after round trip: %v", p.Kind(), err)
		}
		if reflect.TypeOf(decoded) != reflect.TypeOf(p) || !sameValue(reflect.ValueOf(decoded), reflect.ValueOf(p)) {
			t.Fatalf("%s: decodes to %#v after a round trip, want %#v", p.Kind(), decoded, p)
		}
		// A negotiation's kinds are decoded in the frame and leave it with no
		// Body; any other kind arrives with its Body, for Decode to parse.
		if schemaKind(p.Kind()) {
			if got.Body != nil {
				t.Fatalf("%s: decoded in place, yet copied out the Body %q", p.Kind(), got.Body)
			}
		} else if !bytes.Equal(got.Body, wireJSON(t, e)) {
			t.Fatalf("%s: arrives with the Body %q, want %q", p.Kind(), got.Body, wireJSON(t, e))
		}
	}
}

func TestBinaryRoundTripEmptyFields(t *testing.T) {
	// Broadcast envelopes carry an empty To; the codec must preserve it.
	e, err := NewEnvelope("ua", "", "s1", SessionEnd{Round: 1, Reason: "done"})
	if err != nil {
		t.Fatal(err)
	}
	data, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.To != "" {
		t.Fatalf("To = %q, want empty", got.To)
	}
}

func TestBinaryTruncation(t *testing.T) {
	e := binEnv(t, CutDownBid{Round: 1, CutDown: 0.2})
	data, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(data); cut++ {
		if _, err := UnmarshalBinary(data[:cut]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: error = %v, want ErrTruncated", cut, err)
		}
	}
}

func TestBinaryTrailingBytes(t *testing.T) {
	e := binEnv(t, CutDownBid{Round: 1, CutDown: 0.2})
	data, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalBinary(append(data, 0x00)); err == nil {
		t.Fatal("trailing bytes must be rejected")
	}
}

func TestBinaryAppendUsesPrefix(t *testing.T) {
	e := binEnv(t, CutDownBid{Round: 1, CutDown: 0.2})
	prefix := []byte("hdr")
	out := e.AppendBinary(prefix)
	if !bytes.HasPrefix(out, prefix) {
		t.Fatal("AppendBinary must extend the given slice")
	}
	got, err := UnmarshalBinary(out[len(prefix):])
	if err != nil {
		t.Fatal(err)
	}
	if got.Session != "s1" {
		t.Fatalf("session = %q", got.Session)
	}
}

// TestBinaryPayloadThatDoesNotEncode: should a carried payload not encode
// after all — one Validate never saw — the codec says so and writes nothing,
// so a transport has no partial frame to take back.
func TestBinaryPayloadThatDoesNotEncode(t *testing.T) {
	bad := Envelope{From: "ua", To: "c1", Session: "s1", Kind: KindAward, payload: Award{Round: 1, Reward: math.Inf(1)}}
	head := false
	dst, err := bad.AppendFrame([]byte("hdr"), func(dst []byte, size int) []byte { head = true; return dst })
	if err == nil || string(dst) != "hdr" || head {
		t.Fatalf("AppendFrame = %q, %v (header written: %v); want the buffer as it was and an error", dst, err, head)
	}
	if got := bad.AppendBinary([]byte("hdr")); string(got) != "hdr" {
		t.Fatalf("AppendBinary appended %q", got[3:])
	}
	if _, err := bad.MarshalBinary(); err == nil {
		t.Fatal("MarshalBinary of a payload that does not encode succeeded")
	}
	if n := bad.BinarySize(); n != 0 {
		t.Fatalf("BinarySize = %d, want 0: nothing is written", n)
	}
}

// TestBinaryPinnedBytes holds the encoding of a bid and a table to the bytes
// captured before the codec was rewritten (PR 15): targeted envelopes are on
// the wire what they were, whatever the encoder and decoder do inside.
func TestBinaryPinnedBytes(t *testing.T) {
	bid, err := NewEnvelope("c1", "ua", "s1", CutDownBid{Round: 2, CutDown: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	table := binEnv(t, RewardTable{Window: binWindow(), Round: 2, Entries: []RewardEntry{{0, 0}, {0.1, 4.25}, {0.2, 8.5}}})
	traced := table
	traced.TraceID, traced.SpanID = 0xdeadbeefcafe0001, 0x1122334455667788
	const tableHex = "0275610263310273310c7265776172645f7461626c65b2017b2277696e646f77223a7b227374617274223a22323032362d30372d32395431383a30303a30305a222c22656e64223a22323032362d30372d32395432303a30303a30305a227d2c22726f756e64223a322c22656e7472696573223a5b7b22637574446f776e223a302c22726577617264223a307d2c7b22637574446f776e223a302e312c22726577617264223a342e32357d2c7b22637574446f776e223a302e322c22726577617264223a382e357d5d7d"
	for _, c := range []struct {
		name string
		env  Envelope
		want string
	}{
		{"bid", bid, "0263310275610273310b637574646f776e5f626964197b22726f756e64223a322c22637574446f776e223a302e327d"},
		{"table", table, tableHex},
		{"traced table", traced, tableHex + "10deadbeefcafe00011122334455667788"},
	} {
		want, err := hex.DecodeString(c.want)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.env.AppendBinary(nil); !bytes.Equal(got, want) {
			t.Errorf("%s encodes as\n%x, pinned\n%x", c.name, got, want)
		}
		got, err := UnmarshalBinary(want)
		if err != nil {
			t.Fatalf("%s: pinned bytes do not decode: %v", c.name, err)
		}
		sameEnvelope(t, c.name, got, c.env)
	}
}

// sameEnvelope compares what the codecs carry: routing, body bytes, trace.
func sameEnvelope(t *testing.T, name string, got, want Envelope) {
	t.Helper()
	if got.From != want.From || got.To != want.To || got.Session != want.Session || got.Kind != want.Kind ||
		!bytes.Equal(wireJSON(t, got), wireJSON(t, want)) || got.TraceID != want.TraceID || got.SpanID != want.SpanID {
		t.Fatalf("%s: envelope %+v, want %+v", name, got, want)
	}
}

// FuzzUnmarshalBinary: the decoder never panics; what it accepts re-encodes
// to BinarySize bytes that decode to the same envelope; and the result keeps
// nothing of the input, so a transport may reuse its read buffer.
func FuzzUnmarshalBinary(f *testing.F) {
	for _, p := range onePerKind() {
		e, err := NewEnvelope("ua", "c1", "s1", p)
		if err != nil {
			f.Fatalf("%s: %v", p.Kind(), err)
		}
		f.Add(e.AppendBinary(nil))
		e.To, e.TraceID, e.SpanID = "", 1, 2
		f.Add(e.AppendBinary(nil))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := UnmarshalBinary(data)
		if err != nil {
			return
		}
		kept := env
		kept.From, kept.To = strings.Clone(env.From), strings.Clone(env.To)
		kept.Session, kept.Kind = strings.Clone(env.Session), Kind(strings.Clone(string(env.Kind)))
		kept.Body = bytes.Clone(env.Body)
		for i := range data {
			data[i] ^= 0xff
		}
		sameEnvelope(t, "after the input was overwritten", env, kept)

		again := env.AppendBinary(nil)
		if len(again) != env.BinarySize() {
			t.Fatalf("re-encoded to %d bytes, BinarySize says %d", len(again), env.BinarySize())
		}
		back, err := UnmarshalBinary(again)
		if err != nil {
			t.Fatalf("re-encoded bytes do not decode: %v", err)
		}
		if !env.Traced() {
			env.SpanID = 0 // a span id without a trace id is no context and is not re-encoded
		}
		sameEnvelope(t, "round trip", back, env)
	})
}

// TestUnmarshalBinaryAllocs pins what reading a frame costs: the header
// string, and for a negotiation's kinds the payload decoded in the frame —
// its box, and a session end's reason or a table's entries — after which
// Decode and Validated cost nothing; any other kind, its Body.
func TestUnmarshalBinaryAllocs(t *testing.T) {
	for _, c := range []struct {
		p    Payload
		want float64
	}{
		{CutDownBid{Round: 1, CutDown: 0.050000000000000044}, 2},                                     // header, box
		{Award{Round: 2, CutDown: 0.16875000000000007, Reward: 9.123867891540531}, 2},                // header, box
		{SessionEnd{Round: 2, Reason: "converged"}, 3},                                               // header, box, reason
		{RewardTable{Window: binWindow(), Round: 2, Entries: []RewardEntry{{0, 0}, {0.1, 4.25}}}, 3}, // header, box, entries
		{ReplBatch{FirstSeq: 43, Count: 1, Frames: []byte{0x04, 0x03, 0xAA}}, 2},                     // header, Body
		{ReplAck{Replica: "r0", AppliedSeq: 43}, 2},                                                  // header, Body
		{ReplHeartbeat{LastSeq: 43}, 2},                                                              // header, Body
		{BidRequest{Window: binWindow(), Round: 1, LowPrice: 1, NormalPrice: 2, HighPrice: 3}, 2},    // header, Body
	} {
		frame := binEnv(t, c.p).AppendBinary(nil)
		if got := testing.AllocsPerRun(100, func() { _, _ = UnmarshalBinary(frame) }); got != c.want {
			t.Errorf("UnmarshalBinary of a %s frame allocates %v times, want %v", c.p.Kind(), got, c.want)
		}
		if !schemaKind(c.p.Kind()) {
			continue
		}
		wire, err := UnmarshalBinary(frame)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = wire.Decode() }); n != 0 {
			t.Errorf("Decode of a %s off the wire allocates %v times, want 0", c.p.Kind(), n)
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = wire.Validated() }); n != 0 {
			t.Errorf("Validated of a %s off the wire allocates %v times, want 0", c.p.Kind(), n)
		}
	}
}
