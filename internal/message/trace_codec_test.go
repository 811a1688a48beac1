package message

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

// legacyUnmarshalBinary is the original five-field decoder — exactly five
// length-prefixed fields, anything after them an error — so the tests below
// prove the compatibility claims against that behaviour instead of a
// re-derivation.
func legacyUnmarshalBinary(data []byte) (Envelope, error) {
	var fields [5][]byte
	for i := range fields {
		var err error
		if fields[i], data, err = ReadLenPrefixed(data); err != nil {
			return Envelope{}, err
		}
	}
	if len(data) != 0 {
		return Envelope{}, errors.New("trailing bytes")
	}
	e := Envelope{From: string(fields[0]), To: string(fields[1]), Session: string(fields[2]), Kind: Kind(fields[3])}
	if len(fields[4]) > 0 {
		e.Body = append([]byte(nil), fields[4]...)
	}
	return e, nil
}

func TestBinaryTraceRoundTrip(t *testing.T) {
	e := binEnv(t, CutDownBid{Round: 2, CutDown: 0.2})
	e.TraceID = 0xdeadbeefcafe0001
	e.SpanID = 0x1122334455667788

	data, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != e.BinarySize() {
		t.Fatalf("encoded %d bytes, BinarySize says %d", len(data), e.BinarySize())
	}
	got, err := UnmarshalBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.TraceID != e.TraceID || got.SpanID != e.SpanID {
		t.Fatalf("trace context lost: got %x/%x", got.TraceID, got.SpanID)
	}
	if p, err := got.Decode(); got.From != e.From || got.Session != e.Session || err != nil || p != (CutDownBid{Round: 2, CutDown: 0.2}) {
		t.Fatalf("envelope fields corrupted by trace field: %+v decodes to %#v, %v", got, p, err)
	}
}

func TestBinaryUntracedEnvelopeIsByteIdenticalToLegacy(t *testing.T) {
	// An envelope without trace context must encode exactly as the
	// five-field v2 layout — the legacy decoder accepts it bit-for-bit.
	e := binEnv(t, Award{Round: 3, CutDown: 0.2, Reward: 8.5})
	data, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := legacyUnmarshalBinary(data)
	if err != nil {
		t.Fatalf("legacy decoder rejected untraced envelope: %v", err)
	}
	if got.From != e.From || got.Kind != e.Kind || !bytes.Equal(got.Body, wireJSON(t, e)) {
		t.Fatal("legacy decode mismatch")
	}
}

func TestBinaryNewDecoderAcceptsLegacyEncoding(t *testing.T) {
	// Frames produced by old peers (five fields) must decode with a zero
	// trace context.
	e := binEnv(t, SessionEnd{Round: 1, Reason: "done"})
	data, err := e.MarshalBinary() // untraced ⇒ legacy layout
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Traced() || got.SpanID != 0 {
		t.Fatalf("legacy frame decoded with trace context %x/%x", got.TraceID, got.SpanID)
	}
}

func TestBinaryTracedFrameDegradesCleanlyOnLegacyPeer(t *testing.T) {
	// An old peer sees a traced frame as malformed and drops it — the
	// documented (and counted) degradation, never a crash or a corrupted
	// envelope.
	e := binEnv(t, CutDownBid{Round: 1, CutDown: 0.1})
	e.TraceID, e.SpanID = 7, 9
	data, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := legacyUnmarshalBinary(data); err == nil {
		t.Fatal("legacy decoder silently accepted a traced frame")
	}
}

func TestBinaryTraceFieldTruncation(t *testing.T) {
	e := binEnv(t, CutDownBid{Round: 1, CutDown: 0.1})
	e.TraceID, e.SpanID = 42, 43
	data, err := e.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// A cut exactly at the five-field boundary is a valid legacy frame;
	// any cut inside the trace field must error, not decode a half id.
	if _, err := UnmarshalBinary(data[:len(data)-traceFieldLen-1]); err != nil {
		t.Fatalf("five-field boundary cut should decode as legacy: %v", err)
	}
	for cut := len(data) - traceFieldLen; cut < len(data); cut++ {
		if _, err := UnmarshalBinary(data[:cut]); err == nil {
			t.Fatalf("cut at %d silently accepted", cut)
		}
	}
	// A six-field frame with a wrong-size trace field is malformed.
	bad := e
	bad.TraceID, bad.SpanID = 0, 0
	raw, _ := bad.MarshalBinary()
	raw = append(raw, 3, 1, 2, 3) // 3-byte sixth field
	if _, err := UnmarshalBinary(raw); err == nil {
		t.Fatal("wrong-size trace field accepted")
	}
}

func TestJSONTraceFieldsOmittedWhenUntraced(t *testing.T) {
	e := binEnv(t, SessionEnd{Round: 1, Reason: "done"})
	raw, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte("traceId")) || bytes.Contains(raw, []byte("spanId")) {
		t.Fatalf("untraced JSON envelope leaks trace fields: %s", raw)
	}

	e.TraceID, e.SpanID = 11, 12
	raw, err = json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var got Envelope
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.TraceID != 11 || got.SpanID != 12 {
		t.Fatalf("JSON trace round trip lost context: %+v", got)
	}
}
