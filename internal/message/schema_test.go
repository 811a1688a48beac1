package message

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// schemaKinds pairs each schema decoder with the encoding/json decoder it
// replaced in the decoders table, which is also its fallback.
var schemaKinds = []struct {
	kind      Kind
	reference func([]byte) (Payload, error)
}{
	{KindCutDownBid, decodeAs[CutDownBid]},
	{KindAward, decodeAs[Award]},
	{KindSessionEnd, decodeAs[SessionEnd]},
	{KindRewardTable, decodeAs[RewardTable]},
}

// schemaKind reports whether k is one of the kinds UnmarshalBinary decodes
// in place.
func schemaKind(k Kind) bool {
	for _, sk := range schemaKinds {
		if sk.kind == k {
			return true
		}
	}
	return false
}

// Bodies as a session wrote them (cluster.RunDistributed, N = 256 over 16
// shards, read off the member server's trust boundary).
var sessionBodies = []string{
	`{"round":1,"cutDown":0}`,
	`{"round":1,"cutDown":0.2}`,
	`{"round":1,"cutDown":0.050000000000000044}`,
	`{"round":2,"cutDown":0.19999999999999984}`,
	`{"round":2,"cutDown":0,"reward":0}`,
	`{"round":2,"cutDown":0.16875000000000007,"reward":9.123867891540531}`,
	`{"round":2,"cutDown":0.2,"reward":10.813473056640625}`,
	`{"round":2,"reason":"converged"}`,
	`{"round":3,"reason":"reward ceiling reached"}`,
	`{"window":{"start":"1998-01-20T17:00:00Z","end":"1998-01-20T19:00:00Z"},"round":1,"entries":[{"cutDown":0,"reward":0},{"cutDown":0.1,"reward":4.25},{"cutDown":0.2,"reward":8.5},{"cutDown":0.7,"reward":29.749999999999996},{"cutDown":0.9,"reward":38.25}]}`,
	`{"window":{"start":"1998-01-20T17:00:00Z","end":"1998-01-20T19:00:00Z"},"round":2,"entries":[{"cutDown":0,"reward":0},{"cutDown":0.1,"reward":5.3656887499999995},{"cutDown":0.9,"reward":48.29119875}]}`,
}

// Bodies at the edge of the schema decoders' grammar, on either side of it.
var edgeBodies = []string{
	`{"round":1,"cutDown":-0}`,                   // negative zero: the bits differ from 0
	`{"round":-0,"cutDown":0.1}`,                 // -0 in an int field
	`{"round":1,"cutDown":1e400}`,                // strconv: out of range
	`{"round":1,"cutDown":1e-400}`,               // underflows to 0
	`{"round":01,"cutDown":0.1}`,                 // not a JSON number
	`{"round":1.0,"cutDown":0.1}`,                // a fraction in an int field
	`{"round":1e0,"cutDown":0.1}`,                // an exponent in an int field
	`{"round":1,"cutDown":0.1,"round":2}`,        // duplicate key: the last wins
	`{"Round":1,"cutDown":0.1}`,                  // encoding/json folds case
	`{"round":1,"cutdown":0.1}`,                  //
	`{"round":1,"cutDown":0.1,"reward":3}`,       // a key the bid does not have
	`{"cutDown":0.1}`,                            // missing key
	`{"cutDown":0.1,"round":1}`,                  // another order
	`{}`,                                         //
	`{"round":1,"cutDown":0.1,}`,                 // trailing comma
	` {"round":1,"cutDown":0.1}`,                 // leading whitespace
	`{"round":1,"cutDown":0.1} `,                 // trailing whitespace
	`{"round": 1,"cutDown":0.1}`,                 // inner whitespace
	`{"round":12345678901234567890,"cutDown":0}`, // a 20-digit round
	`{"round":9223372036854775807,"cutDown":0}`,  //
	`{"round":null,"cutDown":0.1}`,               //
	`{"round":"1","cutDown":0.1}`,                // a string where a number goes
	`{"round":1,"cutDown":+0.1}`,                 // strconv would take these five
	`{"round":1,"cutDown":.1}`,                   //
	`{"round":1,"cutDown":1.}`,                   //
	`{"round":1,"cutDown":0x1p-2}`,               //
	`{"round":1,"cutDown":Inf}`,                  //
	`{"round":1,"cutDown":1E-1}`,                 //
	`{"round":1,"cutDown":1.5}`,                  // Validate refuses it
	`{"round":1,"cutDown":0.1}{}`,                // two documents
	`{"round":1,"cutDown":0.1`,                   // truncated
	`{"round":1,"reason":"a\"b"}`,                // escapes
	`{"round":1,"reason":"a\u0062"}`,             //
	`{"round":1,"reason":"a\\b"}`,                //
	"{\"round\":1,\"reason\":\"a\tb\"}",          // a raw control character
	"{\"round\":1,\"reason\":\"a\xffb\"}",        // invalid UTF-8: encoding/json repairs it
	`{"round":1,"reason":"größer, {teurer}]"}`,   // delimiters inside a string
	`{"round":1,"reason":""}`,                    //
	`{"round":1,"reason":"x"y}`,                  //
	`{"round":1,"reason":7}`,                     //
	`{"round":0,"reason":"aborted"}`,             //
	`{"window":{"start":"1998-01-20T17:00:00+02:00","end":"1998-01-20T19:00:00.5+02:00"},"round":1,"entries":[{"reward":1,"cutDown":0.5}]}`,
	`{"window":{"start":"1998-01-20T17:00:00Z","end":"1998-01-20 19:00:00Z"},"round":1,"entries":[{"cutDown":0,"reward":0}]}`,
	`{"window":{"start":"1998-01-20T17:00:00Z","end":null},"round":1,"entries":[{"cutDown":0,"reward":0}]}`,
	`{"window":{"start":"1998-01-20T17:00:00Z","end":"1998-01-20T19:00:00Z"],"round":1,"entries":[{"cutDown":0,"reward":0}]}`,
	`{"window":{"start":"1998-01-20T17:00:00Z","end":"1998-01-20T19:00:00Z"},"round":1,"entries":[]}`,
	`{"window":{"start":"1998-01-20T17:00:00Z","end":"1998-01-20T19:00:00Z"},"round":1,"entries":null}`,
	`{"window":{"start":"1998-01-20T17:00:00Z","end":"1998-01-20T19:00:00Z"},"round":1,"entries":[{}]}`,
	`{"window":{"start":"1998-01-20T17:00:00Z","end":"1998-01-20T19:00:00Z"},"round":1,"entries":[{"cutDown":0,"reward":0},]}`,
	`{"window":{"start":"1998-01-20T17:00:00Z","end":"1998-01-20T19:00:00Z"},"round":1,"entries":[{"cutDown":0,"reward":0}}`,
	`{"window":{"start":"1998-01-20T17:00:00Z","end":"1998-01-20T19:00:00Z"},"round":1,"entries":[[{"cutDown":0,"reward":0}]]}`,
	`{"window":{"start":"1998-01-20T17:00:00Z","end":"1998-01-20T19:00:00Z"},"round":1,"entries":[{"cutDown":0.2,"reward":1},{"cutDown":0.1,"reward":2}]}`,
	`{"window":{},"round":1,"entries":[{"cutDown":0,"reward":0}]}`,
	`{"window":[],"round":1,"entries":{}}`,
}

// bits renders a payload of the schema kinds with every float as its bit
// pattern and every time as its instant and its zone, so that two payloads
// print alike only when they are the same value to the last bit.
func bits(p Payload) string {
	f := math.Float64bits
	switch v := p.(type) {
	case nil:
		return "<nil>"
	case CutDownBid:
		return fmt.Sprintf("bid %d %x", v.Round, f(v.CutDown))
	case Award:
		return fmt.Sprintf("award %d %x %x", v.Round, f(v.CutDown), f(v.Reward))
	case SessionEnd:
		return fmt.Sprintf("end %d %q", v.Round, v.Reason)
	case RewardTable:
		var b strings.Builder
		fmt.Fprintf(&b, "table %d %d/%s %d/%s nil=%v", v.Round,
			v.Window.Start.UnixNano(), v.Window.Start.Format(time.RFC3339Nano),
			v.Window.End.UnixNano(), v.Window.End.Format(time.RFC3339Nano), v.Entries == nil)
		for _, e := range v.Entries {
			fmt.Fprintf(&b, " %x:%x", f(e.CutDown), f(e.Reward))
		}
		return b.String()
	}
	return fmt.Sprintf("unexpected %T", p)
}

// FuzzFlatPayloadDecode is the differential proof behind schema.go: for every
// schema kind and every body, the decoders entry and encoding/json agree on
// whether the body is a payload, on the error when it is not, and on the value
// bit for bit when it is.
func FuzzFlatPayloadDecode(f *testing.F) {
	for _, body := range append(append([]string{}, sessionBodies...), edgeBodies...) {
		for k := range schemaKinds {
			f.Add(uint8(k), []byte(body))
		}
	}
	f.Fuzz(func(t *testing.T, k uint8, body []byte) {
		sk := schemaKinds[int(k)%len(schemaKinds)]
		got, gotErr := decoders[sk.kind](body)
		want, wantErr := sk.reference(body)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s %q: schema decoder says %v, encoding/json %v", sk.kind, body, gotErr, wantErr)
		}
		if bits(got) != bits(want) {
			t.Fatalf("%s %q: schema decoder reads %s, encoding/json %s", sk.kind, body, bits(got), bits(want))
		}
	})
}

// TestSchemaDecodersTakeSessionBodies holds the other half: the bodies a
// session writes are inside the grammar, so the fast path is the one that
// runs. A schema decoder that fell back on them would pass the fuzz and cost
// what encoding/json costs.
func TestSchemaDecodersTakeSessionBodies(t *testing.T) {
	for _, p := range []Payload{
		CutDownBid{Round: 1, CutDown: 0.050000000000000044},
		Award{Round: 2, CutDown: 0.16875000000000007, Reward: 9.123867891540531},
	} {
		env, err := NewEnvelope("c001", "cc-000", "s1", p)
		if err != nil {
			t.Fatal(err)
		}
		wire, err := UnmarshalBinary(env.AppendBinary(nil))
		if err != nil {
			t.Fatal(err)
		}
		if got, err := wire.Decode(); err != nil || got != p {
			t.Fatalf("%s off the wire decodes to %#v, %v", p.Kind(), got, err)
		}
		// Decoded in the frame, the payload costs Decode nothing; a body
		// the parser fell back on would cost encoding/json's 6 here.
		if n := testing.AllocsPerRun(100, func() { _, _ = wire.Decode() }); n > 1 {
			t.Errorf("a wire-decoded %s costs %v allocations to Decode, want at most 1", p.Kind(), n)
		}
	}

	end := []byte(`{"round":2,"reason":"converged"}`)
	if n := testing.AllocsPerRun(100, func() { _, _ = decoders[KindSessionEnd](end) }); n > 2 {
		t.Errorf("a session end costs %v allocations to decode, want at most 2 (the reason and the box)", n)
	}
	table := []byte(sessionBodies[len(sessionBodies)-2])
	if n := testing.AllocsPerRun(100, func() { _, _ = decoders[KindRewardTable](table) }); n > 2 {
		t.Errorf("a reward table costs %v allocations to decode, want at most 2 (the entries and the box)", n)
	}
}

// FuzzWireDecode holds the decode UnmarshalBinary runs in the frame to the
// decoders entry a Body goes through: for every schema kind and every body,
// the envelope read off a frame and its Decode accept and refuse what the
// decoders entry does, with the same error and the same value bit for bit,
// keep none of the frame's bytes, and re-encode (AppendBinary, as a relay
// writes them) to a frame that reads back as the same payload.
//
//	go test -run '^$' -fuzz FuzzWireDecode -fuzztime 10s -fuzzminimizetime 20x ./internal/message
func FuzzWireDecode(f *testing.F) {
	for _, body := range append(append([]string{}, sessionBodies...), edgeBodies...) {
		for k := range schemaKinds {
			f.Add(uint8(k), []byte(body))
		}
	}
	f.Fuzz(func(t *testing.T, k uint8, body []byte) {
		sk := schemaKinds[int(k)%len(schemaKinds)]
		frame := Envelope{From: "c1", To: "cc", Session: "s1", Kind: sk.kind, Body: body}.AppendBinary(nil)
		env, err := UnmarshalBinary(frame)
		if err != nil {
			t.Fatalf("%s %q: the frame does not decode: %v", sk.kind, body, err)
		}
		for i := range frame {
			frame[i] ^= 0xff // nothing decoded may still read the frame
		}
		got, gotErr := env.Decode()
		want, wantErr := decoders[sk.kind](body)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%s %q: off the wire %v, from the body %v", sk.kind, body, gotErr, wantErr)
		}
		if bits(got) != bits(want) {
			t.Fatalf("%s %q: off the wire %s, from the body %s", sk.kind, body, bits(got), bits(want))
		}
		if gotErr != nil {
			return
		}
		checked, err := env.Validated()
		if err != nil {
			t.Fatalf("%s %q: Decode accepts what Validated refuses: %v", sk.kind, body, err)
		}
		back, err := UnmarshalBinary(checked.AppendBinary(nil))
		if err != nil {
			t.Fatalf("%s %q: the re-encoded frame does not decode: %v", sk.kind, body, err)
		}
		again, err := back.Decode()
		if err != nil || bits(again) != bits(got) {
			t.Fatalf("%s %q: re-encoded, reads back as %s, %v; want %s", sk.kind, body, bits(again), err, bits(got))
		}
	})
}
