package message

import (
	"bytes"
	"encoding/json"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// onePerKind is one valid payload of every kind, chosen where the carried
// value and its JSON round trip can differ in representation: a time with a
// monotonic reading, a time outside UTC, nil beside empty slices and maps,
// raw JSON that Marshal re-spaces.
func onePerKind() []Payload {
	start := time.Now()                                                 // monotonic reading, Local
	end := start.Add(2 * time.Hour).In(time.FixedZone("CEST", 2*60*60)) // wall clock only, +02:00
	w := Window{Start: start, End: end}
	return []Payload{
		OfferTerms{Window: w, XMax: 0.8, AllowanceKWh: 13.5, LowPrice: 1, NormalPrice: 2, HighPrice: 3},
		BidRequest{Window: w, Round: 1, LowPrice: 1, NormalPrice: 2, HighPrice: 3},
		RewardTable{Window: w, Round: 2, Entries: []RewardEntry{{0, 0}, {0.1, 4.25}, {0.2, 8.5}}},
		OfferReply{Round: 1, Accept: true},
		EnergyBid{Round: 2, YMinKWh: 11.25},
		CutDownBid{Round: 2, CutDown: 0.2},
		Award{Round: 3, CutDown: 0.2, Reward: 8.5},
		InfoRequest{Topic: "capacity", Window: w},
		InfoReply{Topic: "capacity", Values: nil},
		SessionEnd{Round: 3, Reason: "converged"},
		MeterBatch{Tick: 7, Readings: []MeterReading{{Customer: "c01", Tick: 7, KWh: 0.25}, {Customer: "c02", Tick: 7}}},
		ReplSubscribe{Replica: "r1", FromSeq: 41},
		ReplBatch{FirstSeq: 42, Count: 2, Frames: []byte{1, 0, 0xff, 2}},
		ReplAck{Replica: "r1", AppliedSeq: 43},
		ReplSnapshot{Seq: 40, Blob: []byte("state")},
		ReplHeartbeat{LastSeq: 43},
		ObsSubscribe{Proc: "gridd-cc-003", Role: "worker", MinLevel: "info"},
		ObsBatch{
			Seq:     5,
			Metrics: []ObsMetricSample{}, // empty, not nil: omitted on the wire
			Logs: []ObsLogEvent{{
				TsUs: 1, Level: "warn", Component: "bus", Msg: "inbox full",
				Fields: json.RawMessage(`{ "agent": "c01",  "depth": 64 }`),
			}},
			Spans:      []ObsSpan{{Trace: "0a", Span: "0b", Name: "round", StartUs: 10, DurUs: 3}},
			MissedLogs: 2,
		},
		ObsAck{Seq: 5},
	}
}

// sameValue compares two payload values the way the protocol reads them:
// times by instant, nil and empty slices or maps alike, raw JSON by content.
func sameValue(a, b reflect.Value) bool {
	switch v := a.Interface().(type) {
	case time.Time:
		return v.Equal(b.Interface().(time.Time))
	case json.RawMessage:
		var ca, cb bytes.Buffer
		return json.Compact(&ca, v) == nil && json.Compact(&cb, b.Interface().(json.RawMessage)) == nil &&
			bytes.Equal(ca.Bytes(), cb.Bytes())
	}
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.Len() != b.Len() {
			return false
		}
		for _, k := range a.MapKeys() {
			if bv := b.MapIndex(k); !bv.IsValid() || !sameValue(a.MapIndex(k), bv) {
				return false
			}
		}
		return true
	default:
		return a.Interface() == b.Interface()
	}
}

// TestCarriedPayloadEqualsParsed: what Decode hands an in-process receiver
// (the carried value) and what it hands a receiver across a wire (the payload
// decoded in the frame, or the Body parsed) are the same payload, for every
// kind; and every kind is carried without a Body, whose JSON the codec writes
// as json.Marshal would.
func TestCarriedPayloadEqualsParsed(t *testing.T) {
	payloads := onePerKind()
	if len(payloads) != len(decoders) {
		t.Fatalf("%d sample payloads for %d kinds", len(payloads), len(decoders))
	}
	for _, p := range payloads {
		env, err := NewEnvelope("ua", "c1", "s1", p)
		if err != nil {
			t.Fatalf("%s: %v", p.Kind(), err)
		}
		if env.Body != nil {
			t.Fatalf("%s: NewEnvelope marshalled the payload; it must carry it with no Body", p.Kind())
		}
		marshalled, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		eager := env
		eager.Body = marshalled
		if lazy, want := env.AppendBinary(nil), eager.AppendBinary(nil); !bytes.Equal(lazy, want) {
			t.Fatalf("%s: encodes as\n%x, with json.Marshal's Body\n%x", p.Kind(), lazy, want)
		}
		if env.BinarySize() != eager.BinarySize() {
			t.Fatalf("%s: BinarySize %d, with json.Marshal's Body %d", p.Kind(), env.BinarySize(), eager.BinarySize())
		}
		carried, err := env.Decode()
		if err != nil {
			t.Fatalf("%s: decode carried: %v", p.Kind(), err)
		}
		wire, err := UnmarshalBinary(env.AppendBinary(nil))
		if err != nil {
			t.Fatalf("%s: %v", p.Kind(), err)
		}
		// A negotiation's kinds come off the wire as NewEnvelope builds them,
		// carrying the payload decoded in the frame; the others keep the Body
		// the wire carried, for Decode to parse.
		if inFrame := schemaKind(p.Kind()); inFrame != (wire.payload != nil) || inFrame != (wire.Body == nil) {
			t.Fatalf("%s: UnmarshalBinary left payload %v and Body %q; decoded in the frame: %v", p.Kind(), wire.payload, wire.Body, inFrame)
		}
		if !schemaKind(p.Kind()) && !bytes.Equal(wire.Body, marshalled) {
			t.Fatalf("%s: arrives with the Body %q, want %q", p.Kind(), wire.Body, marshalled)
		}
		parsed, err := wire.Decode()
		if err != nil {
			t.Fatalf("%s: decode parsed: %v", p.Kind(), err)
		}
		if reflect.TypeOf(carried) != reflect.TypeOf(p) || reflect.TypeOf(parsed) != reflect.TypeOf(p) {
			t.Fatalf("%s: carried %T, parsed %T, want %T", p.Kind(), carried, parsed, p)
		}
		if !sameValue(reflect.ValueOf(carried), reflect.ValueOf(parsed)) {
			t.Errorf("%s: carried and parsed payloads differ:\n carried %+v\n parsed  %+v", p.Kind(), carried, parsed)
		}
		if n := testing.AllocsPerRun(10, func() { _, _ = env.Decode() }); n != 0 {
			t.Errorf("%s: Decode of a NewEnvelope-built envelope allocates %v times", p.Kind(), n)
		}

		// Validated is the wire side's way to pay for the parse once.
		checked, err := wire.Validated()
		if err != nil {
			t.Fatalf("%s: %v", p.Kind(), err)
		}
		// What the wire envelope says is what json.Marshal writes, whether it
		// kept the peer's bytes or re-encodes the value it decoded: a relay
		// writes the same frame.
		if !bytes.Equal(wireJSON(t, checked), marshalled) {
			t.Fatalf("%s: Validated says %q, want %q", p.Kind(), wireJSON(t, checked), marshalled)
		}
		if n := testing.AllocsPerRun(10, func() { _, _ = checked.Decode() }); n != 0 {
			t.Errorf("%s: Decode of a Validated envelope allocates %v times", p.Kind(), n)
		}
	}
}

// TestEditedEnvelopeDoesNotReturnStalePayload: the carried payload answers
// only for the Kind and Body it was attached to — no Body, for an envelope
// NewEnvelope built, whose payload a Body set since overrides.
func TestEditedEnvelopeDoesNotReturnStalePayload(t *testing.T) {
	built, err := NewEnvelope("c1", "ua", "s1", CutDownBid{Round: 1, CutDown: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	withBody, err := built.WithBody()
	if err != nil {
		t.Fatal(err)
	}

	env := built
	env.Body = []byte(`{"round":1,"cutDown":0.4}`)
	if p, err := env.Decode(); err != nil || p != (CutDownBid{Round: 1, CutDown: 0.4}) {
		t.Fatalf("replaced body decodes to %v, %v; want the 0.4 bid it now says", p, err)
	}

	env = built
	env.Kind = KindAward
	if p, err := env.Decode(); err != nil || p != (Award{Round: 1, CutDown: 0.2}) {
		t.Fatalf("re-tagged envelope decodes to %#v, %v; want an Award read from the body", p, err)
	}

	env = built
	env.Kind = "bogus"
	if _, err := env.Decode(); !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("unknown kind: error = %v, want ErrUnknownKind", err)
	}

	env = built
	env.Kind = KindAward
	retagged := withBody
	retagged.Kind = KindAward
	frame := env.AppendBinary(nil)
	if want := retagged.AppendBinary(nil); !bytes.Equal(frame, want) {
		t.Fatalf("re-tagged envelope goes on the wire as\n%x, want its payload's JSON under the new kind\n%x", frame, want)
	}
	wire, err := UnmarshalBinary(frame)
	if err != nil {
		t.Fatal(err)
	}
	if p, err := wire.Decode(); err != nil || p != (Award{Round: 1, CutDown: 0.2}) {
		t.Fatalf("re-tagged envelope reads off the wire as %#v, %v; want an Award read from its JSON", p, err)
	}
	// A Body set on an envelope decoded in the frame wins over the payload
	// decoded there, as it does over one NewEnvelope carried.
	wire.Body = []byte(`{"round":1,"cutDown":0.4,"reward":2}`)
	if p, err := wire.Decode(); err != nil || p != (Award{Round: 1, CutDown: 0.4, Reward: 2}) {
		t.Fatalf("wire envelope given a Body decodes to %#v, %v; want the award the Body says", p, err)
	}
	env = withBody
	env.Kind = KindAward
	if p, err := env.Decode(); err != nil || p != (Award{Round: 1, CutDown: 0.2}) {
		t.Fatalf("re-tagged envelope with a Body decodes to %#v, %v; want an Award read from the body", p, err)
	}

	for name, body := range map[string]json.RawMessage{
		"truncated": withBody.Body[:len(withBody.Body)-1],
		"advanced":  withBody.Body[1:],
		"empty":     nil,
	} {
		env = withBody
		env.Body = body
		if p, err := env.Decode(); err == nil {
			t.Errorf("%s body decodes to %v; want the parse error of what is there", name, p)
		}
	}

	// A payload handed over by pointer still reaches receivers as the value
	// type they switch on, and not as a window onto the sender's variable.
	bid := CutDownBid{Round: 1, CutDown: 0.2}
	env, err = NewEnvelope("c1", "ua", "s1", &bid)
	if err != nil {
		t.Fatal(err)
	}
	bid.CutDown = 0.9
	if p, err := env.Decode(); err != nil || p != (CutDownBid{Round: 1, CutDown: 0.2}) {
		t.Fatalf("pointer payload decodes to %#v, %v; want the CutDownBid value as sent", p, err)
	}

	// Routing and trace edits are what buses and tracers do to every
	// envelope: they leave the payload attached.
	env = built
	env.From, env.To, env.TraceID, env.SpanID = "c2", "cc-001", 7, 8
	if n := testing.AllocsPerRun(10, func() { _, _ = env.Decode() }); n != 0 {
		t.Errorf("re-routed envelope parses its body again (%v allocations)", n)
	}
}

// TestSameSend: an envelope is the same send as its copy readdressed, for
// every kind — a payload holding slices included — with or without a Body,
// and not as an envelope built again from an equal payload boxed again, nor
// as a copy with any other field edited.
func TestSameSend(t *testing.T) {
	for _, p := range onePerKind() {
		built, err := NewEnvelope("ua", "c1", "s1", p)
		if err != nil {
			t.Fatalf("%s: %v", p.Kind(), err)
		}
		withBody, err := built.WithBody()
		if err != nil {
			t.Fatal(err)
		}
		copied := reflect.New(reflect.TypeOf(p)).Elem()
		copied.Set(reflect.ValueOf(p))
		again, err := NewEnvelope("ua", "c1", "s1", copied.Interface().(Payload))
		if err != nil {
			t.Fatal(err)
		}
		if built.SameSend(again) {
			t.Errorf("%s: an envelope built again from a copy of its payload is the same send", p.Kind())
		}
		if built.SameSend(withBody) {
			t.Errorf("%s: an envelope given a Body is the same send as it was without", p.Kind())
		}
		for form, env := range map[string]Envelope{"built": built, "with a Body": withBody} {
			other := env
			other.To = "c2"
			if !env.SameSend(other) || !other.SameSend(env) {
				t.Errorf("%s %s: a copy addressed to another recipient is not the same send", p.Kind(), form)
			}
			checked, err := env.Validated() // the same Body, the same payload
			if err != nil {
				t.Fatal(err)
			}
			if !env.SameSend(checked) {
				t.Errorf("%s %s: a validated copy is not the same send", p.Kind(), form)
			}
			edits := map[string]func(*Envelope){
				"from":      func(e *Envelope) { e.From = "c9" },
				"session":   func(e *Envelope) { e.Session = "s2" },
				"kind":      func(e *Envelope) { e.Kind = "bogus" },
				"trace":     func(e *Envelope) { e.TraceID = 7 },
				"span":      func(e *Envelope) { e.SpanID = 8 },
				"uncarried": func(e *Envelope) { e.payload, e.bodyStart = nil, nil },
			}
			if env.Body == nil {
				edits["body"] = func(e *Envelope) { e.Body = withBody.Body }
			} else {
				edits["body"] = func(e *Envelope) { e.Body = e.Body[:len(e.Body)-1] }
				edits["copied"] = func(e *Envelope) { e.Body = bytes.Clone(e.Body) }
			}
			for name, edit := range edits {
				edited := env
				edit(&edited)
				if env.SameSend(edited) {
					t.Errorf("%s %s: an envelope with its %s edited is the same send", p.Kind(), form, name)
				}
			}
		}
	}
	// A bid is validated where its frame lands: Validated hands back the
	// envelope itself. A kind read through its Body is validated by each
	// call, and two calls box two payload values.
	for _, p := range []Payload{CutDownBid{Round: 2, CutDown: 0.2}, EnergyBid{Round: 2, YMinKWh: 11.25}} {
		sent, err := NewEnvelope("ua", "c1", "s1", p)
		if err != nil {
			t.Fatal(err)
		}
		wire, err := UnmarshalBinary(sent.AppendBinary(nil))
		if err != nil {
			t.Fatal(err)
		}
		if !wire.SameSend(wire) {
			t.Errorf("%s: an envelope off a wire is not the same send as itself", p.Kind())
		}
		first, err := wire.Validated()
		if err != nil {
			t.Fatal(err)
		}
		second, err := wire.Validated()
		if err != nil {
			t.Fatal(err)
		}
		if inFrame := schemaKind(p.Kind()); first.SameSend(second) != inFrame || wire.SameSend(first) != inFrame {
			t.Errorf("%s: two validations of one wire envelope are the same send: %v, and the first is the same send as the envelope: %v; want both %v",
				p.Kind(), first.SameSend(second), wire.SameSend(first), inFrame)
		}
	}
}

// TestDecodersCoverEveryKind reads the package's own source for the Kind
// constants, so a kind added without a decoder fails here, not in the field.
func TestDecodersCoverEveryKind(t *testing.T) {
	sources, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	declared := map[Kind]string{}
	for _, path := range sources {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				if id, ok := vs.Type.(*ast.Ident); !ok || id.Name != "Kind" {
					continue
				}
				for i, name := range vs.Names {
					val, err := strconv.Unquote(vs.Values[i].(*ast.BasicLit).Value)
					if err != nil {
						t.Fatalf("%s: %v", name.Name, err)
					}
					declared[Kind(val)] = name.Name
				}
			}
		}
	}
	if len(declared) < 19 {
		t.Fatalf("found only %d Kind constants in the package source", len(declared))
	}
	for k, name := range declared {
		if _, ok := decoders[k]; !ok {
			t.Errorf("%s (%q) has no decoder", name, k)
		}
	}
	for k := range decoders {
		if _, ok := declared[k]; !ok {
			t.Errorf("decoder for %q, which is not a declared Kind constant", k)
		}
	}
	for _, p := range onePerKind() {
		body, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decoders[p.Kind()](body)
		if err != nil || got.Kind() != p.Kind() {
			t.Errorf("decoder for %q returns %T, %v", p.Kind(), got, err)
		}
	}
}
