package bus

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"loadbalance/internal/message"
)

// lazyPayload builds one payload of the four kinds a reward-table session
// sends from arbitrary values: kind picks a CutDownBid, an Award, a
// SessionEnd or a RewardTable, x and y are its cut-down and reward, and a
// table's entries step up from x by steps/256 with rewards y·i. The window
// starts start seconds and nanos into the Unix epoch, lasts dur and is read in
// a zone zone seconds east of UTC.
func lazyPayload(kind uint8, round int, x, y float64, reason string, start int64, nanos uint32, dur int64, zone int32, steps []byte) message.Payload {
	switch kind % 4 {
	case 0:
		return message.CutDownBid{Round: round, CutDown: x}
	case 1:
		return message.Award{Round: round, CutDown: x, Reward: y}
	case 2:
		// Valid UTF-8, so that the payload JSON carries is the one sent:
		// encoding/json writes a replacement character for a stray byte.
		return message.SessionEnd{Round: round, Reason: strings.ToValidUTF8(reason, "�")}
	}
	from := time.Unix(start, int64(nanos%1e9)).In(time.FixedZone("", int(zone)))
	table := message.RewardTable{Window: message.Window{Start: from, End: from.Add(time.Duration(dur))}, Round: round}
	cut := x
	for i, s := range steps[:min(len(steps), 16)] {
		table.Entries = append(table.Entries, message.RewardEntry{CutDown: cut, Reward: y * float64(i)})
		cut += float64(s) / 256
	}
	return table
}

// samePayload compares a payload with the one a wire delivered: times by
// instant and zone offset (a zone's name does not travel), floats and the
// rest by value.
func samePayload(got, want message.Payload) bool {
	gt, ok := got.(message.RewardTable)
	wt, wok := want.(message.RewardTable)
	if !ok || !wok {
		return got == want
	}
	sameTime := func(a, b time.Time) bool {
		_, ao := a.Zone()
		_, bo := b.Zone()
		return a.Equal(b) && ao == bo
	}
	if gt.Round != wt.Round || !sameTime(gt.Window.Start, wt.Window.Start) || !sameTime(gt.Window.End, wt.Window.End) ||
		len(gt.Entries) != len(wt.Entries) {
		return false
	}
	for i := range gt.Entries {
		if gt.Entries[i] != wt.Entries[i] {
			return false
		}
	}
	return true
}

// FuzzLazyFrame holds the codec's in-frame encoding of a carried payload —
// the schema encoders for bids, awards and tables, encoding/json for a
// session end — to the JSON form it replaces, for arbitrary payloads of the
// four session kinds: a payload Validate accepts encodes; its envelope and
// fan-out frames are byte for byte those of the same envelope with Body =
// json.Marshal(p); and the frame read back (UnmarshalBinary, then Validated,
// as a server's reader does) carries an equal payload.
func FuzzLazyFrame(f *testing.F) {
	session := time.Date(1998, 1, 20, 17, 0, 0, 0, time.UTC).Unix()
	for kind := uint8(0); kind < 4; kind++ {
		f.Add(kind, 2, 0.2, 8.5, "converged", session, uint32(0), int64(2*time.Hour), int32(0), []byte{25, 26, 128}, false)
		f.Add(kind, 1, 0.050000000000000044, 9.123867891540531, "<&>  ", session, uint32(5e8), int64(time.Hour), int32(2*60*60), []byte{1}, true)
	}
	f.Add(uint8(1), 3, 5e-324, 1e21, "", session, uint32(1), int64(1), int32(-(23*60+59)*60), []byte{255}, false)
	f.Add(uint8(3), 1, 0.0, 1e-7, "", int64(253402300799), uint32(999999999), int64(time.Second), int32(0), []byte{0, 1}, false) // the last second of year 9999
	f.Add(uint8(3), 1, 0.0, 1.0, "", int64(253402300800), uint32(0), int64(time.Second), int32(0), []byte{1}, false)             // year 10000
	f.Add(uint8(3), 1, 0.0, 1.0, "", session, uint32(0), int64(time.Second), int32(19*60+32), []byte{1}, false)                  // an offset with seconds
	f.Add(uint8(2), 0, 0.0, 0.0, "a\xffb", session, uint32(0), int64(0), int32(0), []byte(nil), false)
	f.Fuzz(func(t *testing.T, kind uint8, round int, x, y float64, reason string, start int64, nanos uint32, dur int64, zone int32, steps []byte, traced bool) {
		p := lazyPayload(kind, round, x, y, reason, start, nanos, dur, zone, steps)
		env, err := message.NewEnvelope("cc", "c1", "s1", p)
		if err != nil {
			return // Validate refused it
		}
		if traced {
			env.TraceID, env.SpanID = 7, 9
		}
		body, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("Validate accepts %#v, which json.Marshal refuses: %v", p, err)
		}
		frame, err := appendEnvelopeFrame(nil, frameEnvelope, env, nil)
		if err != nil {
			t.Fatalf("Validate accepts %#v, which the codec cannot encode: %v", p, err)
		}
		if withBody, err := env.WithBody(); err != nil || !bytes.Equal(withBody.Body, body) {
			t.Fatalf("%#v is given the Body %q, %v; json.Marshal writes %q", p, withBody.Body, err, body)
		}
		eager := env
		eager.Body = body
		if want := EncodeEnvelopeFrame(nil, eager); !bytes.Equal(frame, want) {
			t.Fatalf("%#v frames as\n%x, with json.Marshal's Body\n%x", p, frame, want)
		}
		to := []string{"c1", "c2"}
		if got, want := encodeFanOutFrame(nil, env, to), encodeFanOutFrame(nil, eager, to); !bytes.Equal(got, want) {
			t.Fatalf("%#v fans out as\n%x, with json.Marshal's Body\n%x", p, got, want)
		}
		if size := env.BinarySize(); size != len(framePayload(frame)) {
			t.Fatalf("BinarySize %d of a %d-byte envelope", size, len(framePayload(frame)))
		}

		wire, err := message.UnmarshalBinary(framePayload(frame))
		if err == nil {
			wire, err = wire.Validated()
		}
		var got message.Payload
		if err == nil {
			got, err = wire.Decode()
		}
		if err != nil || !samePayload(got, p) {
			t.Fatalf("%#v came off the wire as %#v, %v", p, got, err)
		}
	})
}
