package bus

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"loadbalance/internal/message"
)

// plainBus hides a bus's own SendTo, so the package-level SendTo takes its
// loop over Send — the specification the native paths are held to.
type plainBus struct{ Bus }

// tableEnv is an announcement as a concentrator relays it.
func tableEnv(t testing.TB, from string) message.Envelope {
	t.Helper()
	start := time.Date(2026, 7, 29, 18, 0, 0, 0, time.UTC)
	e, err := message.NewEnvelope(from, "", "s1", message.RewardTable{
		Window:  message.Window{Start: start, End: start.Add(2 * time.Hour)},
		Round:   2,
		Entries: []message.RewardEntry{{CutDown: 0, Reward: 0}, {CutDown: 0.1, Reward: 4.25}, {CutDown: 0.2, Reward: 8.5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// fanOutRig is one in-process bus with the recipients the equivalence test
// sends to: roomy inboxes, one that holds a single envelope, and the sender.
type fanOutRig struct {
	bus   *InProc
	boxes map[string]<-chan message.Envelope
}

// received is an envelope as a recipient can tell it apart: its routing and
// the payload Decode returns.
type received struct {
	from, to, session string
	kind              message.Kind
	payload           string
}

func newFanOutRig(t *testing.T, dropRate float64) fanOutRig {
	t.Helper()
	b, err := NewInProc(Config{DropRate: dropRate, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	r := fanOutRig{bus: b, boxes: make(map[string]<-chan message.Envelope)}
	for name, size := range map[string]int{"cc": 64, "c1": 64, "c2": 64, "c3": 64, "tiny": 1} {
		if r.boxes[name], err = b.Register(name, size); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// drained is what the rig's recipients received, in arrival order.
func (r fanOutRig) drained() map[string][]received {
	out := make(map[string][]received)
	for name, box := range r.boxes {
		for len(box) > 0 {
			e := <-box
			p, err := e.Decode()
			out[name] = append(out[name], received{e.From, e.To, e.Session, e.Kind, fmt.Sprintf("%#v %v", p, err)})
		}
	}
	return out
}

// TestSendToEqualsTargetedSends holds both SendTo paths — InProc's one-lock
// fan-out and the loop a plain Bus gets — to a hand-written loop of targeted
// Sends: same inbox contents and order, same Stats, same first error, and
// with fault injection on, the same deliveries lost.
func TestSendToEqualsTargetedSends(t *testing.T) {
	// "ghost" is not registered; "tiny" overflows on its second envelope;
	// "cc" is the sender itself (self-sends skip fault injection).
	to := []string{"c1", "ghost", "tiny", "c2", "tiny", "cc", "c3", "c1"}
	for _, dropRate := range []float64{0, 0.5} {
		t.Run(fmt.Sprintf("drop=%v", dropRate), func(t *testing.T) {
			// One table per call, each another payload.
			var tables [3]message.Envelope
			for round := range tables {
				p, err := tableEnv(t, "cc").Decode()
				if err != nil {
					t.Fatal(err)
				}
				table := p.(message.RewardTable)
				table.Round += round
				if tables[round], err = message.NewEnvelope("cc", "", "s1", table); err != nil {
					t.Fatal(err)
				}
			}
			type result struct {
				stats Stats
				boxes map[string][]received
				err   string
			}
			run := func(send func(b *InProc, env message.Envelope) error) result {
				rig := newFanOutRig(t, dropRate)
				var errs []string
				for _, env := range tables { // the RNG stream carries across calls
					if err := send(rig.bus, env); err != nil {
						errs = append(errs, err.Error())
					}
				}
				return result{rig.bus.Stats(), rig.drained(), strings.Join(errs, "; ")}
			}
			want := run(func(b *InProc, env message.Envelope) error {
				var firstErr error
				for _, n := range to {
					e := env
					e.To = n
					if err := b.Send(e); err != nil && firstErr == nil {
						firstErr = err
					}
				}
				return firstErr
			})
			if want.stats.Sent != 3*len(to) || want.stats.Rejected == 0 || (dropRate > 0) != (want.stats.Dropped > 0) {
				t.Fatalf("reference run is not the case under test: %+v", want.stats)
			}
			for name, got := range map[string]result{
				"native": run(func(b *InProc, env message.Envelope) error { return SendTo(b, env, to) }),
				"loop":   run(func(b *InProc, env message.Envelope) error { return SendTo(plainBus{b}, env, to) }),
			} {
				if got.stats != want.stats {
					t.Errorf("%s: stats %+v, want %+v", name, got.stats, want.stats)
				}
				if got.err != want.err {
					t.Errorf("%s: errors %q, want %q", name, got.err, want.err)
				}
				if !reflect.DeepEqual(got.boxes, want.boxes) {
					t.Errorf("%s: inboxes differ from %d targeted sends:\n got %v\nwant %v", name, len(to), got.boxes, want.boxes)
				}
			}
		})
	}
}

// TestSendToErrors pins the sentinel errors and that an empty recipient is an
// unknown agent on every path, never a broadcast.
func TestSendToErrors(t *testing.T) {
	for name, wrap := range map[string]func(*InProc) Bus{
		"native": func(b *InProc) Bus { return b },
		"loop":   func(b *InProc) Bus { return plainBus{b} },
	} {
		rig := newFanOutRig(t, 0)
		b := wrap(rig.bus)
		if err := SendTo(b, tableEnv(t, "cc"), []string{"ghost", "c1"}); !errors.Is(err, ErrUnknownAgent) {
			t.Errorf("%s: unknown recipient: %v", name, err)
		}
		if err := SendTo(b, tableEnv(t, "cc"), []string{"tiny", "tiny", "ghost"}); !errors.Is(err, ErrInboxFull) {
			t.Errorf("%s: first error must be the full inbox: %v", name, err)
		}
		if err := SendTo(b, tableEnv(t, "cc"), []string{""}); !errors.Is(err, ErrUnknownAgent) {
			t.Errorf("%s: empty recipient: %v", name, err)
		}
		if got := len(rig.boxes["c2"]) + len(rig.boxes["c3"]); got != 0 {
			t.Errorf("%s: an empty recipient was broadcast to %d inboxes", name, got)
		}
		if err := SendTo(b, tableEnv(t, "cc"), nil); err != nil {
			t.Errorf("%s: no recipients: %v", name, err)
		}
		rig.bus.Close()
		if err := SendTo(b, tableEnv(t, "cc"), []string{"c1"}); !errors.Is(err, ErrClosed) {
			t.Errorf("%s: closed bus: %v", name, err)
		}
	}
}

// TestFanOutFrameOverTCP sends one fan-out frame from a Client through a
// Server onto its bridged bus. It runs under -race with the 64 recipients
// reading concurrently, as TestBroadcastTableIsSharedReadOnly does: they all
// hold the one payload the server decoded.
func TestFanOutFrameOverTCP(t *testing.T) {
	const recipients = 64
	srv, inner, _ := newServer(t, ServerConfig{})
	to := make([]string, recipients)
	boxes := make([]<-chan message.Envelope, recipients)
	for i := range to {
		to[i] = fmt.Sprintf("m%02d", i)
		var err error
		if boxes[i], err = inner.Register(to[i], 4); err != nil {
			t.Fatal(err)
		}
	}
	cli, err := Dial(srv.Addr(), "cc-000")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	framesBefore := srv.WireStats().FramesIn
	sentBefore := inner.Stats().Sent
	// The frame claims another sender; the connection owns its identity.
	claimed := tableEnv(t, "mallory")
	claimed.To = "m00" // ignored: a fan-out's recipients are the list
	if _, err := cli.conn.Write(encodeFanOutFrame(nil, claimed, to)); err != nil {
		t.Fatal(err)
	}

	entries := make([]*message.RewardEntry, recipients)
	var wg sync.WaitGroup
	for i := range boxes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			select {
			case got := <-boxes[i]:
				if got.To != to[i] || got.From != "cc-000" || got.Session != "s1" {
					t.Errorf("%s received %+v", to[i], got)
				}
				p, err := got.Decode()
				table, ok := p.(message.RewardTable)
				if err != nil || !ok || table.Round != 2 || len(table.Entries) != 3 || table.Entries[2].Reward != 8.5 {
					t.Errorf("%s decoded %v, %v", to[i], p, err)
					return
				}
				entries[i] = &table.Entries[0]
			case <-time.After(5 * time.Second):
				t.Errorf("%s never received the fan-out", to[i])
			}
		}(i)
	}
	wg.Wait()
	for i, e := range entries {
		if e != entries[0] {
			t.Fatalf("%s holds its own parse of the table; the server must decode a fan-out once", to[i])
		}
	}
	if got := srv.WireStats().FramesIn - framesBefore; got != 1 {
		t.Fatalf("%d recipients took %d frames, want 1", recipients, got)
	}
	if got := inner.Stats().Sent - sentBefore; got != recipients {
		t.Fatalf("bridged bus counted %d sends, want %d", got, recipients)
	}
}

// TestFanOutFrameMalformed feeds the server fan-out frames it must skip and
// count without losing the session: a recipient count no frame could hold,
// an empty recipient, an undecodable envelope, an unknown payload kind.
func TestFanOutFrameMalformed(t *testing.T) {
	srv, _, uaBox := newServer(t, ServerConfig{})
	cli, err := Dial(srv.Addr(), "c1")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	bogus := message.Envelope{From: "c1", Session: "s1", Kind: "bogus", Body: []byte("{}")}
	bad := [][]byte{
		appendFrame(nil, frameFanOut, binary.AppendUvarint(nil, 1<<62)),
		encodeFanOutFrame(nil, env(t, "c1", ""), []string{"ua", ""}),
		appendFrame(nil, frameFanOut, []byte{1, 2, 'u', 'a', 0xff, 0xff}),
		encodeFanOutFrame(nil, bogus, []string{"ua"}),
	}
	for _, frame := range bad {
		if _, err := cli.conn.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	if err := cli.SendTo(env(t, "c1", ""), []string{"ua"}); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-uaBox:
		if got.From != "c1" || got.To != "ua" {
			t.Fatalf("envelope = %+v", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("valid fan-out after malformed ones never delivered")
	}
	if len(uaBox) != 0 {
		t.Fatalf("a malformed fan-out was delivered: %+v", <-uaBox)
	}
	if ws := srv.WireStats(); ws.Malformed != uint64(len(bad)) {
		t.Fatalf("malformed = %d, want %d", ws.Malformed, len(bad))
	}
	if got := cli.Stats().Sent; got != 1 {
		t.Fatalf("client counted %d frames sent, want the one SendTo", got)
	}
}

// TestOldWireVersionRefused dials with the v2 preamble: a v2 server skips
// frame kinds it does not know, so it would lose every fan-out silently, and
// the mismatch is refused at the hello instead.
func TestOldWireVersionRefused(t *testing.T) {
	srv, _, _ := newServer(t, ServerConfig{})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(appendFrame([]byte{wireMagic, 2}, frameHello, []byte("c1"))); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	kind, payload, _, err := newFrameReader(conn, DefaultMaxFrame).next()
	if err != nil {
		t.Fatal(err)
	}
	if want := "unsupported protocol version 2 (server speaks 3)"; kind != frameError || string(payload) != want {
		t.Fatalf("answer = kind %d %q, want error frame %q", kind, payload, want)
	}
	if ws := srv.WireStats(); ws.Rejected != 1 || ws.Hellos != 0 {
		t.Fatalf("wire stats = %+v, want one rejection and no hello", ws)
	}
}

// TestRemoteFanOutSplitsAtMaxFrame sends through a Remote whose frame limit
// holds only part of the recipient list: every recipient is still served,
// over more than one frame and fewer than one per recipient.
func TestRemoteFanOutSplitsAtMaxFrame(t *testing.T) {
	srv, inner, _ := newServer(t, ServerConfig{})
	const recipients = 40
	box, err := inner.Register("member-00", recipients)
	if err != nil {
		t.Fatal(err)
	}
	to := make([]string, recipients) // one inbox, so every half must arrive in it
	for i := range to {
		to[i] = "member-00"
	}
	e := tableEnv(t, "cc")
	remote := NewRemoteConfig(srv.Addr(), ClientConfig{MaxFrame: len(EncodeEnvelopeFrame(nil, e)) + 10*len(to[0])})
	defer remote.Close()
	if _, err := remote.Register("cc", 4); err != nil {
		t.Fatal(err)
	}
	before := srv.WireStats().FramesIn
	if err := SendTo(remote, e, to); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < recipients; i++ {
		select {
		case <-box:
		case <-time.After(2 * time.Second):
			t.Fatalf("%d of %d deliveries", i, recipients)
		}
	}
	if got := srv.WireStats().FramesIn - before; got < 2 || got >= recipients {
		t.Fatalf("%d recipients took %d frames, want a few", recipients, got)
	}
	if err := SendTo(remote, tableEnv(t, "nobody"), to); !errors.Is(err, ErrUnknownAgent) {
		t.Fatalf("fan-out from an unregistered sender: %v", err)
	}
}

// raceBuild is set in a -race build (race_test.go).
var raceBuild bool

// TestBinaryCodecAllocs pins the allocation counts the wire path is built
// to: a frame is encoded into one buffer sized up front — a carried payload's
// JSON written into it, with no Body of its own, through pooled encoders
// (not counted under -race) — and an envelope is decoded as one header string
// and its payload, which a table decodes in the frame to a box and its
// entries.
func TestBinaryCodecAllocs(t *testing.T) {
	lazy := tableEnv(t, "cc")
	lazy.To = "c1"
	lazy.TraceID, lazy.SpanID = 7, 9
	to := []string{"c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8"}
	frame := framePayload(EncodeEnvelopeFrame(nil, lazy))
	fan := framePayload(encodeFanOutFrame(nil, lazy, to))
	wireTable, err := message.UnmarshalBinary(frame) // a table as a concentrator relays it: off a wire
	if err != nil {
		t.Fatal(err)
	}
	withBody, err := lazy.WithBody() // a table as a bus from elsewhere is handed it
	if err != nil {
		t.Fatal(err)
	}
	bid := env(t, "c1", "cc")
	award, err := message.NewEnvelope("cc", "c1", "s1", message.Award{Round: 2, CutDown: 0.16875000000000007, Reward: 9.123867891540531})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		want   float64
		pooled bool
		f      func()
	}{
		{"EncodeEnvelopeFrame of a Body", 1, false, func() { _ = EncodeEnvelopeFrame(nil, withBody) }},
		{"encodeFanOutFrame of a Body", 1, false, func() { _ = encodeFanOutFrame(nil, withBody, to) }},
		// A relay writes the value it decoded, through the schema encoder.
		{"EncodeEnvelopeFrame of a table off a wire", 1, true, func() { _ = EncodeEnvelopeFrame(nil, wireTable) }},
		{"encodeFanOutFrame of a table off a wire", 1, true, func() { _ = encodeFanOutFrame(nil, wireTable, to) }},
		{"EncodeEnvelopeFrame of a carried bid", 1, true, func() { _ = EncodeEnvelopeFrame(nil, bid) }},
		{"EncodeEnvelopeFrame of a carried award", 1, true, func() { _ = EncodeEnvelopeFrame(nil, award) }},
		// The schema encoder writes the window's times without
		// time.Time.MarshalJSON, which allocates what it returns.
		{"EncodeEnvelopeFrame of a carried table", 1, true, func() { _ = EncodeEnvelopeFrame(nil, lazy) }},
		{"encodeFanOutFrame of a carried table", 1, true, func() { _ = encodeFanOutFrame(nil, lazy, to) }},
		{"UnmarshalBinary", 3, false, func() { _, _ = message.UnmarshalBinary(frame) }}, // header, box, entries
		{"decodeFanOut", 5, false, func() { _, _, _ = decodeFanOut(fan) }},              // names, list, header, box, entries
		{"Validated off the wire", 0, false, func() { _, _ = wireTable.Validated() }},   // checked in the frame
		{"Decode off the wire", 0, false, func() { _, _ = wireTable.Decode() }},         //
	} {
		if c.pooled && raceBuild {
			continue
		}
		if got := testing.AllocsPerRun(200, c.f); got != c.want {
			t.Errorf("%s allocates %v times, want %v", c.name, got, c.want)
		}
	}
}

// TestPinnedEnvelopeFrames holds a targeted envelope's frame to the bytes the
// v2 build wrote: version 3 changed the handshake's version byte and added
// the fan-out kind, nothing else. (The envelope's own bytes are pinned in
// internal/message; here it is the frame around them, with a one-byte and a
// two-byte length.)
func TestPinnedEnvelopeFrames(t *testing.T) {
	bid, err := message.NewEnvelope("c1", "ua", "s1", message.CutDownBid{Round: 2, CutDown: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	const bidFrame = "30030263310275610273310b637574646f776e5f626964197b22726f756e64223a322c22637574446f776e223a302e327d"
	if got := fmt.Sprintf("%x", EncodeEnvelopeFrame(nil, bid)); got != bidFrame {
		t.Errorf("bid frame:\n got %s\nwant %s", got, bidFrame)
	}
	table := tableEnv(t, "ua")
	table.To = "c1"
	want := table.AppendBinary([]byte{0xcb, 0x01, frameEnvelope}) // uvarint(1+202), kind
	if got := EncodeEnvelopeFrame(nil, table); !bytes.Equal(got, want) {
		t.Errorf("table frame:\n got %x\nwant %x", got, want)
	}
}

// encodeFanOutFrame appends one fan-out frame carrying env to every name in
// to, as Client.SendTo writes it.
func encodeFanOutFrame(dst []byte, env message.Envelope, to []string) []byte {
	dst, _ = appendEnvelopeFrame(dst, frameFanOut, env, to)
	return dst
}

// framePayload strips a frame's length and kind.
func framePayload(frame []byte) []byte {
	_, used := binary.Uvarint(frame)
	return frame[used+1:]
}

// FuzzFanOutFrame: the fan-out decoder never panics, refuses a recipient
// count the payload cannot hold before sizing anything by it, and what it
// accepts re-encodes to a frame that decodes to the same thing.
func FuzzFanOutFrame(f *testing.F) {
	start := time.Date(2026, 7, 29, 18, 0, 0, 0, time.UTC)
	window := message.Window{Start: start, End: start.Add(time.Hour)}
	for _, p := range []message.Payload{
		message.OfferTerms{Window: window, XMax: 0.8, AllowanceKWh: 13.5, LowPrice: 1, NormalPrice: 2, HighPrice: 3},
		message.BidRequest{Window: window, Round: 1, LowPrice: 1, NormalPrice: 2, HighPrice: 3},
		message.RewardTable{Window: window, Round: 2, Entries: []message.RewardEntry{{CutDown: 0.1, Reward: 4.25}}},
		message.OfferReply{Round: 1, Accept: true},
		message.EnergyBid{Round: 1, YMinKWh: 4},
		message.CutDownBid{Round: 2, CutDown: 0.2},
		message.Award{Round: 3, CutDown: 0.2, Reward: 8.5},
		message.SessionEnd{Round: 3, Reason: "converged"},
	} {
		e, err := message.NewEnvelope("cc", "", "s1", p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(framePayload(encodeFanOutFrame(nil, e, []string{"c1", "c2"})))
		e.TraceID, e.SpanID = 1, 2
		f.Add(framePayload(encodeFanOutFrame(nil, e, nil)))
	}
	f.Add(binary.AppendUvarint(nil, 1<<62))
	f.Fuzz(func(t *testing.T, payload []byte) {
		to, env, err := decodeFanOut(payload)
		if count, used := binary.Uvarint(payload); used > 0 && count > uint64(len(payload)-used) {
			// More recipients claimed than bytes follow: refused on the count
			// alone, before anything is walked or sized by it.
			if err == nil || !strings.Contains(err.Error(), "recipient count") {
				t.Fatalf("count %d over %d bytes: %v", count, len(payload)-used, err)
			}
		}
		if err != nil {
			return
		}
		for _, n := range to {
			if n == "" {
				t.Fatal("decoded an empty recipient")
			}
		}
		env.To = "" // the encoder's normal form: recipients are the list
		if !env.Traced() {
			env.SpanID = 0 // a span id without a trace id is no context and is not re-encoded
		}
		to2, env2, err := decodeFanOut(framePayload(encodeFanOutFrame(nil, env, to)))
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if !reflect.DeepEqual(to, to2) && (len(to) != 0 || len(to2) != 0) {
			t.Fatalf("recipients %q became %q", to, to2)
		}
		if env.From != env2.From || env.Session != env2.Session || env.Kind != env2.Kind ||
			!bytes.Equal(env.Body, env2.Body) || env.TraceID != env2.TraceID || env.SpanID != env2.SpanID {
			t.Fatalf("envelope %+v became %+v", env, env2)
		}
		// A payload decoded in the frame has no Body to compare: it is
		// re-encoded from its value, which must read back the same.
		p, err := env.Decode()
		p2, err2 := env2.Decode()
		if fmt.Sprint(p, err) != fmt.Sprint(p2, err2) {
			t.Fatalf("payload %v, %v became %v, %v", p, err, p2, err2)
		}
	})
}
