package bus

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"loadbalance/internal/message"
)

// Tests of what the transport does with its per-connection buffers: that a
// frame read into one leaves nothing behind that the next frame can reach,
// that frames collected into one are counted and shed as frames, and that a
// byte stream nobody chose cannot take a connection handler down.

// countingBus counts what a Server hands to its bus: one per envelope frame
// and one per fan-out frame, delivered or not.
type countingBus struct {
	*InProc
	handed atomic.Uint64
}

func (b *countingBus) Send(env message.Envelope) error {
	b.handed.Add(1)
	return b.InProc.Send(env)
}

func (b *countingBus) SendTo(env message.Envelope, to []string) error {
	b.handed.Add(1)
	return b.InProc.SendTo(env, to)
}

// pipeServer runs a live Server.handle over one end of a net.Pipe — no
// listener, and every write waits for its reader, so a test decides exactly
// when the peer stalls — and returns the other end with the handshake as
// "c1" done. done closes when the handler has torn down.
func pipeServer(t testing.TB, cfg ServerConfig) (srv *Server, b *countingBus, conn net.Conn, done <-chan struct{}) {
	t.Helper()
	inner, err := NewInProc(Config{})
	if err != nil {
		t.Fatal(err)
	}
	b = &countingBus{InProc: inner}
	srv = &Server{bus: b, cfg: cfg.withDefaults(), conns: make(map[net.Conn]struct{})}
	near, far := net.Pipe()
	srv.wg.Add(1)
	go srv.handle(far)
	finished := make(chan struct{})
	go func() { srv.wg.Wait(); close(finished) }()
	t.Cleanup(func() {
		near.Close()
		<-finished
		inner.Close()
	})

	go near.Write(appendFrame([]byte{wireMagic, WireVersion}, frameHello, []byte("c1")))
	kind, _, _, err := newFrameReader(near, DefaultMaxFrame).next()
	if err != nil || kind != frameHelloAck {
		t.Fatalf("handshake over the pipe: kind %d, %v", kind, err)
	}
	return srv, b, near, finished
}

// fakeServer accepts one connection, answers its hello and then writes frames
// verbatim, leaving the connection open.
func fakeServer(t *testing.T, frames ...[]byte) (addr string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	t.Cleanup(func() { close(stop); ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var preamble [2]byte
		if _, err := io.ReadFull(conn, preamble[:]); err != nil {
			return
		}
		if _, _, _, err := newFrameReader(conn, DefaultMaxFrame).next(); err != nil {
			return
		}
		out := appendFrame(nil, frameHelloAck, []byte{WireVersion})
		for _, f := range frames {
			out = append(out, f...)
		}
		if _, err := conn.Write(out); err != nil {
			return
		}
		<-stop
	}()
	return ln.Addr().String()
}

// wideEnv is an award whose session pads its frame to about size bytes.
func wideEnv(t testing.TB, from, to string, fill byte, size int) message.Envelope {
	t.Helper()
	e, err := message.NewEnvelope(from, to, strings.Repeat(string(fill), size), message.Award{Round: 9, CutDown: 0.9, Reward: 99.5})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestSendOversizeEnvelopeKeepsConnection: an envelope too large for one
// frame fails its own send. Written anyway, it made the server answer with a
// terminal error and close, losing every later message on the connection.
func TestSendOversizeEnvelopeKeepsConnection(t *testing.T) {
	srv, _, uaBox := newServer(t, ServerConfig{MaxFrame: 512})
	cli, err := DialConfig(srv.Addr(), "c1", ClientConfig{MaxFrame: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	big := wideEnv(t, "c1", "ua", 's', 600)
	if err := cli.Send(big); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("Send of a %d-byte envelope = %v, want ErrFrameTooLarge", big.BinarySize(), err)
	}
	if err := cli.SendTo(big, []string{"ua"}); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("SendTo of it to one recipient = %v, want ErrFrameTooLarge", err)
	}
	// The largest envelope that fits does go, and arrives.
	fits := wideEnv(t, "c1", "ua", 's', 600-(1+big.BinarySize()-512))
	for _, e := range []message.Envelope{fits, env(t, "c1", "ua")} {
		if err := cli.Send(e); err != nil {
			t.Fatalf("Send after the refused one: %v", err)
		}
		select {
		case got := <-uaBox:
			if got.Session != e.Session {
				t.Fatalf("delivered session %q, want %q", got.Session, e.Session)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("an envelope sent after the refused one never arrived (client error: %v)", cli.Err())
		}
	}
	if st, ws := cli.Stats(), srv.WireStats(); st.Sent != 2 || ws.ProtoErrs != 0 {
		t.Fatalf("frames sent = %d, server protocol errors = %d; want 2 and 0", st.Sent, ws.ProtoErrs)
	}
}

// TestClientCountsMalformedFrames: the client skips a frame it cannot decode,
// as the server does, and counts it, as the server does.
func TestClientCountsMalformedFrames(t *testing.T) {
	good := env(t, "ua", "c1")
	addr := fakeServer(t,
		appendFrame(nil, frameEnvelope, []byte{0xff, 0xff, 0xff}),
		EncodeEnvelopeFrame(nil, good))
	remote := NewRemote(addr)
	defer remote.Close()
	inbox, err := remote.Register("c1", 0)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-inbox:
		if p, err := got.Decode(); got.From != "ua" || err != nil || p != (message.CutDownBid{Round: 1, CutDown: 0.2}) {
			t.Fatalf("envelope after the malformed frame = %+v", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the valid frame after the malformed one never arrived")
	}
	if st := remote.Stats(); st.Malformed != 1 || st.Received != 1 {
		t.Fatalf("malformed = %d, received = %d; want 1 and 1", st.Malformed, st.Received)
	}
}

// snapshot is everything of an envelope that came out of a read buffer, copied
// so that it shares no memory with the envelope.
type snapshot struct {
	from, to, session, kind string
	body                    []byte
	payload                 string // the decoded payload, printed
}

func snap(t *testing.T, e message.Envelope) snapshot {
	t.Helper()
	p, err := e.Decode()
	if err != nil {
		t.Fatal(err)
	}
	return snapshot{strings.Clone(e.From), strings.Clone(e.To), strings.Clone(e.Session),
		strings.Clone(string(e.Kind)), bytes.Clone(e.Body), fmt.Sprintf("%#v", p)}
}

func (s snapshot) check(t *testing.T, what string, e message.Envelope) {
	t.Helper()
	p, err := e.Decode()
	if e.From != s.from || e.To != s.to || e.Session != s.session || string(e.Kind) != s.kind ||
		!bytes.Equal(e.Body, s.body) || err != nil || fmt.Sprintf("%#v", p) != s.payload {
		t.Errorf("%s changed when the next frame was read:\n got %+v (payload %#v, %v)\nwant %+v", what, e, p, err, s)
	}
}

// overwriter returns a frame (an envelope frame, or a fan-out when there are
// recipients) that is one byte throughout wherever an envelope has room for
// one, longer than after — the frame it is to overwrite — and no longer than
// the buffer a connection starts with, so that it lands on the same memory.
func overwriter(t *testing.T, from, to string, recipients []string, after []byte) []byte {
	t.Helper()
	e := wideEnv(t, from, to, 'Z', minFrameBuf-100)
	frame := EncodeEnvelopeFrame(nil, e)
	if recipients != nil {
		frame = encodeFanOutFrame(nil, e, recipients)
	}
	if len(frame) > minFrameBuf || len(frame) <= len(after) {
		t.Fatalf("the overwriting frame is %d bytes; it must be over %d and at most %d", len(frame), len(after), minFrameBuf)
	}
	return frame
}

// TestReadBufferRetainsNothing is the invariant the one-buffer-per-connection
// read side stands on: whatever a frame handler keeps of a frame — the hello's
// name, an envelope's four strings, its Body and the payload validated from
// it, a fan-out's recipient list, an error's text — is a copy, so reading a
// different frame through the same buffer changes none of it.
func TestReadBufferRetainsNothing(t *testing.T) {
	t.Run("server", func(t *testing.T) {
		_, b, conn, _ := pipeServer(t, ServerConfig{})
		boxes := map[string]<-chan message.Envelope{}
		for _, name := range []string{"ua", "ub", "uz"} {
			box, err := b.Register(name, 8)
			if err != nil {
				t.Fatal(err)
			}
			boxes[name] = box
		}
		recv := func(name string) message.Envelope {
			t.Helper()
			select {
			case e := <-boxes[name]:
				return e
			case <-time.After(2 * time.Second):
				t.Fatalf("%s received nothing", name)
				return message.Envelope{}
			}
		}
		write := func(frame []byte) {
			t.Helper()
			if _, err := conn.Write(frame); err != nil {
				t.Fatal(err)
			}
		}

		write(EncodeEnvelopeFrame(nil, env(t, "c1", "ua")))
		single := recv("ua")
		singleWas := snap(t, single)
		fanOut := encodeFanOutFrame(nil, tableEnv(t, "c1"), []string{"ua", "ub"})
		write(fanOut)
		fanA, fanB := recv("ua"), recv("ub")
		fanAWas, fanBWas := snap(t, fanA), snap(t, fanB)

		write(overwriter(t, "c1", "uz", nil, fanOut))
		recv("uz")
		write(overwriter(t, "c1", "", []string{"uz"}, fanOut))
		recv("uz")

		singleWas.check(t, "an envelope frame's envelope", single)
		fanAWas.check(t, "a fan-out's first delivery", fanA)
		fanBWas.check(t, "a fan-out's second delivery", fanB)
		if fanA.To != "ua" || fanB.To != "ub" {
			t.Errorf("fan-out recipients read %q and %q, want ua and ub", fanA.To, fanB.To)
		}
		// The hello's name is what the connection is registered under.
		if got := strings.Join(b.Agents(), " "); got != "c1 ua ub uz" {
			t.Errorf("agents on the bus = %q, want the hello's c1 beside ua ub uz", got)
		}
	})

	t.Run("client", func(t *testing.T) {
		bid := EncodeEnvelopeFrame(nil, env(t, "ua", "c1"))
		addr := fakeServer(t, bid, overwriter(t, "ua", "c1", nil, bid),
			appendFrame(nil, frameError, []byte("closing: first")))
		cli, err := Dial(addr, "c1")
		if err != nil {
			t.Fatal(err)
		}
		defer cli.Close()
		first := <-cli.Inbox()
		firstWas := snap(t, first)
		<-cli.Inbox()
		if _, open := <-cli.Inbox(); open {
			t.Fatal("the error frame did not end the connection")
		}
		firstWas.check(t, "a client's received envelope", first)
		if err := cli.Err(); !errors.Is(err, ErrRemote) || !strings.HasSuffix(err.Error(), "closing: first") {
			t.Errorf("terminal error = %v, want the error frame's text", err)
		}
	})
}

// TestOutboundShedsAtFullQueue stalls a peer and floods it: the connection
// keeps at most OutboundQueue frames pending behind the write in flight, sheds
// the rest uncounted as output, and once the peer reads again every envelope
// is exactly one of written (FramesOut, however few writes carried them) or
// shed (Dropped).
func TestOutboundShedsAtFullQueue(t *testing.T) {
	const limit, sends = 4, 40 // sends fit the bus inbox: the shedding is the transport's
	srv, b, conn, _ := pipeServer(t, ServerConfig{OutboundQueue: limit})
	for i := 0; i < sends; i++ {
		if err := b.InProc.Send(env(t, "ua", "c1")); err != nil {
			t.Fatal(err)
		}
	}
	// One write in flight (at most limit frames) and limit frames pending.
	waitFor(t, "the queue to fill and shed", func() bool { return srv.WireStats().Dropped >= sends-2*limit })

	read := 0
	fr := newFrameReader(conn, DefaultMaxFrame)
	for uint64(read)+srv.WireStats().Dropped < sends {
		_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		kind, payload, _, err := fr.next()
		if err != nil || kind != frameEnvelope {
			t.Fatalf("frame %d: kind %d, %v (stats %+v)", read, kind, err, srv.WireStats())
		}
		if e, err := message.UnmarshalBinary(payload); err != nil || e.From != "ua" {
			t.Fatalf("frame %d: %+v, %v", read, e, err)
		}
		read++
	}
	waitFor(t, "the written frames to be counted", func() bool { return srv.WireStats().FramesOut == uint64(1+read) })
	ws := srv.WireStats()
	if ws.FramesOut-1+ws.Dropped != sends || ws.Dropped < sends-2*limit || read == 0 {
		t.Fatalf("%d envelopes: %d frames written after the ack, %d read, %d shed", sends, ws.FramesOut-1, read, ws.Dropped)
	}
}

// TestOutboundRefusesAFailedEncode: a frame whose encoding fails — an
// envelope whose payload does not encode — is refused, so the sink counts it
// shed, and leaves the pending output as it was, whatever it appended first.
func TestOutboundRefusesAFailedEncode(t *testing.T) {
	o := newOutbound(4)
	o.add(control(frameHelloAck, []byte{WireVersion}))
	pending := string(o.buf)
	if o.add(func(dst []byte) ([]byte, error) { return append(dst, 0xff, 0xff), errors.New("does not encode") }) {
		t.Fatal("a frame whose encoding failed was added")
	}
	if string(o.buf) != pending || o.frames != 1 {
		t.Fatalf("pending output %x and %d frames after the failed encode, want %x and 1", o.buf, o.frames, pending)
	}
}

// TestOutboundWriterFailureShedsEverything: a peer that never reads times the
// write out; the writer cuts the connection, and the write that failed, what
// was pending behind it and what the bus still delivers all count as shed.
func TestOutboundWriterFailureShedsEverything(t *testing.T) {
	const sends = 40
	srv, b, _, done := pipeServer(t, ServerConfig{OutboundQueue: 4, WriteTimeout: 50 * time.Millisecond})
	for i := 0; i < sends; i++ {
		if err := b.InProc.Send(env(t, "ua", "c1")); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the handler never tore down after its write timed out")
	}
	if ws := srv.WireStats(); ws.FramesOut != 1 || ws.Dropped != sends {
		t.Fatalf("frames out = %d (want the ack alone), shed = %d of %d", ws.FramesOut, ws.Dropped, sends)
	}
	if agents := b.Agents(); len(agents) != 0 {
		t.Fatalf("still registered after teardown: %v", agents)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// FuzzServerStream feeds a live connection handler arbitrary bytes after a
// valid preamble and hello. Whatever they are: the handler does not panic, it
// tears down when the peer goes away, and every whole frame in the stream is
// accounted for exactly once — handed to the bus, counted Malformed, or of a
// kind the protocol skips — with ProtoErrs saying whether the stream ended in
// a frame the protocol refuses.
func FuzzServerStream(f *testing.F) {
	const maxFrame = 256
	bid, err := message.NewEnvelope("c1", "ua", "s1", message.CutDownBid{Round: 1, CutDown: 0.2})
	if err != nil {
		f.Fatal(err)
	}
	bidFrame := EncodeEnvelopeFrame(nil, bid)
	fanFrame := encodeFanOutFrame(nil, bid, []string{"ua", "ub"})
	f.Add(bidFrame)
	f.Add(append(append([]byte{}, bidFrame...), fanFrame...))
	f.Add(appendFrame(append([]byte{}, fanFrame...), frameEnvelope, []byte{0xff, 0xff, 0xff})) // malformed
	f.Add(appendFrame(append([]byte{}, bidFrame...), 77, []byte("a kind from the future")))
	f.Add(append(append([]byte{}, bidFrame...), 0))                                      // an empty frame
	f.Add(binary.AppendUvarint(append([]byte{}, bidFrame...), maxFrame+1))               // over the limit
	f.Add(append(append([]byte{}, bidFrame...), bytes.Repeat([]byte{0xff}, 11)...))      // a length that overflows
	f.Add(bidFrame[:len(bidFrame)-3])                                                    // cut mid-frame
	f.Add(append(append([]byte{}, bidFrame...), 0x80))                                   // cut mid-length
	f.Add(EncodeEnvelopeFrame(nil, message.Envelope{From: "c1", To: "ua", Kind: "???"})) // unknown envelope kind
	f.Add(appendFrame(nil, frameHello, []byte("again")))

	f.Fuzz(func(t *testing.T, stream []byte) {
		srv, b, conn, done := pipeServer(t, ServerConfig{MaxFrame: maxFrame})
		if _, err := b.Register("ua", 0); err != nil {
			t.Fatal(err)
		}
		go io.Copy(io.Discard, conn) // a terminal error frame needs a reader
		if _, err := conn.Write(stream); err != nil {
			// The handler refused a frame and hung up mid-stream; the
			// accounting below still holds for what it read.
			if !errors.Is(err, io.ErrClosedPipe) {
				t.Fatal(err)
			}
		}
		conn.Close()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("the handler never tore down")
		}

		// The stream as the protocol defines it, by a second reading.
		var frames, skipped, refused uint64
		for rest := stream; ; {
			length, n := binary.Uvarint(rest)
			if n == 0 && len(rest) < binary.MaxVarintLen64 {
				break // the stream ends between frames or inside a length
			}
			// Ten bytes that all say "more follows" are an overflow to a
			// reader, which knows an eleventh cannot belong to the length.
			if n <= 0 || length == 0 || length > maxFrame {
				refused = 1
				break
			}
			if rest = rest[n:]; uint64(len(rest)) < length {
				break // cut mid-frame: a disconnect, not an error
			}
			frames++
			if kind := rest[0]; kind != frameEnvelope && kind != frameFanOut {
				skipped++
			}
			rest = rest[length:]
		}
		ws := srv.WireStats()
		if ws.FramesIn != 1+frames || ws.ProtoErrs != refused || b.handed.Load()+ws.Malformed+skipped != frames {
			t.Fatalf("stream %x: %d whole frames (%d of a skipped kind), refused %d;\nhandler read %d frames after the hello, handed %d to the bus, counted %d malformed, %d protocol errors",
				stream, frames, skipped, refused, ws.FramesIn-1, b.handed.Load(), ws.Malformed, ws.ProtoErrs)
		}
	})
}
