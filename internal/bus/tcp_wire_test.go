package bus

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"loadbalance/internal/message"
)

// newServer boots a server over a fresh in-proc bus with a local "ua" agent.
func newServer(t *testing.T, cfg ServerConfig) (*Server, *InProc, <-chan message.Envelope) {
	t.Helper()
	inner, err := NewInProc(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(inner.Close)
	uaBox, err := inner.Register("ua", 64)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ListenAndServeConfig("127.0.0.1:0", inner, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv, inner, uaBox
}

// TestDuplicateHelloFailsFast dials twice under one name: the second dial
// must be answered with a terminal error frame at handshake time instead of
// hanging until its first read.
func TestDuplicateHelloFailsFast(t *testing.T) {
	srv, _, _ := newServer(t, ServerConfig{})
	c1, err := Dial(srv.Addr(), "c1")
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()

	start := time.Now()
	_, err = Dial(srv.Addr(), "c1")
	if err == nil {
		t.Fatal("duplicate hello must fail")
	}
	if !errors.Is(err, ErrRemote) || !strings.Contains(err.Error(), "already registered") {
		t.Fatalf("error = %v, want remote duplicate-agent rejection", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("rejection took %v, should be immediate", d)
	}
	if ws := srv.WireStats(); ws.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", ws.Rejected)
	}

	// The name frees up when the first client leaves; a redial then works —
	// which also proves the session teardown unregisters exactly once and
	// cleanly.
	c1.Close()
	redial := func() error {
		c, err := Dial(srv.Addr(), "c1")
		if err != nil {
			return err
		}
		c.Close()
		return nil
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		if err := redial(); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("name never freed after close: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestNonMagicFirstByteClosedAndCounted dials the way a v1 newline-JSON
// client would: the server must close the connection unanswered, count it as
// a protocol error, and never register the name the hello line carried.
func TestNonMagicFirstByteClosedAndCounted(t *testing.T) {
	srv, inner, _ := newServer(t, ServerConfig{})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("{\"hello\":\"x\"}\n")); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read = %d bytes, err %v; want the server to close unanswered", n, err)
	}
	ws := srv.WireStats()
	if ws.ProtoErrs != 1 || ws.Hellos != 0 || ws.FramesOut != 0 {
		t.Fatalf("wire stats = %+v, want 1 protocol error, no hello, nothing written", ws)
	}
	for _, a := range inner.Agents() {
		if a == "x" {
			t.Fatal("non-protocol hello registered x on the bus")
		}
	}
}

// TestVersionNegotiation checks the hello ack carries the version the server
// speaks, and that a client offering a higher version is answered with it
// (TestOldWireVersionRefused covers a lower one).
func TestVersionNegotiation(t *testing.T) {
	srv, _, _ := newServer(t, ServerConfig{})
	cli, err := Dial(srv.Addr(), "c1")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if v := cli.Version(); v != WireVersion {
		t.Fatalf("version = %d, want %d", v, WireVersion)
	}

	// A future client offering version 9 is acked at the server's version.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf := appendFrame([]byte{wireMagic, 9}, frameHello, []byte("c2"))
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	kind, payload, _, err := newFrameReader(conn, DefaultMaxFrame).next()
	if err != nil {
		t.Fatal(err)
	}
	if kind != frameHelloAck || len(payload) != 1 || payload[0] != WireVersion {
		t.Fatalf("ack = kind %d payload %v, want version %d ack", kind, payload, WireVersion)
	}
}

// TestMalformedBinaryFrameSkipped sends an undecodable envelope frame
// between two valid ones: the session survives and the malformed counter
// ticks.
func TestMalformedBinaryFrameSkipped(t *testing.T) {
	srv, _, uaBox := newServer(t, ServerConfig{})
	cli, err := Dial(srv.Addr(), "c1")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	if err := cli.Send(env(t, "c1", "ua")); err != nil {
		t.Fatal(err)
	}
	<-uaBox

	// Raw garbage wearing an envelope frame kind.
	raw := appendFrame(nil, frameEnvelope, []byte{0xff, 0xff, 0xff})
	if _, err := cli.conn.Write(raw); err != nil {
		t.Fatal(err)
	}
	// And a structurally valid envelope with an unknown kind tag.
	bogus := message.Envelope{From: "c1", To: "ua", Session: "s1", Kind: "bogus", Body: []byte("{}")}
	if _, err := cli.conn.Write(EncodeEnvelopeFrame(nil, bogus)); err != nil {
		t.Fatal(err)
	}

	if err := cli.Send(env(t, "c1", "ua")); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-uaBox:
		if got.From != "c1" {
			t.Fatalf("envelope = %+v", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("valid frame after garbage never delivered")
	}
	if ws := srv.WireStats(); ws.Malformed != 2 {
		t.Fatalf("malformed = %d, want 2", ws.Malformed)
	}
}

// TestOversizedFrameKillsSession declares a frame over the limit: the
// server answers with a terminal error and drops the connection.
func TestOversizedFrameKillsSession(t *testing.T) {
	srv, _, _ := newServer(t, ServerConfig{MaxFrame: 1 << 10})
	cli, err := DialConfig(srv.Addr(), "c1", ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	var huge [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(huge[:], 1<<20)
	if _, err := cli.conn.Write(huge[:n]); err != nil {
		t.Fatal(err)
	}
	select {
	case _, open := <-cli.Inbox():
		if open {
			t.Fatal("expected the inbox to close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("session survived an oversized frame")
	}
	if err := cli.Err(); err == nil || !strings.Contains(err.Error(), "size limit") {
		t.Fatalf("terminal error = %v, want frame-size rejection", err)
	}
}

// TestDecodeEnvelopeFrameHugeLength feeds the exported decoder a crafted
// 2^63-scale length varint: it must error, not overflow int and panic.
func TestDecodeEnvelopeFrameHugeLength(t *testing.T) {
	data := binary.AppendUvarint(nil, 1<<63)
	data = append(data, frameEnvelope)
	if _, _, err := DecodeEnvelopeFrame(data); err == nil {
		t.Fatal("huge declared length must be rejected")
	}
	// And a merely-large length that exceeds the buffer.
	data = binary.AppendUvarint(nil, 1<<20)
	data = append(data, frameEnvelope)
	if _, _, err := DecodeEnvelopeFrame(data); err == nil {
		t.Fatal("length beyond the buffer must be rejected")
	}
}

// TestMidFrameDisconnect drops the connection halfway through a frame; the
// server must unwind the session and free the name.
func TestMidFrameDisconnect(t *testing.T) {
	srv, inner, _ := newServer(t, ServerConfig{})
	cli, err := Dial(srv.Addr(), "c1")
	if err != nil {
		t.Fatal(err)
	}

	full := EncodeEnvelopeFrame(nil, env(t, "c1", "ua"))
	if _, err := cli.conn.Write(full[:len(full)/2]); err != nil {
		t.Fatal(err)
	}
	cli.Close()

	deadline := time.Now().Add(3 * time.Second)
	for {
		agents := inner.Agents()
		if len(agents) == 1 && agents[0] == "ua" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("agent never unregistered after mid-frame disconnect: %v", agents)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerCloseRacesHandlers closes the server while a crowd of clients is
// mid-handshake and mid-send; nothing may deadlock or panic (run with -race
// in CI).
func TestServerCloseRacesHandlers(t *testing.T) {
	inner, err := NewInProc(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	if _, err := inner.Register("ua", 1024); err != nil {
		t.Fatal(err)
	}
	srv, err := ListenAndServe("127.0.0.1:0", inner)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cli, err := Dial(srv.Addr(), fmt_c(i))
			if err != nil {
				return // the race is the point: rejected dials are fine
			}
			for j := 0; j < 50; j++ {
				if err := cli.Send(env(t, fmt_c(i), "ua")); err != nil {
					break
				}
			}
			cli.Close()
		}(i)
	}
	time.Sleep(10 * time.Millisecond)
	srv.Close()
	wg.Wait()
}

// TestServerCloseFlushesQueuedFrames: what the bus handed a connection before
// Close reaches the peer — a host can send a session end and close at once.
func TestServerCloseFlushesQueuedFrames(t *testing.T) {
	srv, inner, _ := newServer(t, ServerConfig{})
	cli, err := DialConfig(srv.Addr(), "c1", ClientConfig{InboxSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	const n = 60 // within the connection's outbound queue (256)
	for i := 0; i < n; i++ {
		if err := inner.Send(ping("ua", "c1", i+1)); err != nil {
			t.Fatal(err)
		}
	}
	srv.Close()
	got := 0
	for range cli.Inbox() {
		got++
	}
	if got != n {
		t.Fatalf("peer received %d of the %d frames queued before Close", got, n)
	}
	if err := cli.Err(); err != nil {
		t.Fatalf("a closing server sent a terminal error: %v", err)
	}
}

// TestCloseCutsASilentHandshake: a peer that connects and sends nothing is
// cut by Close at once. Its handshake read had no deadline and Close cut only
// connections past their hello, so Close waited until the peer hung up.
func TestCloseCutsASilentHandshake(t *testing.T) {
	srv, _, _ := newServer(t, ServerConfig{})
	silent, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	// The server accepts in order: a handshake done behind the silent dial
	// means the silent connection is being served.
	cli, err := Dial(srv.Addr(), "c1")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	closed := make(chan struct{})
	go func() { srv.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		t.Fatal("Close is still waiting on a peer that never sent its hello")
	}
}

// TestListenAndServeNeedsGroups: each connection's name is a group on the bus
// it is served onto, so a bus that cannot host one is refused at once.
func TestListenAndServeNeedsGroups(t *testing.T) {
	inner, err := NewInProc(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	if srv, err := ListenAndServe("127.0.0.1:0", plainBus{inner}); !errors.Is(err, ErrNoGroups) {
		if srv != nil {
			srv.Close()
		}
		t.Fatalf("ListenAndServe over a bus without groups = %v, want ErrNoGroups", err)
	}
}

// fmt_c names a test client.
func fmt_c(i int) string { return "c" + string(rune('a'+i)) }

// TestClientInboxOverflowCounted floods a one-slot inbox and expects the
// overflow to be counted, not silent.
func TestClientInboxOverflowCounted(t *testing.T) {
	srv, inner, _ := newServer(t, ServerConfig{})
	_ = srv
	cli, err := DialConfig(srv.Addr(), "c1", ClientConfig{InboxSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const sends = 20
	for i := 0; i < sends; i++ {
		reply, err := message.NewEnvelope("ua", "c1", "s1", message.Award{Round: 1, CutDown: 0.2, Reward: 8.5})
		if err != nil {
			t.Fatal(err)
		}
		if err := inner.Send(reply); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		st := cli.Stats()
		if st.Received+st.Dropped == sends {
			if st.Dropped == 0 {
				t.Fatalf("stats = %+v, expected drops at a 1-slot inbox", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats never converged: %+v", cli.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClientSendConcurrentWithClose stresses the Send/Close split: Close
// must never wait behind a Send's network write.
func TestClientSendConcurrentWithClose(t *testing.T) {
	srv, _, _ := newServer(t, ServerConfig{})
	cli, err := Dial(srv.Addr(), "c1")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			if err := cli.Send(env(t, "c1", "ua")); err != nil {
				return
			}
		}
	}()
	time.Sleep(time.Millisecond)
	done := make(chan struct{})
	go func() {
		cli.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked behind Send")
	}
	wg.Wait()
}

// TestRemoteBusRoundTrip drives the Bus adapter: two agents registered on a
// Remote exchange envelopes through the server's bridged bus.
func TestRemoteBusRoundTrip(t *testing.T) {
	srv, _, uaBox := newServer(t, ServerConfig{})
	remote := NewRemote(srv.Addr())
	defer remote.Close()

	c1Box, err := remote.Register("c1", 16)
	if err != nil {
		t.Fatal(err)
	}
	if got := remote.Agents(); len(got) != 1 || got[0] != "c1" {
		t.Fatalf("agents = %v", got)
	}
	if err := remote.Send(env(t, "c1", "ua")); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-uaBox:
		if got.From != "c1" {
			t.Fatalf("envelope = %+v", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("remote send never delivered")
	}

	// Unknown sender is rejected locally.
	if err := remote.Send(env(t, "ghost", "ua")); !errors.Is(err, ErrUnknownAgent) {
		t.Fatalf("ghost send error = %v", err)
	}
	// Duplicate registration is rejected before dialing.
	if _, err := remote.Register("c1", 16); !errors.Is(err, ErrDuplicateAgent) {
		t.Fatalf("duplicate register error = %v", err)
	}
	// Unregister closes the inbox and frees the name on the server.
	remote.Unregister("c1")
	if _, open := <-c1Box; open {
		t.Fatal("inbox should close on Unregister")
	}
}
