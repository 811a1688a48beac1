package agent

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"loadbalance/internal/bus"
	"loadbalance/internal/message"
)

// wireTap keeps a copy of every byte written through it.
type wireTap struct {
	mu  sync.Mutex
	buf []byte
}

func (w *wireTap) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.buf = append(w.buf, p...)
	w.mu.Unlock()
	return len(p), nil
}

func (w *wireTap) bytes() []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	return bytes.Clone(w.buf)
}

// sentBus is a Bus from outside the bus package that records what it is
// handed, as bench's tracing bus reads each envelope's Body.
type sentBus struct {
	bus.Bus
	mu   sync.Mutex
	sent []message.Envelope
}

func (b *sentBus) Send(env message.Envelope) error {
	b.mu.Lock()
	b.sent = append(b.sent, env)
	b.mu.Unlock()
	return b.Bus.Send(env)
}

// TestRuntimeSendContract pins what a Runtime hands each kind of bus. On
// Remote an award goes out carrying its payload, and the connection writes
// the frame the same envelope with Body = json.Marshal(p) makes, byte for
// byte, which arrives as that award. A bus from elsewhere, which may read
// Body, is handed the envelope with its Body.
func TestRuntimeSendContract(t *testing.T) {
	award := message.Award{Round: 2, CutDown: 0.16875000000000007, Reward: 9.123867891540531}
	body, err := json.Marshal(award)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("remote", func(t *testing.T) {
		b := newBus(t)
		inbox, err := b.Register("c1", 4)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := bus.ListenAndServe("127.0.0.1:0", b)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		// A relay in front of the server keeps what the Remote writes.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		tap := new(wireTap)
		go func() {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			up, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				return
			}
			defer up.Close()
			go io.Copy(conn, up)
			_, _ = io.Copy(up, io.TeeReader(conn, tap))
		}()

		remote := bus.NewRemote(ln.Addr().String())
		defer remote.Close()
		if !bus.TakesCarried(remote) {
			t.Fatal("Remote does not take carried envelopes")
		}
		rt, err := Start("cc", remote, HandlerFuncs{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Stop()
		if err := rt.Send("c1", "s1", award); err != nil {
			t.Fatal(err)
		}
		select {
		case got := <-inbox:
			if p, err := got.Decode(); err != nil || p != award || got.From != "cc" {
				t.Fatalf("delivered %+v, decoding to %#v, %v; want %#v from cc", got, p, err, award)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("the award never arrived")
		}
		want := bus.EncodeEnvelopeFrame(nil, message.Envelope{From: "cc", To: "c1", Session: "s1", Kind: message.KindAward, Body: body})
		if wrote := tap.bytes(); !bytes.HasSuffix(wrote, want) {
			t.Fatalf("the Remote wrote\n%x\nwhich does not end in the frame of the award with json.Marshal's Body\n%x", wrote, want)
		}
	})

	t.Run("foreign", func(t *testing.T) {
		b := newBus(t)
		if _, err := b.Register("c1", 4); err != nil {
			t.Fatal(err)
		}
		foreign := &sentBus{Bus: b}
		if bus.TakesCarried(foreign) {
			t.Fatal("a bus from outside the bus package takes carried envelopes")
		}
		rt, err := Start("cc", foreign, HandlerFuncs{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Stop()
		if err := rt.Send("c1", "s1", award); err != nil {
			t.Fatal(err)
		}
		foreign.mu.Lock()
		defer foreign.mu.Unlock()
		if len(foreign.sent) != 1 || !bytes.Equal(foreign.sent[0].Body, body) {
			t.Fatalf("the bus was handed %+v; want one award with the Body %s", foreign.sent, body)
		}
		if p, err := foreign.sent[0].Decode(); err != nil || p != award {
			t.Fatalf("the award handed over decodes to %#v, %v", p, err)
		}
	})
}
