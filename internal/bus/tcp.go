package bus

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"loadbalance/internal/health"
	"loadbalance/internal/message"
)

// The TCP transport bridges remote agents onto a local Bus, so the rest of
// the system cannot tell remote agents from local ones. Connections speak the
// binary frame protocol of wire.go: a connection opens with a hello naming the
// remote agent; the server answers with a hello-ack or, on rejection, a
// terminal error frame, then both sides exchange message envelopes.

// Connection deadlines: writeTimeout bounds one write to a peer, so a
// stalled peer cannot wedge a writer (a server's default, every client's
// bound), and helloTimeout a handshake: a client's dial round trip, and the
// server's read of a preamble and hello.
const (
	writeTimeout = 10 * time.Second
	helloTimeout = 5 * time.Second
)

// ServerConfig tunes the TCP server's overload behaviour.
type ServerConfig struct {
	// WriteTimeout bounds each write to a client, so one stalled peer cannot
	// wedge its writer goroutine (default 10s).
	WriteTimeout time.Duration
	// OutboundQueue bounds the encoded frames a connection may have awaiting
	// its writer; envelopes arriving at a full queue are shed and counted in
	// WireStats.Dropped (default 256).
	OutboundQueue int
	// MaxFrame bounds one inbound frame in bytes (default DefaultMaxFrame).
	MaxFrame int
}

// withDefaults fills unset fields.
func (c ServerConfig) withDefaults() ServerConfig {
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = writeTimeout
	}
	if c.OutboundQueue <= 0 {
		c.OutboundQueue = 256
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = DefaultMaxFrame
	}
	return c
}

// Server accepts TCP connections and bridges each remote agent onto the
// wrapped bus.
type Server struct {
	bus Bus
	ln  net.Listener
	cfg ServerConfig

	mu     sync.Mutex
	conns  map[net.Conn]struct{} // every connection from its accept
	closed bool
	wg     sync.WaitGroup

	stats wireCounters
}

// ListenAndServe starts a server on addr with default tuning, bridging onto
// bus. Callers must Close the returned server.
func ListenAndServe(addr string, b Bus) (*Server, error) {
	return ListenAndServeConfig(addr, b, ServerConfig{})
}

// ListenAndServeConfig starts a server with explicit overload tuning. Each
// connection's name is a group on b, so b must host groups (ErrNoGroups).
func ListenAndServeConfig(addr string, b Bus, cfg ServerConfig) (*Server, error) {
	if !HostsGroups(b) {
		return nil, ErrNoGroups
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("bus: listen %s: %w", addr, err)
	}
	s := &Server{bus: b, ln: ln, cfg: cfg.withDefaults(), conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// WireStats returns a snapshot of the server's transport counters.
func (s *Server) WireStats() WireStats { return s.stats.snapshot() }

// acceptLoop accepts connections until the listener closes.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// writeRaw writes buf — whole frames, as many as frames says — to conn under
// the server's write deadline.
func (s *Server) writeRaw(conn net.Conn, buf []byte, frames int) error {
	_ = conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	_, err := conn.Write(buf)
	_ = conn.SetWriteDeadline(time.Time{})
	if err == nil {
		s.stats.framesOut.Add(uint64(frames))
		s.stats.bytesOut.Add(uint64(len(buf)))
	}
	return err
}

// rejectBinary sends a terminal error frame and gives up on the connection.
func (s *Server) rejectBinary(conn net.Conn, reason string) {
	s.stats.rejected.Add(1)
	_ = s.writeRaw(conn, appendFrame(nil, frameError, []byte(reason)), 1)
}

// outbound is the output one server connection has pending: whole frames, back
// to back in one buffer, and the connection's one bound. Whoever has a frame
// for the peer (the handshake, its ack; the bus, through the sink of the
// connection's name; the reader, a terminal error) appends it under the lock,
// so frames never interleave; the writer takes everything pending in one
// piece, leaves the buffer it wrote last to collect what comes next, and makes
// one write of it. The two buffers are all a connection's output ever
// allocates, however many envelopes cross it, and while a write is in flight
// the frames behind it coalesce into the next one.
type outbound struct {
	mu     sync.Mutex
	more   sync.Cond // signalled when frames arrive or the state below changes
	buf    []byte    // the pending frames
	frames int       // how many; add refuses more than limit
	limit  int
	closed bool // nothing more will be added: take drains, then reports done
	failed bool // the writer gave up: add refuses everything
}

func newOutbound(limit int) *outbound {
	o := &outbound{buf: make([]byte, 0, minFrameBuf), limit: limit}
	o.more.L = &o.mu
	return o
}

// add appends one frame, written by encode, to the pending output. It reports
// false, having called nothing, when the queue is full or the writer has
// failed: the frame is shed — overload is the one time shedding must be cheap,
// so a shed envelope is not even encoded. It also reports false when encode
// fails, which must leave the buffer as it found it: nothing is added.
func (o *outbound) add(encode func(dst []byte) ([]byte, error)) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.frames >= o.limit || o.failed {
		return false
	}
	buf, err := encode(o.buf)
	if err != nil {
		return false
	}
	o.buf = buf
	o.frames++
	o.more.Signal()
	return true
}

// control returns an encode for add that appends one frame of the
// connection's own: a hello-ack or an error.
func control(kind byte, payload []byte) func(dst []byte) ([]byte, error) {
	return func(dst []byte) ([]byte, error) { return appendFrame(dst, kind, payload), nil }
}

// take waits for pending frames and returns them with their count, leaving
// spare (emptied) in their place. It reports false once the queue is closed
// and drained.
func (o *outbound) take(spare []byte) (buf []byte, frames int, ok bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for o.frames == 0 && !o.closed {
		o.more.Wait()
	}
	buf, frames = o.buf, o.frames
	o.buf, o.frames = spare[:0], 0
	return buf, frames, frames > 0
}

// close marks the end of the output; fail marks the writer's death and
// returns the frames that were pending, which nobody will write now.
func (o *outbound) close() {
	o.mu.Lock()
	o.closed = true
	o.mu.Unlock()
	o.more.Signal()
}

func (o *outbound) fail() (shed int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	shed, o.frames, o.failed = o.frames, 0, true
	return shed
}

// handle serves one client connection for its lifetime.
func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	if !s.track(conn, time.Now().Add(helloTimeout)) {
		return
	}
	defer s.untrack(conn)
	fr := newFrameReader(conn, s.cfg.MaxFrame)

	// Preamble: magic + the client's version. The server speaks exactly
	// WireVersion and says so in the ack.
	var preamble [2]byte
	if _, err := io.ReadFull(fr.r, preamble[:]); err != nil {
		return
	}
	if preamble[0] != wireMagic {
		s.stats.protoErrs.Add(1)
		return // not this protocol; nothing safe to answer
	}
	if preamble[1] < WireVersion {
		s.rejectBinary(conn, fmt.Sprintf("unsupported protocol version %d (server speaks %d)", preamble[1], WireVersion))
		return
	}
	kind, payload, n, err := fr.next()
	if err != nil || kind != frameHello {
		s.rejectBinary(conn, "expected hello frame")
		return
	}
	if !s.track(conn, time.Time{}) {
		return
	}
	s.stats.framesIn.Add(1)
	s.stats.bytesIn.Add(uint64(n))
	name := string(payload)

	// The hello-ack leads the pending output. The connection's name is a
	// group of one whose sink encodes each envelope straight in behind it,
	// shedding (counted) at a full queue, so the bus never finds the name
	// full; the name leaving closes the queue.
	out := newOutbound(s.cfg.OutboundQueue)
	out.add(control(frameHelloAck, []byte{WireVersion}))
	unregister, err := RegisterGroup(s.bus, []string{name}, func(_ int, env message.Envelope) bool {
		// A carried payload is encoded here, straight into the pending
		// buffer; one that does not encode is shed like an envelope at a
		// full queue, and leaves no partial frame behind.
		if !out.add(func(dst []byte) ([]byte, error) { return appendEnvelopeFrame(dst, frameEnvelope, env, nil) }) {
			s.stats.dropped.Add(1)
		}
		return true
	}, out.close)
	if err != nil {
		// A duplicate or invalid hello is answered, not silently dropped:
		// the dialer learns its fate instead of hanging on the first read.
		s.rejectBinary(conn, err.Error())
		return
	}
	s.stats.hellos.Add(1)

	// The writer puts what is pending on the wire, one write under one
	// deadline.
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		spare := make([]byte, 0, minFrameBuf)
		for {
			buf, frames, ok := out.take(spare)
			if !ok {
				return
			}
			if err := s.writeRaw(conn, buf, frames); err != nil {
				// A dead or stalled peer: cut the connection so the reader
				// unblocks. Nothing waits on the writer — from here on the
				// sink sheds whatever the bus still delivers.
				s.stats.dropped.Add(uint64(frames + out.fail()))
				_ = conn.Close()
				return
			}
			if spare = buf; cap(spare) > retainedFrameBuf {
				spare = nil
			}
		}
	}()
	defer func() {
		// Single teardown path: unregistering closes the queue, the writer
		// drains it and exits.
		unregister()
		<-writerDone
	}()

	// Reader: forward connection envelopes to the bus.
	for {
		kind, payload, n, err := fr.next()
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				return // Close stopped the read; the teardown flushes what is queued
			}
			if err == ErrFrameTooLarge || (err != io.EOF && err != io.ErrUnexpectedEOF) {
				// The writer goroutine owns the connection now; queue the
				// terminal error so it cannot interleave with an in-flight
				// envelope frame (a full queue sheds it like any other). The
				// deferred teardown closes the queue behind it.
				s.stats.protoErrs.Add(1)
				out.add(control(frameError, []byte(fmt.Sprintf("closing: %v", err))))
			}
			return
		}
		s.stats.framesIn.Add(1)
		s.stats.bytesIn.Add(uint64(n))
		var env message.Envelope
		var to []string
		switch kind {
		case frameEnvelope:
			env, err = message.UnmarshalBinary(payload)
		case frameFanOut:
			to, env, err = decodeFanOut(payload)
		default:
			continue // unknown frame kinds are ignored for forward compatibility
		}
		if err == nil {
			env.From = name // trust boundary: the connection owns its identity
			// The payload checked here travels on with the envelope, so the
			// local agents it is delivered to do not parse the body again —
			// and a fan-out is decoded and checked once for all of them. A
			// negotiation's kinds were checked where the frame landed
			// (UnmarshalBinary), and pass through at no cost.
			env, err = env.Validated()
		}
		if err != nil {
			s.stats.malformed.Add(1)
			continue // skip malformed frames rather than killing the session
		}
		// Delivery errors are the protocol layer's concern.
		if kind == frameFanOut {
			_ = SendTo(s.bus, env, to)
		} else {
			_ = s.bus.Send(env)
		}
	}
}

// track records a live connection and sets its read deadline — the
// handshake's from accept, none once the hello is in — unless the server is
// closing, which it reports as false: Close's deadline is never overwritten.
func (s *Server) track(conn net.Conn, readBy time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	_ = conn.SetReadDeadline(readBy)
	return true
}

// untrack forgets a connection.
func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// Close stops accepting and reading — a connection still in its handshake
// included — and waits for each connection to write what was already queued
// for its peer — each write bounded by WriteTimeout — before it is cut. A
// caller that has handed a session end to the bus can close straight after:
// its peers receive it.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for c := range s.conns {
		_ = c.SetReadDeadline(time.Now()) // the reader returns; its teardown drains the writer
	}
	s.mu.Unlock()

	_ = s.ln.Close()
	s.wg.Wait()
}

// ClientConfig tunes a client connection.
type ClientConfig struct {
	// InboxSize buffers inbound envelopes (default 64). Envelopes arriving
	// at a full inbox are dropped and counted, matching InProc overload
	// semantics.
	InboxSize int
	// MaxFrame bounds one frame in bytes, inbound and outbound (default
	// DefaultMaxFrame): a fan-out that would make a larger frame is split, an
	// envelope that would is refused with ErrFrameTooLarge.
	MaxFrame int
}

// withDefaults fills unset fields.
func (c ClientConfig) withDefaults() ClientConfig {
	if c.InboxSize <= 0 {
		c.InboxSize = DefaultInboxSize
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = DefaultMaxFrame
	}
	return c
}

// ClientStats counts a client connection's traffic.
type ClientStats struct {
	Received  uint64 // envelopes decoded off the wire
	Dropped   uint64 // envelopes discarded at a full inbox
	Malformed uint64 // envelope frames skipped as undecodable
	Sent      uint64 // frames written to the wire: one per Send, one per fan-out
}

// Client is a remote agent's connection to a Server.
type Client struct {
	name    string
	conn    net.Conn
	cfg     ClientConfig
	version int
	reader  *frameReader

	inbox chan message.Envelope
	done  chan struct{}

	mu     sync.Mutex // guards closed
	wmu    sync.Mutex // serialises connection writes; guards wbuf
	wbuf   []byte     // the frame being written; the next overwrites it
	closed bool

	statReceived, statDropped, statMalformed, statSent atomic.Uint64
	dropOnce                                           sync.Once

	errMu   sync.Mutex
	termErr error
}

// Dial connects to a server with default tuning and identifies as the named
// agent. It returns once the server has acknowledged the hello, so a
// rejected name (already registered, say) fails here instead of stalling
// the first read.
func Dial(addr, name string) (*Client, error) {
	return DialConfig(addr, name, ClientConfig{})
}

// DialConfig connects with explicit tuning.
func DialConfig(addr, name string, cfg ClientConfig) (*Client, error) {
	if name == "" {
		return nil, fmt.Errorf("%w: empty name", ErrUnknownAgent)
	}
	cfg = cfg.withDefaults()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("bus: dial %s: %w", addr, err)
	}
	c := &Client{
		name:  name,
		conn:  conn,
		cfg:   cfg,
		inbox: make(chan message.Envelope, cfg.InboxSize),
		done:  make(chan struct{}),
	}
	if err := c.handshake(); err != nil {
		_ = conn.Close()
		return nil, err
	}
	go c.readLoop()
	return c, nil
}

// handshake sends the preamble and hello, then waits for the ack.
func (c *Client) handshake() error {
	deadline := time.Now().Add(helloTimeout)
	_ = c.conn.SetDeadline(deadline)
	defer c.conn.SetDeadline(time.Time{})

	buf := appendFrame([]byte{wireMagic, WireVersion}, frameHello, []byte(c.name))
	if _, err := c.conn.Write(buf); err != nil {
		return fmt.Errorf("bus: hello: %w", err)
	}
	r := newFrameReader(c.conn, c.cfg.MaxFrame)
	kind, payload, _, err := r.next()
	if err != nil {
		return fmt.Errorf("%w: no hello ack: %v", ErrBadHandshake, err)
	}
	switch kind {
	case frameHelloAck:
		if len(payload) < 1 {
			return fmt.Errorf("%w: empty hello ack", ErrBadHandshake)
		}
		c.version = int(payload[0])
		if c.version != WireVersion {
			return fmt.Errorf("%w: server negotiated version %d, client speaks %d", ErrBadHandshake, c.version, WireVersion)
		}
		c.reader = r
		return nil
	case frameError:
		return fmt.Errorf("%w: %s", ErrRemote, payload)
	default:
		return fmt.Errorf("%w: unexpected frame kind %d", ErrBadHandshake, kind)
	}
}

// readLoop pumps inbound frames into the inbox until the connection dies.
func (c *Client) readLoop() {
	defer close(c.inbox)
	defer close(c.done)
	for {
		kind, payload, _, err := c.reader.next()
		if err != nil {
			return
		}
		switch kind {
		case frameEnvelope:
			env, err := message.UnmarshalBinary(payload)
			if err != nil {
				c.statMalformed.Add(1)
				continue // skip a malformed frame rather than kill the session
			}
			// The one sender: room seen here is room at the send, and a
			// reader never holds an envelope not yet counted.
			if len(c.inbox) < cap(c.inbox) {
				c.statReceived.Add(1)
				c.inbox <- env
			} else {
				// Inbox full: shed, matching InProc semantics under
				// overload — but never silently.
				c.statDropped.Add(1)
				c.dropOnce.Do(func() {
					health.Log(health.Warn, "bus", "client inbox full, dropping inbound envelopes (counted in Stats)",
						health.Str("client", c.name))
				})
			}
		case frameError:
			c.setTermErr(fmt.Errorf("%w: %s", ErrRemote, payload))
			return
		}
	}
}

// Inbox returns the channel of inbound envelopes. It closes when the
// connection ends.
func (c *Client) Inbox() <-chan message.Envelope { return c.inbox }

// Version returns the negotiated wire protocol version.
func (c *Client) Version() int { return c.version }

// RemoteAddr returns the server address this client is connected to.
func (c *Client) RemoteAddr() string { return c.conn.RemoteAddr().String() }

// Stats returns a snapshot of the connection's traffic counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Received:  c.statReceived.Load(),
		Dropped:   c.statDropped.Load(),
		Malformed: c.statMalformed.Load(),
		Sent:      c.statSent.Load(),
	}
}

// Err returns the terminal error frame received from the server, if any.
func (c *Client) Err() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	return c.termErr
}

// setTermErr records the first terminal error.
func (c *Client) setTermErr(err error) {
	c.errMu.Lock()
	if c.termErr == nil {
		c.termErr = err
	}
	c.errMu.Unlock()
}

// Send transmits an envelope. From is forced to the client's identity. An
// envelope whose frame would exceed MaxFrame fails with ErrFrameTooLarge and
// nothing is written: the peer would answer such a frame by closing the
// connection, and every later message with it. The write is under a deadline,
// so a stalled peer delays Send by at most writeTimeout and never blocks
// Close.
func (c *Client) Send(env message.Envelope) error {
	env.From = c.name
	return c.write(frameEnvelope, env, nil)
}

// SendTo transmits one envelope for every agent named in to as a single
// fan-out frame; the server's bus does the per-recipient deliveries (see the
// package-level SendTo). A list too long for one frame goes as two halves; an
// envelope too large for one recipient fails like Send's.
func (c *Client) SendTo(env message.Envelope, to []string) error {
	if len(to) == 0 {
		return nil
	}
	env.From = c.name
	return c.write(frameFanOut, env, to)
}

// write puts env on the wire as one frame of the given kind, encoding its
// payload once, into the client's buffer. The frame is measured once it is
// built: one over MaxFrame is not written, and a fan-out's recipients are
// split in halves instead, which share one Body.
func (c *Client) write(kind byte, env message.Envelope, to []string) error {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return ErrClosed
	}

	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.writeLocked(kind, env, to)
}

// writeLocked is write under the write gate.
func (c *Client) writeLocked(kind byte, env message.Envelope, to []string) error {
	if c.wbuf == nil {
		c.wbuf = make([]byte, 0, minFrameBuf)
	}
	frame, err := appendEnvelopeFrame(c.wbuf[:0], kind, env, to)
	if err != nil {
		return fmt.Errorf("bus: send: %w", err)
	}
	if c.wbuf = frame; cap(c.wbuf) > retainedFrameBuf {
		c.wbuf = nil
	}
	if size, _ := binary.Uvarint(frame); size > uint64(c.cfg.MaxFrame) {
		if len(to) < 2 {
			return fmt.Errorf("%w: %s frame of %d bytes (limit %d)", ErrFrameTooLarge, env.Kind, size, c.cfg.MaxFrame)
		}
		if env, err = env.WithBody(); err != nil {
			return fmt.Errorf("bus: send: %w", err)
		}
		half := len(to) / 2
		err := c.writeLocked(kind, env, to[:half])
		if err2 := c.writeLocked(kind, env, to[half:]); err == nil {
			err = err2
		}
		return err
	}
	_ = c.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	_, err = c.conn.Write(frame) //gridlint:allow lockedsend(wmu is a dedicated per-connection writer gate, not a state lock: it guards only the connection's write half and the one buffer frames are encoded into, and Close aborts in-flight writes)
	_ = c.conn.SetWriteDeadline(time.Time{})
	if err != nil {
		return fmt.Errorf("bus: send: %w", err)
	}
	c.statSent.Add(1)
	return nil
}

// Close tears down the connection and waits for the read loop to exit. It
// does not wait on the write path: closing the connection aborts any
// in-flight write.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	_ = c.conn.Close()
	<-c.done
}
