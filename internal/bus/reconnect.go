package bus

// Multi-address dialing and reconnect-and-resume: the client side of the
// grid head's high-availability story. A fleet is configured with a dial
// list — the primary's address first, then the standbys' — and a
// Reconn-wrapped connection survives the primary's death: when its
// connection drops it re-dials through the list (the promoted standby
// answers at its own address), re-registers under the same agent name, and
// keeps the same Inbox channel, so agent code above it never learns the
// transport moved.

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"loadbalance/internal/message"
)

// SplitAddrList parses a comma-separated dial list ("host:1234,host2:1234")
// into its addresses, trimming whitespace and dropping empties.
func SplitAddrList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if a := strings.TrimSpace(part); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// DialList tries each address in order until one answers, with default
// tuning. It is the one-shot form; Reconn adds resume.
func DialList(addrs []string, name string) (*Client, error) {
	return DialListConfig(addrs, name, ClientConfig{})
}

// DialListConfig tries each address in order with explicit tuning.
func DialListConfig(addrs []string, name string, cfg ClientConfig) (*Client, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("%w: empty dial list", ErrUnknownAgent)
	}
	var firstErr error
	for _, addr := range addrs {
		cli, err := DialConfig(addr, name, cfg)
		if err == nil {
			return cli, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return nil, fmt.Errorf("bus: no address in %v answered: %w", addrs, firstErr)
}

// ReconnConfig tunes a reconnecting client.
type ReconnConfig struct {
	// Redial is the pause between failed dial rounds (default 200ms).
	Redial time.Duration
	// GiveUp abandons the session after this long without a connection
	// (default 15s): a fleet must not wait forever on a grid head that is
	// never coming back.
	GiveUp time.Duration
}

// withDefaults fills unset fields.
func (c ReconnConfig) withDefaults() ReconnConfig {
	if c.Redial <= 0 {
		c.Redial = 200 * time.Millisecond
	}
	if c.GiveUp <= 0 {
		c.GiveUp = 15 * time.Second
	}
	return c
}

// ReconnStats counts a reconnecting client's transport life.
type ReconnStats struct {
	Reconnects uint64 // successful re-dials after a connection loss
	Dropped    uint64 // sends refused while disconnected, and inbound envelopes shed at a full stable inbox
}

// Reconn is a Client with a dial list and automatic reconnect-and-resume.
// Its Inbox is stable across reconnects; envelopes that were in flight when
// a connection died are lost (the protocol's round timeouts and re-announce
// paths absorb that, exactly as they absorb a lossy bus).
type Reconn struct {
	name  string
	addrs []string
	cfg   ReconnConfig

	inbox chan message.Envelope
	done  chan struct{}
	stop  chan struct{} // closed by Close: a pause between dial rounds ends at once

	mu     sync.Mutex
	cur    *Client
	closed bool

	reconnects, dropped atomic.Uint64
}

// DialReconnecting connects to the first answering address of the list and
// keeps the session alive across server failures. The initial dial must
// succeed (a misconfigured list fails fast).
func DialReconnecting(addrs []string, name string, cfg ReconnConfig) (*Reconn, error) {
	cfg = cfg.withDefaults()
	cli, err := DialList(addrs, name)
	if err != nil {
		return nil, err
	}
	r := &Reconn{
		name:  name,
		addrs: append([]string(nil), addrs...),
		cfg:   cfg,
		inbox: make(chan message.Envelope, DefaultInboxSize),
		done:  make(chan struct{}),
		stop:  make(chan struct{}),
	}
	r.cur = cli
	go r.pump(cli)
	return r, nil
}

// pump forwards one connection's inbox into the stable inbox, then
// reconnects when it dies.
func (r *Reconn) pump(cli *Client) {
	defer close(r.done)
	for {
		for env := range cli.Inbox() {
			select {
			case r.inbox <- env:
			default:
				// Stable-inbox overflow mirrors Client's shedding semantics.
				r.dropped.Add(1)
			}
		}
		// Connection died (or Close cut it). Re-dial unless closing.
		next := r.redial()
		if next == nil {
			close(r.inbox)
			return
		}
		cli = next
	}
}

// redial loops over the address list until a connection answers, the give-up
// deadline passes, or the client is closed. It returns nil when the session
// is over.
func (r *Reconn) redial() *Client {
	deadline := time.Now().Add(r.cfg.GiveUp)
	for {
		r.mu.Lock()
		closed := r.closed
		r.mu.Unlock()
		if closed || time.Now().After(deadline) {
			return nil
		}
		cli, err := DialList(r.addrs, r.name)
		if err == nil {
			r.mu.Lock()
			if r.closed {
				r.mu.Unlock()
				go cli.Close()
				return nil
			}
			r.cur = cli
			r.mu.Unlock()
			r.reconnects.Add(1)
			return cli
		}
		select {
		case <-time.After(r.cfg.Redial):
		case <-r.stop:
			return nil
		}
	}
}

// Inbox returns the stable inbound channel. It closes when the session ends
// for good (Close, or reconnection given up).
func (r *Reconn) Inbox() <-chan message.Envelope { return r.inbox }

// Send transmits over the current connection. While disconnected it fails
// fast (the message-loss semantics agents already handle) rather than
// blocking a negotiation round.
func (r *Reconn) Send(env message.Envelope) error {
	r.mu.Lock()
	cli := r.cur
	closed := r.closed
	r.mu.Unlock()
	if closed || cli == nil {
		r.dropped.Add(1)
		return ErrClosed
	}
	if err := cli.Send(env); err != nil {
		r.dropped.Add(1)
		return err
	}
	return nil
}

// Stats snapshots the reconnect counters.
func (r *Reconn) Stats() ReconnStats {
	return ReconnStats{Reconnects: r.reconnects.Load(), Dropped: r.dropped.Load()}
}

// Addr returns the currently connected server address ("" when between
// connections).
func (r *Reconn) Addr() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cur != nil {
		return r.cur.RemoteAddr()
	}
	return ""
}

// Close ends the session and waits for the pump to exit.
func (r *Reconn) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	close(r.stop)
	cli := r.cur
	r.mu.Unlock()
	if cli != nil {
		cli.Close()
	}
	<-r.done
}
