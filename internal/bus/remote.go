package bus

import (
	"fmt"
	"sort"
	"sync"

	"loadbalance/internal/message"
)

// Remote is a Bus whose agents live behind TCP connections to a Server:
// Register dials the server as the named agent, so every registered agent
// owns its own connection. Agent code (internal/agent.Runtime, the cluster
// concentrators) runs unchanged against it — the substrate is the only
// difference — which is how a concentrator tier is placed in a separate OS
// process from the Utility Agent it negotiates with.
type Remote struct {
	addrs []string
	cfg   ClientConfig

	mu      sync.Mutex
	clients map[string]*Client
	closed  bool
}

var _ Bus = (*Remote)(nil)

// NewRemote returns a Bus view of the server at addr with default tuning.
func NewRemote(addr string) *Remote {
	return NewRemoteConfig(addr, ClientConfig{})
}

// NewRemoteConfig returns a Bus view with explicit connection tuning.
func NewRemoteConfig(addr string, cfg ClientConfig) *Remote {
	return NewRemoteList([]string{addr}, cfg)
}

// NewRemoteList returns a Bus view over a dial list: each Register tries the
// addresses in order until one answers — the high-availability form, where
// the list names the primary grid head first and its standbys after it.
func NewRemoteList(addrs []string, cfg ClientConfig) *Remote {
	return &Remote{addrs: append([]string(nil), addrs...), cfg: cfg, clients: make(map[string]*Client)}
}

// Register implements Bus: it dials the server as name and returns the
// connection's inbox. The handshake is synchronous, so a name the server
// rejects (duplicate, say) fails here.
func (r *Remote) Register(name string, inboxSize int) (<-chan message.Envelope, error) {
	if name == "" {
		return nil, fmt.Errorf("%w: empty name", ErrUnknownAgent)
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrClosed
	}
	if _, ok := r.clients[name]; ok {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrDuplicateAgent, name)
	}
	r.mu.Unlock()

	cfg := r.cfg
	if inboxSize > 0 {
		cfg.InboxSize = inboxSize
	}
	cli, err := DialListConfig(r.addrs, name, cfg)
	if err != nil {
		return nil, err
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		go cli.Close()
		return nil, ErrClosed
	}
	if _, ok := r.clients[name]; ok {
		go cli.Close()
		return nil, fmt.Errorf("%w: %q", ErrDuplicateAgent, name)
	}
	r.clients[name] = cli
	return cli.Inbox(), nil
}

// Unregister implements Bus: it closes the agent's connection, which closes
// its inbox.
func (r *Remote) Unregister(name string) {
	r.mu.Lock()
	cli, ok := r.clients[name]
	delete(r.clients, name)
	r.mu.Unlock()
	if ok {
		cli.Close()
	}
}

// Send implements Bus: the envelope travels over its sender's connection;
// routing (including broadcast for an empty To) happens on the server's
// bridged bus.
func (r *Remote) Send(env message.Envelope) error {
	cli, err := r.client(env.From)
	if err != nil {
		return err
	}
	return cli.Send(env)
}

// SendTo carries the fan-out as one frame over its sender's connection; the
// server's bridged bus delivers it (see the package-level SendTo).
func (r *Remote) SendTo(env message.Envelope, to []string) error {
	cli, err := r.client(env.From)
	if err != nil {
		return err
	}
	return cli.SendTo(env, to)
}

// client returns the connection registered here under name.
func (r *Remote) client(name string) (*Client, error) {
	r.mu.Lock()
	cli, ok := r.clients[name]
	r.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q is not registered here", ErrUnknownAgent, name)
	}
	return cli, nil
}

// Agents implements Bus: the locally registered agent names, sorted. Remote
// peers on the server's bus are not visible from here.
func (r *Remote) Agents() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.clients))
	for n := range r.clients {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Stats sums the traffic counters across the live connections.
func (r *Remote) Stats() ClientStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	var total ClientStats
	for _, cli := range r.clients {
		s := cli.Stats()
		total.Received += s.Received
		total.Dropped += s.Dropped
		total.Malformed += s.Malformed
		total.Sent += s.Sent
	}
	return total
}

// Close tears down every connection; subsequent Registers fail.
func (r *Remote) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	clients := make([]*Client, 0, len(r.clients))
	for n, c := range r.clients {
		clients = append(clients, c)
		delete(r.clients, n)
	}
	r.mu.Unlock()
	for _, c := range clients {
		c.Close()
	}
}
