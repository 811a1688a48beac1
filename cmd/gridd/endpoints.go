package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"time"

	"loadbalance/internal/health"
	"loadbalance/internal/obsplane"
	"loadbalance/internal/replica"
	"loadbalance/internal/trace"
	"loadbalance/internal/tsdb"
)

// This file is the one place a daemon role is assembled: what a worker, a
// serve daemon, a live primary and a standby have in common — who they are
// to the fleet, the HTTP surface, the metrics history, the obs hub, the
// replication sender — is written once here, and a role differs only in
// which of them it asks for.

// identity names the process to the fleet: its role in the obs hub's
// registry and the proc label on every span, log line and streamed batch —
// what stitches a multi-process trace back together on inspection.
func identity(role string, shard int, serveAddr, connect, name, replicaOf, replicaID string, live bool) (obsRole, proc string) {
	switch {
	case role == "concentrator":
		return "worker", fmt.Sprintf("gridd-cc-%03d", shard)
	case serveAddr != "" && live && replicaOf != "":
		// Standbys carry their replica id so a primary and its standbys
		// streaming to one fleet hub never collide on the proc label (the
		// name survives promotion, keeping the process's history in one
		// lane).
		return "standby", "gridd-live-" + replicaID
	case serveAddr != "" && live:
		return "live", "gridd-live"
	case serveAddr != "":
		return "serve", "gridd-serve"
	case connect != "":
		return "client", "gridd-" + name
	}
	return "gridd", "gridd"
}

// roleOptions is what the flag layer hands every HTTP-serving role alike.
type roleOptions struct {
	// metrics is the registry the role publishes on: the one run() also
	// handed to the process's obs stream and flight recorder. Nil — a role
	// assembled directly, as the tests do, several to a process — means its
	// own fresh scope of the process-wide histograms.
	metrics *trace.Registry
	pprof   bool // mount /debug/pprof/ on the role's HTTP endpoint
	history historyOptions
}

func (o roleOptions) registry() *trace.Registry {
	if o.metrics != nil {
		return o.metrics
	}
	return trace.DefaultRegistry().Scope()
}

// historyOptions carries the -tsdb-interval/-tsdb-retention flags: every
// role with an HTTP endpoint scrapes its own registry into a tsdb store
// served on /query, and a hub host retains the fleet's streamed samples in a
// second one behind /fleet/query.
type historyOptions struct {
	interval  time.Duration // 0 disables history entirely
	retention time.Duration
}

// store builds a store whose raw ring spans the retention at the scrape
// interval, clamped to keep per-series memory bounded (older points continue
// into the downsampled tier), or nil when history is disabled.
func (o historyOptions) store() *tsdb.Store {
	if o.interval <= 0 {
		return nil
	}
	return tsdb.New(tsdb.Config{RawCapacity: min(max(int(o.retention/o.interval), 64), 65536)})
}

// startHistory builds the role's history store and starts the scraper that
// fills it from reg; both are nil when history is disabled.
func startHistory(o historyOptions, reg *trace.Registry) (*tsdb.Store, *tsdb.Scraper) {
	store := o.store()
	if store == nil {
		return nil, nil
	}
	sc := tsdb.NewScraper(tsdb.ScrapeConfig{Store: store, Interval: o.interval, Registry: reg})
	sc.Start()
	return store, sc
}

// startHub hosts the fleet observability hub on addr: workers, standbys and
// serve processes stream their metric/log/span state to it and the host's
// mux serves the merged /fleet view. The bound address is published as
// <dataDir>/obs-addr, the same contract as repl-addr: processes started
// against a ":0" hub read it to find their -obs target.
func startHub(addr, dataDir string, history historyOptions) (*obsplane.Hub, error) {
	hub, err := obsplane.StartHub(obsplane.HubConfig{Addr: addr, History: history.store()})
	if err != nil {
		return nil, err
	}
	if dataDir != "" {
		if err := atomicWriteFile(dataDir, "obs-addr", []byte(hub.Addr())); err != nil {
			hub.Close()
			return nil, err
		}
	}
	fmt.Printf("gridd: fleet observability hub on %s\n", hub.Addr())
	return hub, nil
}

// startSender streams the journal under dataDir to hot standbys dialing
// addr, and publishes the bound address as <dataDir>/repl-addr so operators
// and tests using ":0" can find it. who is the subject of the stdout line.
func startSender(dataDir, addr, who string) (*replica.Sender, error) {
	sender, err := replica.StartSender(replica.SenderConfig{Dir: dataDir, Addr: addr})
	if err != nil {
		return nil, err
	}
	if err := atomicWriteFile(dataDir, "repl-addr", []byte(sender.Addr())); err != nil {
		sender.Close()
		return nil, err
	}
	fmt.Printf("gridd: %s to standbys on %s\n", who, sender.Addr())
	return sender, nil
}

// endpoints is a role's HTTP surface. Roles differ in which parts they have,
// never in how a path is mounted, so the role × endpoint parity the per-role
// content-type tests audit holds by construction.
type endpoints struct {
	healthz func() map[string]any // the role's /healthz document
	reg     *trace.Registry
	logger  *health.Logger
	history *tsdb.Store   // nil: no /query
	hub     *obsplane.Hub // nil: no /fleet/*
	pprof   bool
	live    *gridState // non-nil on a live daemon: /replication, /awards, /alerts, /feedback
}

// mux mounts every path the role serves. /trace is always there; it reports
// disabled until -trace.
func (e endpoints) mux() *http.ServeMux {
	jsonDoc := func(doc func() map[string]any) http.HandlerFunc {
		return func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(doc())
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", jsonDoc(e.healthz))
	mux.HandleFunc("/metrics", trace.MetricsHandler(e.reg.Gather))
	mux.HandleFunc("/logs", health.LogHandler(e.logger))
	mux.Handle("/trace", trace.Handler())
	if e.history != nil {
		mux.HandleFunc("/query", tsdb.Handler(e.history, func() int64 { return time.Now().UnixMicro() }))
	}
	if e.hub != nil {
		e.hub.Mount(mux)
	}
	if e.pprof {
		mux.HandleFunc("/debug/pprof/", httppprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	}
	if g := e.live; g != nil {
		mux.HandleFunc("/replication", jsonDoc(g.replicationDoc))
		mux.HandleFunc("/awards", g.serveAwards)
		mux.HandleFunc("/alerts", health.AlertsHandler(g.health.alerts))
		mux.HandleFunc("/feedback", health.FeedbackHandler(g.health.scorer))
	}
	return mux
}

// listen binds addr and serves the mux on it. It returns the bound address
// (tests bind ":0"), the channel the server's exit error arrives on, and the
// func that drains in-flight requests and stops it.
func (e endpoints) listen(addr string) (bound string, exited <-chan error, stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, nil, err
	}
	srv := &http.Server{Handler: e.mux()}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	return ln.Addr().String(), errc, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}, nil
}
