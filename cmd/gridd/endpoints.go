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

// proc names the process to the fleet: the label on every span, log line and
// streamed batch — what stitches a multi-process trace back together on
// inspection. (Its role in the obs hub's registry is r's own name.)
func (o options) proc(r role) string {
	switch r {
	case roleWorker:
		return fmt.Sprintf("gridd-cc-%03d", o.shard)
	case roleStandby:
		// Standbys carry their replica id so a primary and its standbys
		// streaming to one fleet hub never collide on the proc label (the
		// name survives promotion, keeping the process's history in one
		// lane).
		return "gridd-live-" + o.replicaID
	case roleLive:
		return "gridd-live"
	case roleServe:
		return "gridd-serve"
	default:
		return "gridd-" + o.name
	}
}

// historyStore builds a metrics-history store for a role that scrapes every
// interval, or nil when history is disabled (-tsdb-interval 0): every role
// with an HTTP endpoint scrapes its own registry into one behind /query, and
// a hub host retains the fleet's streamed samples in a second one behind
// /fleet/query. The raw ring holds tsdb's default 1024 points a series
// (17 minutes at the default 1s interval); older points continue into the
// downsampled tier.
func historyStore(interval time.Duration) *tsdb.Store {
	if interval <= 0 {
		return nil
	}
	return tsdb.New(tsdb.Config{})
}

// startHistory builds the role's history store and starts the scraper that
// fills it from reg; both are nil when history is disabled.
func startHistory(interval time.Duration, reg *trace.Registry) (*tsdb.Store, *tsdb.Scraper) {
	store := historyStore(interval)
	if store == nil {
		return nil, nil
	}
	sc := tsdb.NewScraper(tsdb.ScrapeConfig{Store: store, Interval: interval, Registry: reg})
	sc.Start()
	return store, sc
}

// startHub hosts the fleet observability hub on addr: workers, standbys and
// serve processes stream their metric/log/span state to it and the host's
// mux serves the merged /fleet view.
func startHub(addr string, historyInterval time.Duration) (*obsplane.Hub, error) {
	hub, err := obsplane.StartHub(obsplane.HubConfig{Addr: addr, History: historyStore(historyInterval)})
	if err != nil {
		return nil, err
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
	mux.HandleFunc("/logs", health.LogHandler(health.Default()))
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
