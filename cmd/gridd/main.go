// Command gridd runs the negotiation as separate OS processes over TCP: the
// Utility Agent as a daemon and each Customer Agent as a client, which is
// the "large open distributed industrial systems" deployment the paper's
// Discussion aims at.
//
// Server (waits for the -customers clients c01..cNN to dial in, then
// negotiates through the session engine, cluster.RunDialIn):
//
//	gridd -serve :9340 -customers 10
//
// Sharded server (4 Concentrator Agents front the fleet, so the Utility
// Agent sees 4 aggregated bidders instead of 100):
//
//	gridd -serve :9340 -customers 100 -shards 4
//
// Live server (a continuously operating grid: an in-process fleet is
// negotiated once, then metered every -tick; drifting shards re-negotiate
// incrementally while -serve's address answers HTTP /healthz, /metrics and
// /awards):
//
//	gridd -serve :8080 -live -customers 64 -shards 16 -tick 1s
//
// Durable live server (negotiated state, telemetry series and demand factors
// survive restarts: every decision is journaled under -data-dir and a
// restart recovers the run mid-flight, resuming at the next tick with awards
// byte-identical to an uninterrupted run):
//
//	gridd -serve :8080 -live -customers 64 -shards 16 -data-dir /var/lib/gridd
//
// Replicated live server (the journal streams to hot standbys on -repl-addr;
// the bound address is published as <data-dir>/repl-addr):
//
//	gridd -serve :8080 -live -customers 64 -shards 16 -data-dir /var/lib/gridd \
//	      -repl-addr :9400
//
// Hot standby (replays the primary's WAL stream into live in-memory state,
// serves /healthz, /metrics, /replication and /awards read-only, and — if it
// holds the lowest id among -peers — promotes itself to primary when the
// stream goes silent past -failover-timeout):
//
//	gridd -serve :8081 -live -customers 64 -shards 16 -data-dir /var/lib/gridd-s1 \
//	      -replica-of host:9400 -replica-id r1 -peers r1,r2 -repl-addr :9401
//
// Distributed sharded server (the concentrators run as separate OS
// processes; the root tier listens on -root-addr and waits for them):
//
//	gridd -serve :9340 -root-addr :9341 -customers 100 -shards 4
//
// Concentrator worker (one per shard; derives its member list from the
// c01..cNN naming convention shared with the root):
//
//	gridd -role concentrator -up localhost:9341 -down localhost:9340 \
//	      -shard 0 -shards 4 -customers 100
//
// Clients (one per customer, named c01..cNN: the roster the server waits for
// and the workers derive their shards from; other names are not its fleet):
//
//	gridd -connect localhost:9340 -name c01 -seed 1
//
// With -metrics ADDR a server or a worker also answers HTTP /healthz,
// /metrics, /logs, /trace and /query.
//
// Every flag is one row of flagTable in flags.go: its name, the roles that
// read it, its destination, default and help. A flag set on a role that does
// not read it is an error, not a silent no-op.
//
// The daemon shuts down cleanly on SIGINT/SIGTERM: serve loops unwind, the
// HTTP listener drains, in-flight live ticks finish and the journal is
// sealed. A serve-mode daemon interrupted at any phase takes the session
// engine's one error path: the fleet (and any worker concentrators) gets an
// aborting session end, flushed before the connections close, and with
// -data-dir the session is journaled as aborted, so no client hangs and
// recovery never replays a half-committed session.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"loadbalance/internal/bus"
	"loadbalance/internal/cluster"
	"loadbalance/internal/core"
	"loadbalance/internal/customeragent"
	"loadbalance/internal/health"
	"loadbalance/internal/message"
	"loadbalance/internal/obsplane"
	"loadbalance/internal/replica"
	"loadbalance/internal/sim"
	"loadbalance/internal/store"
	"loadbalance/internal/telemetry"
	"loadbalance/internal/trace"
	"loadbalance/internal/units"
	"loadbalance/internal/utilityagent"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Unclean exits leave a flight-recorder bundle behind (when a recorder
	// is armed): a panic dumps before re-raising, an error exit dumps
	// before reporting.
	defer func() {
		if r := recover(); r != nil {
			health.CrashDump("panic", fmt.Sprint(r))
			panic(r)
		}
	}()
	if err := run(ctx, os.Args[1:]); err != nil {
		health.CrashDump("error-exit", err.Error())
		fmt.Fprintln(os.Stderr, "gridd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	r, o, err := parseArgs(args, os.Stderr)
	if err != nil {
		return err
	}
	proc := o.proc(r)
	logger, err := initHealthLogging(proc, o.logLevel, o.logFile, o.dataDir)
	if err != nil {
		return err
	}
	defer logger.Close()
	// The one registry this process publishes on: the role below registers
	// its collectors, and /metrics, the flight recorder, the history scraper,
	// the alert engine and the obs stream all read it.
	reg := trace.DefaultRegistry().Scope()
	o.metrics = reg
	// One identity event per process at startup: the line every process
	// contributes to the merged fleet log, tying its proc label to its role.
	logger.Log(health.Info, "gridd", "process started", health.Str("proc", proc), health.Str("role", r.String()))
	if o.traceOn || o.traceDump != "" {
		trace.Enable(proc, o.traceRing)
		if o.traceDump != "" {
			defer dumpTraceFile(o.traceDump)
		}
	}
	// SIGQUIT is the on-demand flight-recorder trigger on every role: dump a
	// bundle (when a recorder is armed) and keep running. Subscribing also
	// replaces the Go runtime's stack-dump-and-exit default.
	quitCh := make(chan os.Signal, 1)
	signal.Notify(quitCh, syscall.SIGQUIT)
	defer signal.Stop(quitCh)
	go func() {
		for range quitCh {
			health.Log(health.Warn, "flightrec", "SIGQUIT received, dumping bundle")
			health.CrashDump("sigquit", "operator-requested bundle")
		}
	}()
	// Roles that run no health layer of their own (serve daemons, workers,
	// clients) still get a flight recorder when a data dir exists, so SIGQUIT
	// and crash dumps work on every role. A live grid arms its richer
	// score-and-alert-bound recorder inside newLiveHealth.
	if o.dataDir != "" && r&grid == 0 {
		health.SetRecorder(health.NewRecorder(filepath.Join(o.dataDir, "flightrec"), health.DefaultKeep, logger, reg))
		defer health.SetRecorder(nil)
	}
	// The observability stream runs on any role: it drains the process-wide
	// log ring and trace ring, and gathers the registry, so the wiring needs
	// nothing mode-specific.
	if o.obs != "" {
		lvl, _ := health.ParseLevel(o.logLevel) // validated by initHealthLogging above
		em := obsplane.StartEmitter(obsplane.EmitterConfig{
			Hub:      o.obs,
			Proc:     proc,
			Role:     r.String(),
			Addr:     o.addr,
			MinLevel: lvl,
			Metrics:  reg,
		})
		defer em.Close()
	}
	switch r {
	case roleWorker:
		return runConcentrator(ctx, o, nil)
	case roleServe:
		return serve(ctx, o, nil)
	case roleLive, roleStandby:
		return runLive(ctx, o, nil)
	default:
		reg.Register(logger.Samples)
		return runClient(ctx, o.connect, o.name, o.seed)
	}
}

// dumpTraceFile writes the trace ring as JSON — the export path for worker
// and client processes that have no HTTP endpoint to serve /trace from.
func dumpTraceFile(path string) {
	var buf bytes.Buffer
	trace.WriteDump(&buf, trace.Filter{})
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		health.Logf(health.Error, "trace", "trace dump to %s failed: %v", path, err)
	}
}

// fleetScenario is the one negotiation a serve daemon and its workers run
// over n customers named c01..cNN — the roster the daemon waits for, and the
// contract that lets worker processes derive their shard membership without
// any exchange with the root: 13.5 kWh predicted and allowed per customer,
// capacity for the paper's 35% initial overuse, the paper's parameters and a
// round timeout of serveRoundTimeout.
func fleetScenario(n int) core.Scenario {
	s := core.Scenario{
		SessionID:    session,
		Window:       windowNow(),
		NormalUse:    units.Energy(13.5 * float64(n)).Scale(1 / 1.35),
		Method:       utilityagent.MethodRewardTable,
		Params:       core.PaperParams(),
		InitialSlope: 42.5,
		RoundTimeout: serveRoundTimeout,
		Customers:    make([]core.CustomerSpec, n),
	}
	for i := range s.Customers {
		s.Customers[i] = core.CustomerSpec{Name: fmt.Sprintf("c%02d", i+1), Predicted: 13.5, Allowed: 13.5}
	}
	return s
}

// runConcentrator is the worker process: it fronts one shard of the fleet,
// dialing the root tier upward and the member tier downward. Membership is
// derived from the shared c01..cNN convention, so the worker and the root
// compute identical topologies independently. With a metrics address the
// worker serves the same endpoint contract as the server roles (/healthz,
// /metrics, /logs, /trace); the optional ready channel receives the bound
// address (tests binding to ":0").
func runConcentrator(ctx context.Context, opts options, ready chan<- string) error {
	fleet := fleetScenario(opts.customers)
	topo, err := cluster.Partition(fleet.Roster(), opts.shards)
	if err != nil {
		return err
	}
	name := topo.ConcentratorName(opts.shard)
	reg := opts.registry()
	reg.Register(health.Default().Samples)

	if opts.metricsAddr != "" {
		history, scraper := startHistory(opts.tsdbInterval, reg)
		defer scraper.Close()
		addr, _, stop, err := endpoints{
			healthz: func() map[string]any {
				return map[string]any{"status": "ok", "role": "worker", "shard": opts.shard, "customers": len(topo.Members(opts.shard))}
			},
			reg: reg, history: history, pprof: opts.pprof,
		}.listen(opts.metricsAddr)
		if err != nil {
			return err
		}
		defer stop()
		if ready != nil {
			ready <- addr
		}
	}

	fmt.Printf("gridd: concentrator %s fronting %d customers, up %s, down %s\n",
		name, len(topo.Members(opts.shard)), opts.up, opts.down)
	err = cluster.RunWorker(ctx, cluster.WorkerConfig{
		UpAddr:   opts.up,
		DownAddr: opts.down,
		Concentrator: cluster.ConcentratorConfig{
			Name:         name,
			SessionID:    fleet.SessionID,
			Members:      topo.Shard(opts.shard),
			RoundTimeout: fleet.RoundTimeout / 2,
		},
	})
	if err != nil && ctx.Err() != nil {
		fmt.Printf("gridd: %s interrupted\n", name)
		return nil
	}
	if err == nil {
		fmt.Printf("gridd: %s relayed session end, shutting down\n", name)
	}
	return err
}

// session is the one negotiation session a serve daemon runs. Its workers
// relay only envelopes of this session, so it is not theirs to choose.
const session = "gridd"

// serveRoundTimeout is the UA's round timeout; concentrators must answer
// upward well inside it, so their own shard timeout is half of it. Worker
// processes share the constant through runConcentrator.
const serveRoundTimeout = 5 * time.Second

// serveAddrs reports the daemon's bound addresses to tests using ":0".
type serveAddrs struct {
	member  string
	root    string
	metrics string
	obs     string
}

// serve hosts the Utility Agent, bridges remote customers onto a local bus and
// negotiates once through the session engine (cluster.RunDialIn). The
// optional ready channel receives the bound addresses (used by tests binding
// to :0). With shards > 1 the engine interposes that many Concentrator Agents
// between the Utility Agent and the TCP-bridged fleet; with rootAddr set the
// root bus is itself a TCP server and the concentrators are separate gridd
// worker processes that dial in. Cancelling ctx aborts cleanly at any phase.
func serve(ctx context.Context, cfg options, ready chan<- serveAddrs) error {
	var err error
	var journal *store.Store
	if cfg.dataDir != "" {
		if journal, _, err = store.Open(cfg.dataDir, store.Options{}); err != nil {
			return err
		}
		defer journal.Close()
	}
	// A standby tailing the outcome answers /awards after this process is gone.
	var sender *replica.Sender
	if cfg.replAddr != "" {
		if sender, err = startSender(cfg.dataDir, cfg.replAddr, "replicating the journal"); err != nil {
			return err
		}
		defer func() { // standbys get the outcome and the seal before the stream drops
			_ = sender.WaitDrain(journal.Stats().LastSeq, 5*time.Second)
			sender.Close()
		}()
	}
	member, srv, stop, err := serveBus(cfg.addr)
	if err != nil {
		return err
	}
	defer stop()
	addrs := serveAddrs{member: srv.Addr()}
	var root *bus.InProc
	var rootSrv *bus.Server
	if cfg.rootAddr != "" {
		if root, rootSrv, stop, err = serveBus(cfg.rootAddr); err != nil {
			return err
		}
		defer stop()
		addrs.root = rootSrv.Addr()
	}
	var hub *obsplane.Hub
	if cfg.obsAddr != "" {
		if hub, err = startHub(cfg.obsAddr, cfg.tsdbInterval); err != nil {
			return err
		}
		defer hub.Close()
		addrs.obs = hub.Addr()
	}
	reg := cfg.registry()
	registerServeMetrics(reg, srv, rootSrv, hub, sender)
	if cfg.metricsAddr != "" {
		history, scraper := startHistory(cfg.tsdbInterval, reg)
		defer scraper.Close()
		addrs.metrics, _, stop, err = endpoints{
			healthz: func() map[string]any {
				return journalDoc(map[string]any{"status": "ok", "role": "primary", "customers": cfg.customers, "connected": len(member.Agents())}, journal)
			},
			reg: reg, history: history, hub: hub, pprof: cfg.pprof,
		}.listen(cfg.metricsAddr)
		if err != nil {
			return err
		}
		defer stop()
	}
	if ready != nil {
		ready <- addrs
	}
	fmt.Printf("gridd: listening on %s, waiting for %d customers\n", srv.Addr(), cfg.customers)
	fleet := fleetScenario(cfg.customers)
	fleet.Timeout = cfg.timeout
	res, err := cluster.RunDialIn(ctx, cluster.Config{Scenario: fleet, Shards: cfg.shards, Journal: journal}, member, root)
	switch {
	case err != nil && ctx.Err() != nil:
		fmt.Println("gridd: interrupted; the fleet was sent an aborting session end")
		return nil
	case err != nil:
		return err
	case cfg.shards > 1:
		fmt.Println("note: awards below are per-concentrator aggregates; each customer's own award was delivered to its process")
	}
	fmt.Print(sim.RenderResult(res.Flat()))
	if journal != nil {
		if err := journal.Seal(); err != nil {
			return err
		}
	}
	if cfg.linger != nil {
		select {
		case <-cfg.linger:
		case <-ctx.Done():
		}
	}
	return nil
}

// serveBus serves a fresh bus on addr for remote agents to dial onto. stop
// closes the server — which first flushes what it queued for its peers, the
// awards and a session end included — and then the bus.
func serveBus(addr string) (b *bus.InProc, srv *bus.Server, stop func(), err error) {
	if b, err = bus.NewInProc(bus.Config{}); err != nil {
		return nil, nil, nil, err
	}
	if srv, err = bus.ListenAndServe(addr, b); err != nil {
		b.Close()
		return nil, nil, nil, err
	}
	return b, srv, func() { srv.Close(); b.Close() }, nil
}

// registerServeMetrics is what a serve daemon publishes, in page order: the
// wire counters of every server it runs (rootSrv and hub may be nil), the
// replication stream (sender may be nil), the log, the fleet hub's summary.
func registerServeMetrics(reg *trace.Registry, srv, rootSrv *bus.Server, hub *obsplane.Hub, sender *replica.Sender) {
	reg.Register(func(dst []trace.Sample) []trace.Sample {
		transports := map[string]bus.WireStats{"member": srv.WireStats()}
		if rootSrv != nil {
			transports["root"] = rootSrv.WireStats()
		}
		if hub != nil {
			transports["obs"] = hub.WireStats()
		}
		return telemetry.WireSamples(dst, transports)
	})
	if sender != nil {
		reg.Register(func(dst []trace.Sample) []trace.Sample { return sender.Status().Samples(dst) })
	}
	reg.Register(health.Default().Samples)
	if hub != nil {
		reg.Register(hub.Samples)
	}
}

// liveConfig derives the engine configuration. It must be identical on
// every start against the same data dir — recovery validates it against the
// journal's scenario registration.
func (o options) liveConfig() (telemetry.LiveConfig, error) {
	s, err := telemetry.ElasticFleetScenario(o.customers, o.seed)
	if err != nil {
		return telemetry.LiveConfig{}, err
	}
	cfg := telemetry.LiveConfig{
		Scenario: s,
		Shards:   o.shards,
		Jitter:   0.02,
		Seed:     o.seed,
	}
	if o.spikeTick >= 0 && len(o.spikeShards) > 0 {
		end := 1 << 30
		if o.spikeEndTick > 0 {
			end = o.spikeEndTick
		}
		cfg.ShardEvents = make(map[int][]telemetry.Event, len(o.spikeShards))
		for _, i := range o.spikeShards {
			cfg.ShardEvents[i] = []telemetry.Event{{StartTick: o.spikeTick, EndTick: end, Factor: o.spikeFactor}}
		}
	}
	return cfg, nil
}

// gridView is the endpoint-visible state of a live daemon at one instant.
type gridView struct {
	role     string // "primary" | "standby"
	start    time.Time
	snap     telemetry.Snapshot
	profile  []byte
	recovery *telemetry.RecoveryInfo
	st       *store.Store     // primary journal (nil when volatile)
	sender   *replica.Sender  // non-nil when streaming to standbys
	stby     *replica.Standby // non-nil while role == standby
}

// gridState is what the live HTTP endpoints serve, shared between the tick
// loop (or the replication receiver) and the handlers, and swapped in place
// when a standby promotes — the HTTP server itself survives the role change.
type gridState struct {
	mu       sync.Mutex
	gridView               // guarded by mu; handlers read it through view()
	health   *liveHealth   // set once before the HTTP server starts
	obs      *obsplane.Hub // non-nil when this daemon hosts the fleet obs hub
}

// view reads the endpoint-visible state in one consistent snapshot under one
// lock.
func (g *gridState) view() gridView {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.gridView
}

// snapshot is the grid snapshot to serve: the last published one on a
// primary; on a standby the replica engine's, read on demand (the receiver
// applies records between HTTP requests, not between ticks).
func (v gridView) snapshot() telemetry.Snapshot {
	if v.stby != nil {
		return v.stby.Eng.ReplicaSnapshot()
	}
	return v.snap
}

// publish stores the engine's state after a tick for the handlers.
func (g *gridState) publish(eng *telemetry.LiveEngine) error {
	profile, err := json.Marshal(eng.Profile())
	if err != nil {
		return err
	}
	g.mu.Lock()
	g.snap, g.profile = eng.Snapshot(), profile
	g.mu.Unlock()
	return nil
}

// healthDoc renders the /healthz body: role, recovery state, replication
// state and the last applied/committed journal position — the operator
// contract an external health checker (or a failover drill) consumes.
func (g *gridState) healthDoc() map[string]any {
	v := g.view()
	rec, stby, snap := v.recovery, v.stby, v.snapshot()
	doc := map[string]any{
		"status":         "ok",
		"role":           v.role,
		"tick":           snap.Tick,
		"uptimeSeconds":  time.Since(v.start).Seconds(),
		"renegotiations": snap.Renegotiations,
	}
	sc := g.health.scorer.Latest()
	doc["feedbackScore"] = sc.Value
	doc["feedbackComponents"] = sc.Components
	doc["alertsFiring"] = g.health.alerts.FiringCount()
	if rec != nil {
		doc["recovery"] = map[string]any{
			"recovered":  rec.Recovered,
			"cleanStart": rec.CleanStart,
			"resumeTick": rec.ResumeTick,
			"replayed":   rec.Replayed,
		}
	}
	switch {
	case stby != nil:
		rst := stby.Receiver().Status()
		doc["lastAppliedSeq"] = stby.Eng.LastSeq()
		doc["lastAppliedAge"] = trace.AgeSeconds(rst.LastApplied)
		doc["replication"] = map[string]any{
			"id":         rst.ID,
			"sourceUp":   rst.Connected,
			"sourceAddr": rst.Addr,
			"appliedSeq": rst.AppliedSeq,
			"promotable": stby.Promotable(),
			"peers":      stby.PeerList(),
		}
	case v.st != nil:
		journalDoc(doc, v.st)
		if v.sender != nil {
			sst := v.sender.Status()
			doc["replication"] = map[string]any{
				"addr":     sst.Addr,
				"standbys": len(sst.Standbys),
			}
		}
	}
	return doc
}

// journalDoc adds a primary's last applied journal position to a /healthz
// document, when it journals.
func journalDoc(doc map[string]any, st *store.Store) map[string]any {
	if st != nil {
		stats := st.Stats()
		doc["lastAppliedSeq"] = stats.LastSeq
		doc["lastAppliedAge"] = trace.AgeSeconds(stats.LastAppend)
	}
	return doc
}

// replicationDoc renders the /replication body: the receiver's view on a
// standby, the sender's on a streaming primary.
func (g *gridState) replicationDoc() map[string]any {
	v := g.view()
	doc := map[string]any{"role": v.role}
	if v.stby != nil {
		doc["receiver"] = v.stby.Receiver().Status()
		doc["promotable"] = v.stby.Promotable()
		doc["peers"] = v.stby.PeerList()
	}
	if v.sender != nil {
		doc["sender"] = v.sender.Status()
	}
	return doc
}

// serveAwards answers /awards with the canonical grid profile: the last
// published one on a primary; on a read replica, computed from the replica
// state at request time.
func (g *gridState) serveAwards(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	v := g.view()
	if v.stby != nil {
		var err error
		if v.profile, err = json.Marshal(v.stby.Eng.Profile()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	_, _ = w.Write(v.profile)
}

// open wires the health layer over the state and starts the HTTP surface —
// the same for a primary and a standby: the server survives the role change
// — handing the bound address to ready (tests bind ":0"). The returned close
// drains in-flight requests, then stops the health layer.
func (g *gridState) open(opts options, ready chan<- string) (addr string, exited <-chan error, close func(), err error) {
	h, err := newLiveHealth(opts, g)
	if err != nil {
		return "", nil, nil, err
	}
	g.health = h
	addr, exited, stop, err := endpoints{healthz: g.healthDoc, reg: h.metrics, history: h.history, hub: g.obs, pprof: opts.pprof, live: g}.listen(opts.addr)
	if err != nil {
		h.close()
		return "", nil, nil, err
	}
	if ready != nil {
		ready <- addr
	}
	return addr, exited, func() { stop(); h.close() }, nil
}

// lead makes the daemon the serving primary over eng — at start on a
// primary, after promotion on a standby: it starts the replication sender
// when one is configured and publishes the engine's state to the handlers.
// The engine is shut down on error.
func (g *gridState) lead(eng *telemetry.LiveEngine, opts options, who string) error {
	err := g.publish(eng)
	var sender *replica.Sender
	if err == nil && opts.replAddr != "" {
		sender, err = startSender(opts.dataDir, opts.replAddr, who)
	}
	if err != nil {
		_ = eng.Shutdown()
		return err
	}
	g.mu.Lock()
	g.role, g.stby = "primary", nil
	g.st, g.sender = eng.Store(), sender
	g.mu.Unlock()
	return nil
}

// runLive operates the grid continuously: an in-process elastic fleet is
// negotiated once through the concentrator tier, then metered every tick
// with incremental re-negotiation on drift. addr answers HTTP /healthz,
// /metrics, /replication and /awards (lbfeedback-style: the live
// load/deviation state a balancer or scraper consumes). maxTicks 0 runs
// until ctx is cancelled.
//
// With a data dir the run is durable: every decision is journaled, restarts
// recover mid-flight (the tick counter continues where the journal ends),
// graceful exits seal the journal, and the canonical grid profile lands in
// <data-dir>/awards.json on exit.
//
// With -repl-addr the journal streams to hot standbys; with -replica-of the
// daemon IS a hot standby: it serves its replica state read-only and
// promotes itself into this same live loop when the primary goes silent (if
// it holds the lowest id among -peers).
func runLive(ctx context.Context, opts options, ready chan<- string) error {
	cfg, err := opts.liveConfig()
	if err != nil {
		return err
	}
	state := &gridState{gridView: gridView{role: "primary", start: time.Now()}}
	if opts.obsAddr != "" {
		if state.obs, err = startHub(opts.obsAddr, opts.tsdbInterval); err != nil {
			return err
		}
		defer state.obs.Close()
	}
	if len(opts.replicaOf) > 0 {
		return runStandby(ctx, opts, cfg, state, ready)
	}

	var eng *telemetry.LiveEngine
	if opts.dataDir != "" {
		var info *telemetry.RecoveryInfo
		eng, info, err = telemetry.OpenDurable(cfg, telemetry.DurableConfig{
			Dir:           opts.dataDir,
			SnapshotEvery: opts.snapshotEvery,
		})
		if err != nil {
			return err
		}
		state.recovery = info
		if info.Recovered {
			how := "crash"
			if info.CleanStart {
				how = "sealed journal"
			}
			fmt.Printf("gridd: recovered from %s in %v (snapshot seq %d + %d records), resuming at tick %d\n",
				how, info.Elapsed.Round(time.Millisecond), info.SnapshotSeq, info.Replayed, info.ResumeTick)
		}
	} else {
		eng, err = telemetry.NewLiveEngine(cfg)
		if err != nil {
			return err
		}
		if err := eng.Start(); err != nil {
			return err
		}
	}

	if err := state.lead(eng, opts, "replicating the journal"); err != nil {
		return err
	}
	addr, httpErr, closeHTTP, err := state.open(opts, ready)
	if err != nil {
		if state.sender != nil {
			state.sender.Close()
		}
		_ = eng.Shutdown()
		return err
	}
	defer closeHTTP()
	fmt.Printf("gridd: live grid of %d customers in %d shards; /healthz, /metrics, /replication and /awards on %s\n",
		opts.customers, opts.shards, addr)
	return tickLoop(ctx, eng, opts, state, httpErr)
}

// tickLoop is the serving primary's main loop — entered at start by a
// primary daemon and after promotion by a standby.
func tickLoop(ctx context.Context, eng *telemetry.LiveEngine, opts options, state *gridState, httpErr <-chan error) error {
	st := eng.Store()
	shutdown := func() error {
		err := eng.Shutdown()
		if state.sender != nil {
			// The seal is in the journal; give the standbys a moment to
			// apply it so they follow the primary down instead of promoting
			// over a clean exit.
			if st != nil {
				state.sender.WaitDrain(st.Stats().LastSeq, 2*time.Second)
			}
			state.sender.Close()
		}
		if opts.dataDir == "" {
			return err
		}
		// awards.json is the canonical profile /awards last answered with.
		if werr := atomicWriteFile(opts.dataDir, "awards.json", state.view().profile); werr != nil && err == nil {
			err = werr
		}
		return err
	}
	reached := func(tick int) bool {
		if opts.maxTicks <= 0 || tick < opts.maxTicks {
			return false
		}
		fmt.Printf("gridd: live grid reached tick %d\n", tick)
		return true
	}

	// A recovered (or just-promoted) run may already be at the tick target.
	if reached(eng.Snapshot().Tick) {
		return shutdown()
	}
	ticker := time.NewTicker(opts.tick)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			// The select only fires between ticks, so any in-flight tick —
			// including its incremental re-negotiation — has fully
			// committed; sealing the journal is all that remains.
			fmt.Println("gridd: interrupted, live grid sealing journal and shutting down")
			return shutdown()
		case err := <-httpErr:
			_ = shutdown()
			if err != nil && err != http.ErrServerClosed {
				return err
			}
			return nil
		case <-ticker.C:
			rep, err := eng.Tick()
			if err != nil {
				health.CrashDump("tick-error", err.Error())
				_ = shutdown()
				return err
			}
			if rep.Renegotiated != nil {
				fmt.Printf("gridd: tick %d: shards %v re-negotiated (%s, %d members)\n",
					rep.Tick, rep.Renegotiated.Shards, rep.Renegotiated.Outcome, rep.Renegotiated.Members)
				logRenegotiation(rep)
			}
			if err := state.publish(eng); err != nil {
				_ = shutdown()
				return err
			}
			state.health.evalTick()
			if reached(rep.Tick + 1) {
				return shutdown()
			}
		}
	}
}

// runStandby runs the daemon as a hot standby: the replica state is served
// read-only on the HTTP endpoints while the receiver applies the primary's
// stream; on primary silence the lowest-id standby promotes in place and
// continues the run as the serving primary.
func runStandby(ctx context.Context, opts options, cfg telemetry.LiveConfig, state *gridState, ready chan<- string) error {
	state.role = "standby"
	stby, info, err := replica.StartStandby(replica.StandbyConfig{
		ID:              opts.replicaID,
		Peers:           opts.peers,
		PrimaryAddrs:    opts.replicaOf,
		Live:            cfg,
		Durable:         telemetry.DurableConfig{Dir: opts.dataDir, SnapshotEvery: opts.snapshotEvery},
		FailoverTimeout: opts.failoverTimeout,
	})
	if err != nil {
		return err
	}
	state.stby = stby
	state.recovery = info
	if info.Recovered {
		fmt.Printf("gridd: standby %s resuming replication from local seq %d (tick %d)\n",
			opts.replicaID, stby.Eng.LastSeq(), info.ResumeTick)
	}

	addr, httpErr, closeHTTP, err := state.open(opts, ready)
	if err != nil {
		_ = stby.Close()
		return err
	}
	defer closeHTTP()
	stopEval := state.health.startStandbyEval(opts.tick)
	defer stopEval()
	fmt.Printf("gridd: hot standby %s following %v; read-only /healthz, /metrics, /replication and /awards on %s\n",
		opts.replicaID, opts.replicaOf, addr)

	type result struct {
		outcome replica.Outcome
		err     error
	}
	resCh := make(chan result, 1)
	go func() {
		o, err := stby.Run(ctx)
		resCh <- result{o, err}
	}()
	var res result
	select {
	case res = <-resCh:
	case err := <-httpErr:
		_ = stby.Close()
		if err != nil && err != http.ErrServerClosed {
			return err
		}
		return nil
	}
	switch {
	case res.err != nil:
		_ = stby.Close()
		if ctx.Err() != nil {
			fmt.Printf("gridd: standby %s interrupted\n", opts.replicaID)
			return nil
		}
		health.CrashDump("standby-error", res.err.Error())
		return res.err
	case res.outcome.CleanShutdown:
		fmt.Printf("gridd: primary sealed its journal; standby %s shutting down cleanly\n", opts.replicaID)
		return stby.Close()
	}

	// Promoted: continue the run as the serving primary on the same HTTP
	// address. The availability gap is detect + promote; the tick loop takes
	// over health evaluation from the standby ticker.
	stopEval()
	eng := res.outcome.Engine
	pinfo := res.outcome.Promotion
	fmt.Printf("gridd: standby %s promoted to primary at journal seq %d (detect %v + promote %v), resuming at tick %d\n",
		opts.replicaID, pinfo.FromSeq,
		res.outcome.DetectLatency.Round(time.Millisecond), pinfo.Elapsed.Round(time.Millisecond),
		pinfo.ResumeTick)
	health.Log(health.Warn, "replica", "standby promoted to primary",
		health.Str("id", opts.replicaID),
		health.Int("fromSeq", int64(pinfo.FromSeq)),
		health.Int("resumeTick", int64(pinfo.ResumeTick)))
	if err := state.lead(eng, opts, "promoted primary replicating"); err != nil {
		return err
	}
	return tickLoop(ctx, eng, opts, state, httpErr)
}

// atomicWriteFile publishes <dir>/<name> via temp file + rename, so a
// reader can never observe a partial write.
func atomicWriteFile(dir, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, "."+name+"-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	return os.Rename(tmpName, filepath.Join(dir, name))
}

// gridSamples appends a live snapshot's grid_* series: the fleet totals,
// then one series per shard in each per-shard family.
func gridSamples(dst []trace.Sample, snap telemetry.Snapshot) []trace.Sample {
	dst = append(dst,
		trace.Counter("grid_tick", "", uint64(snap.Tick)),
		trace.Counter("grid_readings_total", "", uint64(snap.Readings)),
		trace.Counter("grid_renegotiations_total", "", uint64(snap.Renegotiations)),
		trace.Gauge("grid_fleet_load_kwh", "", snap.FleetKWh),
		trace.Gauge("grid_fleet_target_kwh", "", snap.TargetKWh))
	shard := make([]string, len(snap.ShardMeasured))
	for i := range shard {
		shard[i] = trace.Label("shard", strconv.Itoa(i))
	}
	for i, v := range snap.ShardMeasured {
		dst = append(dst, trace.Gauge("grid_shard_load_kwh", shard[i], v))
	}
	for i := range shard {
		dst = append(dst, trace.Gauge("grid_shard_expected_kwh", shard[i], snap.ShardExpected[i]))
	}
	for i := range shard {
		dst = append(dst, trace.Gauge("grid_shard_breached", shard[i], trace.Bool(snap.ShardBreached[i])))
	}
	for i := range shard {
		dst = append(dst, trace.Counter("grid_shard_renegotiations_total", shard[i], uint64(snap.ShardRenegotiations[i])))
	}
	return dst
}

// runClient joins as one Customer Agent and reacts until the session ends
// or ctx is cancelled. addr may be a comma-separated dial list (the primary
// grid head first, standbys after it); the connection re-dials through the
// list and resumes if the serving head dies mid-session.
func runClient(ctx context.Context, addr, name string, seed int64) error {
	cli, err := bus.DialReconnecting(bus.SplitAddrList(addr), name, bus.ReconnConfig{})
	if err != nil {
		return err
	}
	defer cli.Close()

	// A cancelled context closes the connection, which unblocks the inbox
	// loop below.
	defer context.AfterFunc(ctx, func() { cli.Close() })()

	prefs, err := clientPreferences(seed)
	if err != nil {
		return err
	}
	ca, err := customeragent.New(name, prefs, customeragent.StrategyGreedy)
	if err != nil {
		return err
	}
	fmt.Printf("gridd: %s connected to %s\n", name, addr)

	for env := range cli.Inbox() {
		reply, ok, err := ca.React(env)
		if err != nil {
			// The Warn-level stderr mirror keeps this visible on a client's
			// console while the ring records it with identity fields.
			health.Log(health.Warn, "client", "react failed",
				health.Str("agent", name), health.Str("session", env.Session),
				health.Str("err", err.Error()))
			continue
		}
		if ok {
			out, err := message.NewEnvelope(name, env.From, env.Session, reply)
			if err != nil {
				return err
			}
			if err := cli.Send(out); err != nil {
				return err
			}
		}
		if env.Kind == message.KindSessionEnd {
			if award, got := ca.AwardFor(env.Session); got {
				fmt.Printf("gridd: %s awarded cut-down %.1f for reward %.2f\n",
					name, award.CutDown, award.Reward)
			} else {
				fmt.Printf("gridd: %s: session ended without award\n", name)
			}
			return nil
		}
	}
	if ctx.Err() != nil {
		fmt.Printf("gridd: %s interrupted\n", name)
		return nil
	}
	return fmt.Errorf("connection closed before session end")
}

// clientPreferences derives a deterministic preference table from the seed:
// the paper customer's table scaled by a seed-dependent factor in [0.8, 1.6].
func clientPreferences(seed int64) (customeragent.Preferences, error) {
	return core.ScaledPaperPreferences(0.8 + float64(seed%9)/10)
}

// windowNow returns a 2-hour negotiation window starting one hour from now.
func windowNow() units.Interval {
	start := time.Now().Add(time.Hour).Truncate(time.Minute)
	return units.Interval{Start: start, End: start.Add(2 * time.Hour)}
}
