package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"loadbalance/internal/bus"
	"loadbalance/internal/trace"
)

// This file is gridd's whole configuration surface: the five roles, the one
// options struct they all take, the one table that declares every flag, and
// the rules a role's command line must satisfy. A flag is a field, a table
// row and a row of TestRunFlagValidation's argv table, which fails until it
// has one; nothing else copies, defaults or checks flag values.

// role is which of gridd's five programs a process runs. The values are bits
// so that the role column of a flag or a rule is a set of them.
type role uint8

const (
	roleWorker  role = 1 << iota // -role concentrator: fronts one shard between the root and member tiers
	roleServe                    // -serve: negotiates once with -customers TCP clients
	roleLive                     // -serve -live: operates an in-process fleet continuously
	roleStandby                  // -serve -live -replica-of: follows a primary's journal, promotes on its loss
	roleClient                   // -connect: one Customer Agent

	grid    = roleLive | roleStandby
	daemons = roleServe | grid
	fleet   = roleWorker | daemons // the roles that model the fleet and can serve HTTP
	anyRole = fleet | roleClient
)

var roleNames = [...]string{"worker", "serve", "live", "standby", "client"}

// String names a role — the name it carries in the obs hub's registry — or a
// set of them ("live and standby").
func (r role) String() string {
	var names []string
	for i, n := range roleNames {
		if r&(1<<i) != 0 {
			names = append(names, n)
		}
	}
	if n := len(names); n > 1 {
		return strings.Join(names[:n-1], ", ") + " and " + names[n-1]
	}
	return strings.Join(names, "")
}

// options is everything a gridd process is told, for every role. Each field
// but the last two is the destination of one flagTable row, which is where
// its default and its meaning are written; a role reads the fields its
// column there names. Tests assemble roles from literals of it.
type options struct {
	roleName    string // -role
	addr        string // -serve: the member tier (serve) or the HTTP endpoint (live, standby)
	connect     string
	name        string
	up, down    string
	rootAddr    string
	metricsAddr string
	obsAddr     string
	obs         string
	replAddr    string
	dataDir     string

	customers int
	shards    int
	shard     int
	seed      int64
	timeout   time.Duration

	live          bool
	tick          time.Duration
	maxTicks      int // -live-ticks
	snapshotEvery int
	spikeShards   []int
	spikeTick     int
	spikeFactor   float64
	spikeEndTick  int
	alerts        string

	replicaOf       []string // non-empty: the daemon is a hot standby
	replicaID       string
	peers           []string
	failoverTimeout time.Duration

	logLevel     string
	logFile      string
	traceOn      bool
	traceRing    int
	traceDump    string
	pprof        bool
	tsdbInterval time.Duration

	// metrics is the registry the role publishes on: the one run() also
	// handed to the process's obs stream and flight recorder. Nil — a role
	// assembled directly, as the tests do, several to a process — means its
	// own fresh scope of the process-wide histograms.
	metrics *trace.Registry
	// linger, when non-nil, keeps a serve daemon's HTTP and obs endpoints up
	// after the session completes until the channel closes (or ctx is
	// cancelled) — how tests and drills scrape the merged fleet view of a
	// one-shot negotiation after every process has flushed its final spans.
	linger <-chan struct{}
}

func (o options) registry() *trace.Registry {
	if o.metrics != nil {
		return o.metrics
	}
	return trace.DefaultRegistry().Scope()
}

// flagDef is one command-line flag: its name, the roles that read it, where
// it lands, its default and its help text.
type flagDef struct {
	name  string
	roles role
	dst   any // *string, *int, *int64, *float64, *bool, *time.Duration; *[]string and *[]int parse comma-separated lists
	def   any // of dst's element type; nil for the lists, which default to empty
	help  string
}

// flagTable declares every flag gridd has, bound to o.
func (o *options) flagTable() []flagDef {
	return []flagDef{
		{"role", roleWorker, &o.roleName, "", "process role: empty (server/client) or \"concentrator\" (worker process)"},
		{"serve", daemons, &o.addr, "", "listen address for the Utility Agent daemon"},
		{"connect", roleClient, &o.connect, "", "daemon address (or comma-separated failover dial list) to join as a Customer Agent"},
		{"name", roleClient, &o.name, "", "customer name (client mode)"},
		{"up", roleWorker, &o.up, "", "root-tier server address (concentrator role)"},
		{"down", roleWorker, &o.down, "", "member-tier server address (concentrator role)"},
		{"shard", roleWorker, &o.shard, 0, "shard index this worker fronts (concentrator role)"},
		{"customers", fleet, &o.customers, 10, "customer count (daemon waits for this many; live mode synthesises them)"},
		{"shards", fleet, &o.shards, 1, "concentrator agents fronting the fleet (serve: 1 = flat, the Utility Agent faces the clients itself; live, standby and worker: a tree of this many, 1 = one concentrator)"},
		{"seed", grid | roleClient, &o.seed, int64(1), "preference randomisation seed (client and live modes)"},
		{"timeout", roleServe, &o.timeout, 2 * time.Minute, "overall negotiation timeout (serve mode)"},
		{"root-addr", roleServe, &o.rootAddr, "", "listen address for the root tier: concentrators run as separate worker processes that dial in (requires -shards > 1)"},
		{"metrics", roleWorker | roleServe, &o.metricsAddr, "", "HTTP listen address answering /healthz, /metrics, /logs, /trace and /query (serve and concentrator roles; a live grid serves them on -serve)"},
		{"live", grid, &o.live, false, "run the live grid: negotiate once, then meter, detect drift and re-negotiate incrementally; -serve's address answers HTTP /healthz, /metrics, /replication and /awards"},
		{"tick", grid, &o.tick, time.Second, "live metering interval"},
		{"live-ticks", grid, &o.maxTicks, 0, "stop once the grid's tick counter reaches this (0 = run until SIGINT/SIGTERM); a recovered run counts the ticks already journaled"},
		{"snapshot-every", grid, &o.snapshotEvery, 0, "ticks between snapshots in the data dir (0 = the engine default)"},
		{"spike-shards", grid, &o.spikeShards, nil, "comma-separated shard `indices` to hit with a demand spike (live mode; for demos and recovery drills)"},
		{"spike-tick", grid, &o.spikeTick, -1, "tick the demand spike starts on (-1 = no spike)"},
		{"spike-end", grid, &o.spikeEndTick, 0, "tick the injected demand spike ends on (0 = never)"},
		{"spike-factor", grid, &o.spikeFactor, 2.5, "demand multiplier of the injected spike"},
		{"alerts", grid, &o.alerts, "", "comma-separated alert rules name:metric<threshold[:for=N] evaluated each tick and served on /alerts (live mode; empty = built-in rule set, \"none\" disables)"},
		{"data-dir", anyRole, &o.dataDir, "", "journal negotiated state and telemetry under this directory; a restart recovers the run mid-flight (live and serve modes); every role keeps its log file and flight-recorder bundles here"},
		{"repl-addr", daemons, &o.replAddr, "", "replication listen address: stream the journal to hot standbys (live and serve modes; requires -data-dir); the bound address is written to <data-dir>/repl-addr"},
		{"replica-of", roleStandby, &o.replicaOf, nil, "run as a hot standby replicating from this comma-separated dial list of replication `addrs` (live mode; requires -data-dir)"},
		{"replica-id", roleStandby, &o.replicaID, "r0", "this standby's replica id — the lowest id among -peers promotes on primary loss"},
		{"peers", roleStandby, &o.peers, nil, "comma-separated standby `ids` in the replica set (promotion rule input; empty = this standby always promotes)"},
		{"failover-timeout", roleStandby, &o.failoverTimeout, 3 * time.Second, "how long the primary may be silent before a standby promotes"},
		{"obs-addr", daemons, &o.obsAddr, "", "fleet observability hub listen address: worker, standby and serve processes stream metrics, logs and spans here and the root serves /fleet/metrics, /fleet/logs, /fleet/trace and /fleet/status (server modes)"},
		{"obs", anyRole, &o.obs, "", "stream this process's observability state (metric samples, log events, trace spans) to the fleet hub at this address (any role)"},
		{"log-level", anyRole, &o.logLevel, "info", "structured log level: debug, info, warn, error or off; the ring serves /logs on the HTTP endpoint"},
		{"log-file", anyRole, &o.logFile, "", "append structured log events as JSON lines to this file (default: <data-dir>/gridd.log when -data-dir is set)"},
		{"trace", anyRole, &o.traceOn, false, "record negotiation spans in an in-process ring, served as JSON on /trace (?session=&shard=&trace=&limit=)"},
		{"trace-ring", anyRole, &o.traceRing, 4096, "trace ring capacity in spans; the oldest spans are dropped when it wraps"},
		{"trace-dump", anyRole, &o.traceDump, "", "write the trace ring as JSON to this file on exit (implies -trace; the span-export path for processes without an HTTP endpoint)"},
		{"pprof", fleet, &o.pprof, false, "mount net/http/pprof profiling handlers under /debug/pprof/ on the HTTP endpoint"},
		{"tsdb-interval", fleet, &o.tsdbInterval, time.Second, "metrics-history scrape interval: each tick the process samples its own metrics page into the embedded time-series store behind /query and windowed alert rules (0 disables history)"},
	}
}

// bind declares the flag on fs, writing straight into its destination.
func (f flagDef) bind(fs *flag.FlagSet) {
	switch p := f.dst.(type) {
	case *string:
		fs.StringVar(p, f.name, f.def.(string), f.help)
	case *int:
		fs.IntVar(p, f.name, f.def.(int), f.help)
	case *int64:
		fs.Int64Var(p, f.name, f.def.(int64), f.help)
	case *float64:
		fs.Float64Var(p, f.name, f.def.(float64), f.help)
	case *bool:
		fs.BoolVar(p, f.name, f.def.(bool), f.help)
	case *time.Duration:
		fs.DurationVar(p, f.name, f.def.(time.Duration), f.help)
	case *[]string:
		fs.Func(f.name, f.help, func(s string) error { *p = bus.SplitAddrList(s); return nil })
	case *[]int:
		fs.Func(f.name, f.help, func(s string) (err error) { *p, err = parseShardList(s); return err })
	default:
		panic(fmt.Sprintf("gridd: flag -%s has no binding for a %T", f.name, f.dst))
	}
}

// parseShardList parses a comma-separated list of shard indices.
func parseShardList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad shard index %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// rule is one constraint between the flags of the roles in its column.
type rule struct {
	roles  role
	broken func(o *options) bool
	msg    string
}

var rules = []rule{
	{roleWorker, func(o *options) bool { return o.up == "" || o.down == "" }, "-role concentrator requires -up and -down"},
	{roleWorker, func(o *options) bool { return o.shard < 0 || o.shard >= o.shards }, "-shard must index one of the -shards shards, counting from 0"},
	{daemons, func(o *options) bool { return o.shards < 1 }, "-shards must be at least 1"},
	{roleServe, func(o *options) bool { return o.rootAddr != "" && o.shards < 2 }, "-root-addr requires -shards > 1"},
	{roleServe, func(o *options) bool { return o.obsAddr != "" && o.metricsAddr == "" }, "-obs-addr serves the /fleet endpoints on -metrics; set both"},
	{daemons, func(o *options) bool { return o.replAddr != "" && o.dataDir == "" }, "-repl-addr streams the journal and requires -data-dir"},
	{roleStandby, func(o *options) bool { return o.dataDir == "" }, "-replica-of persists the replicated journal and requires -data-dir"},
	{grid, func(o *options) bool { return o.tick <= 0 }, "-tick must be positive"},
	{roleClient, func(o *options) bool { return o.name == "" }, "-connect requires -name"},
}

// chooseRole reads the process's role off the three flags that select it.
func (o *options) chooseRole() (role, error) {
	switch {
	case o.roleName == "concentrator":
		return roleWorker, nil
	case o.roleName != "":
		return 0, fmt.Errorf("unknown -role %q (want \"concentrator\")", o.roleName)
	case o.addr != "" && o.connect != "":
		return 0, errors.New("-serve and -connect are mutually exclusive")
	case o.addr != "" && o.live && len(o.replicaOf) > 0:
		return roleStandby, nil
	case o.addr != "" && o.live:
		return roleLive, nil
	case o.addr != "":
		return roleServe, nil
	case o.connect != "":
		return roleClient, nil
	}
	return 0, errors.New("pass -serve ADDR or -connect ADDR (or -role concentrator with -up and -down)")
}

// validate holds a command line to role r's columns: every flag that was set
// is one r reads — a flag the role would ignore is a mistake, not a no-op —
// and every rule of r holds.
func (r role) validate(o *options, fs *flag.FlagSet, table []flagDef) error {
	readBy := make(map[string]role, len(table))
	for _, f := range table {
		readBy[f.name] = f.roles
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err == nil && readBy[f.Name]&r == 0 {
			err = fmt.Errorf("-%s is read by %v, not %v", f.Name, readBy[f.Name], r)
		}
	})
	for _, c := range rules {
		if err == nil && c.roles&r != 0 && c.broken(o) {
			err = errors.New(c.msg)
		}
	}
	return err
}

// flagSet declares the flag table on a fresh set that writes into o, which
// holds every default once it returns. Usage goes to out.
func (o *options) flagSet(out io.Writer) (*flag.FlagSet, []flagDef) {
	fs := flag.NewFlagSet("gridd", flag.ContinueOnError)
	fs.SetOutput(out)
	table := o.flagTable()
	for _, f := range table {
		f.bind(fs)
	}
	return fs, table
}

// parseArgs turns a command line into the role it selects and that role's
// options, or the reason it is not a valid one.
func parseArgs(args []string, out io.Writer) (role, options, error) {
	var o options
	fs, table := o.flagSet(out)
	if err := fs.Parse(args); err != nil {
		return 0, o, err
	}
	r, err := o.chooseRole()
	if err == nil {
		err = r.validate(&o, fs, table)
	}
	return r, o, err
}
