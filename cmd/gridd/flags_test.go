package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// boundFlags declares the flag table on a fresh set: o holds every default.
func boundFlags() (o *options, fs *flag.FlagSet, table []flagDef) {
	o = &options{}
	fs, table = o.flagSet(io.Discard)
	return o, fs, table
}

// argvRow is one command line and what it must parse to: a role and the
// defaults as edited by want, or an error containing err.
type argvRow struct {
	name string
	argv []string
	role role
	want func(o *options)
	err  string
}

var argvTable = []argvRow{
	// One row per role, between them every flag at a non-default value.
	{name: "serve", role: roleServe,
		argv: strings.Fields("-serve :9340 -customers 3 -shards 4 -timeout 30s -root-addr :9341 -metrics :9342 -obs-addr :9343 " +
			"-data-dir /d -repl-addr :9344 -pprof -tsdb-interval 250ms -log-level debug -log-file /l -trace -trace-ring 16 -trace-dump /t -obs h:1"),
		want: func(o *options) {
			o.addr, o.customers, o.shards, o.timeout = ":9340", 3, 4, 30*time.Second
			o.rootAddr, o.metricsAddr, o.obsAddr, o.dataDir, o.replAddr = ":9341", ":9342", ":9343", "/d", ":9344"
			o.pprof, o.tsdbInterval, o.logLevel, o.logFile = true, 250*time.Millisecond, "debug", "/l"
			o.traceOn, o.traceRing, o.traceDump, o.obs = true, 16, "/t", "h:1"
		}},
	{name: "worker", role: roleWorker,
		argv: strings.Fields("-role concentrator -up h:1 -down h:2 -shard 2 -shards 4 -customers 100 -metrics :1 -obs h:3"),
		want: func(o *options) {
			o.roleName, o.up, o.down, o.shard, o.shards, o.customers = "concentrator", "h:1", "h:2", 2, 4, 100
			o.metricsAddr, o.obs = ":1", "h:3"
		}},
	{name: "client", role: roleClient,
		argv: strings.Fields("-connect a:1,b:2 -name c01 -seed 7"),
		want: func(o *options) { o.connect, o.name, o.seed = "a:1,b:2", "c01", 7 }},
	{name: "live", role: roleLive,
		argv: strings.Fields("-serve :8080 -live -customers 64 -shards 16 -tick 25ms -live-ticks 20 -seed 3 -data-dir /d " +
			"-spike-shards 1,2 -spike-tick 4 -spike-end 9 -spike-factor 3 -snapshot-every 6 -alerts none -repl-addr :9400 -obs-addr :9600"),
		want: func(o *options) {
			o.addr, o.live, o.customers, o.shards = ":8080", true, 64, 16
			o.tick, o.maxTicks, o.seed, o.dataDir = 25*time.Millisecond, 20, 3, "/d"
			o.spikeShards, o.spikeTick, o.spikeEndTick, o.spikeFactor = []int{1, 2}, 4, 9, 3
			o.snapshotEvery, o.alerts, o.replAddr, o.obsAddr = 6, "none", ":9400", ":9600"
		}},
	{name: "standby", role: roleStandby,
		argv: strings.Fields("-serve :8081 -live -data-dir /s -replica-of h:9400,h:9401 -replica-id r1 -peers r1,r2 -failover-timeout 750ms -repl-addr :9401"),
		want: func(o *options) {
			o.addr, o.live, o.dataDir = ":8081", true, "/s"
			o.replicaOf, o.replicaID, o.peers = []string{"h:9400", "h:9401"}, "r1", []string{"r1", "r2"}
			o.failoverTimeout, o.replAddr = 750*time.Millisecond, ":9401"
		}},

	// The command lines the process-spawning tests run.
	{name: "recovery drill", role: roleLive, argv: liveArgs("/d"),
		want: func(o *options) {
			o.addr, o.live, o.customers, o.shards = "127.0.0.1:0", true, 16, 4
			o.tick, o.maxTicks, o.seed, o.dataDir = 25*time.Millisecond, 20, 3, "/d"
			o.spikeShards, o.spikeTick, o.snapshotEvery = []int{1, 2}, 4, 6
		}},
	{name: "failover drill standby", role: roleStandby,
		argv: failoverArgs("/d", "-replica-of", "h:1", "-replica-id", "r0", "-failover-timeout", "750ms"),
		want: func(o *options) {
			o.addr, o.live, o.customers, o.shards = "127.0.0.1:0", true, 16, 4
			o.tick, o.maxTicks, o.seed, o.dataDir = 50*time.Millisecond, 30, 5, "/d"
			o.spikeShards, o.spikeTick, o.snapshotEvery = []int{1, 2}, 4, 8
			o.replicaOf, o.failoverTimeout = []string{"h:1"}, 750*time.Millisecond
		}},

	// Choosing the role.
	{name: "no mode", err: "-serve ADDR or -connect ADDR"},
	{name: "both modes", argv: []string{"-serve", ":1", "-connect", "x:1"}, err: "mutually exclusive"},
	{name: "unknown role", argv: []string{"-role", "root"}, err: "unknown -role"},

	// One row per rule.
	{name: "connect without name", argv: []string{"-connect", "x:1"}, err: "requires -name"},
	{name: "worker without both tiers", argv: strings.Fields("-role concentrator -up h:1"), err: "requires -up and -down"},
	{name: "shard out of range", argv: strings.Fields("-role concentrator -up a:1 -down b:1 -shard 4 -shards 4"), err: "-shard must index"},
	{name: "no shards", argv: strings.Fields("-serve :0 -shards 0"), err: "-shards must be at least 1"},
	{name: "root tier of a flat fleet", argv: strings.Fields("-serve :0 -root-addr :1"), err: "-root-addr requires -shards > 1"},
	{name: "hub without an http endpoint", argv: strings.Fields("-serve :0 -obs-addr :1"), err: "-obs-addr serves the /fleet endpoints on -metrics"},
	{name: "replication without a journal", argv: strings.Fields("-serve :0 -repl-addr :1"), err: "-repl-addr streams the journal"},
	{name: "live replication without a journal", argv: strings.Fields("-serve :0 -live -repl-addr :1"), err: "-repl-addr streams the journal"},
	{name: "standby without a journal", argv: strings.Fields("-serve :0 -live -replica-of h:1"), err: "-replica-of persists"},
	{name: "zero tick", argv: strings.Fields("-serve :0 -live -tick 0"), err: "-tick must be positive"},

	// A flag the chosen role never reads is rejected, not ignored — and a
	// malformed value is rejected whoever reads it.
	{name: "serve reads no alerts", argv: strings.Fields("-serve 127.0.0.1:0 -customers 1 -alerts garbage"), err: "-alerts is read by live and standby, not serve"},
	{name: "replica-of without live", argv: strings.Fields("-serve :0 -replica-of h:1"), err: "-replica-of is read by standby, not serve"},
	{name: "live serves http on -serve", argv: strings.Fields("-serve :0 -live -metrics :1"), err: "-metrics is read by worker and serve, not live"},
	{name: "live has no root tier", argv: strings.Fields("-serve :0 -live -root-addr :1"), err: "-root-addr is read by serve, not live"},
	{name: "client serves no http", argv: strings.Fields("-connect x:1 -name c01 -pprof"), err: "-pprof is read by worker, serve, live and standby, not client"},
	{name: "worker with a serve address", argv: strings.Fields("-role concentrator -up a:1 -down b:1 -serve :1"), err: "-serve is read by serve, live and standby, not worker"},
	{name: "malformed shard list", argv: strings.Fields("-serve :0 -live -spike-shards x"), err: "invalid value \"x\" for flag -spike-shards"},
	{name: "removed flag", argv: strings.Fields("-serve :0 -live -feedback-addr :1"), err: "flag provided but not defined"},
}

// TestRunFlagValidation is the flag layer's proof: every row of argvTable
// parses to its role and options or fails with its error, every flag appears
// at a non-default value in some row that parses, and every rule is some
// row's error — so a flag or a rule added without a row fails here.
func TestRunFlagValidation(t *testing.T) {
	covered := map[string]bool{}
	failed := map[string]bool{}
	// A list flag has no default to print: set is moved off it.
	list := map[string]bool{}
	_, _, table := boundFlags()
	for _, f := range table {
		switch f.dst.(type) {
		case *[]string, *[]int:
			list[f.name] = true
		}
	}
	for _, row := range argvTable {
		t.Run(row.name, func(t *testing.T) {
			r, got, err := parseArgs(row.argv, io.Discard)
			if row.err != "" {
				if err == nil || !strings.Contains(err.Error(), row.err) {
					t.Fatalf("error = %v, want %q", err, row.err)
				}
				failed[err.Error()] = true
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			want, fs, _ := boundFlags()
			row.want(want)
			if r != row.role || !reflect.DeepEqual(&got, want) {
				t.Fatalf("parsed to %v %+v\nwant %v %+v", r, got, row.role, *want)
			}
			// Which flags this row moved off their defaults.
			if err := fs.Parse(row.argv); err != nil {
				t.Fatal(err)
			}
			fs.Visit(func(f *flag.Flag) {
				if list[f.Name] || f.Value.String() != f.DefValue {
					covered[f.Name] = true
				}
			})
		})
	}
	_, fs, _ := boundFlags()
	fs.VisitAll(func(f *flag.Flag) {
		if !covered[f.Name] {
			t.Errorf("no argvTable row parses -%s at a non-default value", f.Name)
		}
	})
	for _, c := range rules {
		if !failed[c.msg] {
			t.Errorf("no argvTable row breaks the rule %q", c.msg)
		}
	}
}

// TestDocumentedCommandLinesParse holds the command lines the documentation
// shows to the flag table: every row of README's command table and every
// example in the usage comment at the top of main.go. A line that elides
// flags with "..." may break a rule (the elided flags would satisfy it) but
// may name no flag its role does not read.
func TestDocumentedCommandLinesParse(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	usage, _, _ := strings.Cut(string(src), "\npackage main")
	var lines []string
	for _, m := range regexp.MustCompile("`go run ./cmd/gridd ([^`]+)`").FindAllStringSubmatch(string(readme), -1) {
		lines = append(lines, m[1])
	}
	for _, m := range regexp.MustCompile(`(?m)^//\tgridd ((?:.*\\\n)*.*)$`).FindAllStringSubmatch(usage, -1) {
		lines = append(lines, strings.ReplaceAll(m[1], "\\\n//", " "))
	}
	if len(lines) < 20 {
		t.Fatalf("found only %d documented command lines: %q", len(lines), lines)
	}
	for _, line := range lines {
		elided := strings.Contains(line, "...")
		argv := strings.Fields(strings.NewReplacer("...", "", "'", "").Replace(line))
		_, _, err := parseArgs(argv, io.Discard)
		for _, c := range rules {
			if elided && err != nil && err.Error() == c.msg {
				err = nil
			}
		}
		if err != nil {
			t.Errorf("gridd %s: %v", line, err)
		}
	}
}

// TestHelpGolden pins `gridd -h`: a flag's name, default or help changing
// shows up as a diff of testdata/help.golden (-update rewrites it).
func TestHelpGolden(t *testing.T) {
	var got bytes.Buffer
	if _, _, err := parseArgs([]string{"-h"}, &got); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h returned %v, want flag.ErrHelp", err)
	}
	path := filepath.Join("testdata", "help.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i, line := range gotLines {
		if i >= len(wantLines) || line != wantLines[i] {
			t.Fatalf("gridd -h differs from %s at line %d (-update rewrites it): %q", path, i+1, line)
		}
	}
	if len(gotLines) < len(wantLines) {
		t.Fatalf("gridd -h is %d lines, %s is %d (-update rewrites it)", len(gotLines), path, len(wantLines))
	}
}

// TestReadmeFlagsByRole checks README's "Flags by role" table against the
// flag table: one row per flag in -h order, its default, and a mark under
// each role that reads it.
func TestReadmeFlagsByRole(t *testing.T) {
	_, fs, table := boundFlags()
	readBy := map[string]role{}
	for _, f := range table {
		readBy[f.name] = f.roles
	}
	var b strings.Builder
	b.WriteString("| flag | default | " + strings.Join(roleNames[:], " | ") + " |\n|---|---|" + strings.Repeat(":-:|", len(roleNames)) + "\n")
	fs.VisitAll(func(f *flag.Flag) {
		cells := []string{"`-" + f.Name + "`", "`" + f.DefValue + "`"}
		for i := range roleNames {
			cells = append(cells, map[bool]string{true: "●", false: " "}[readBy[f.Name]&(1<<i) != 0])
		}
		b.WriteString("| " + strings.Join(cells, " | ") + " |\n")
	})
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(readme), b.String()) {
		t.Errorf("README \"Flags by role\" table is not the flag table's; it should read:\n%s", b.String())
	}
}
