package core

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"loadbalance/internal/bus"
	"loadbalance/internal/units"
)

func TestSyntheticScenarioShape(t *testing.T) {
	s, err := SyntheticScenario(SyntheticConfig{N: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Customers) != 50 {
		t.Fatalf("customers = %d", len(s.Customers))
	}
	var total units.Energy
	for _, c := range s.Customers {
		total = total.Add(c.Predicted)
	}
	ratio := total.KWhs()/s.NormalUse.KWhs() - 1
	if ratio < 0.34 || ratio > 0.36 {
		t.Fatalf("initial overuse ratio = %v, want ≈0.35", ratio)
	}
	// Determinism: the same seed yields the same fleet.
	s2, err := SyntheticScenario(SyntheticConfig{N: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.Customers {
		if s.Customers[i].Prefs.RequiredFor(0.4) != s2.Customers[i].Prefs.RequiredFor(0.4) {
			t.Fatalf("customer %d differs across identical seeds", i)
		}
	}
	if _, err := SyntheticScenario(SyntheticConfig{}); err == nil {
		t.Fatal("zero population should fail")
	}
	if _, err := SyntheticScenario(SyntheticConfig{N: 5, TargetOveruse: -1}); err == nil {
		t.Fatal("negative target overuse should fail")
	}
}

func TestSyntheticScenarioNegotiates(t *testing.T) {
	s, err := SyntheticScenario(SyntheticConfig{N: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds == 0 {
		t.Fatalf("no negotiation ran: %+v", res.Result)
	}
	if res.FinalOveruseKWh >= res.InitialOveruseKWh {
		t.Fatalf("overuse did not fall: %v → %v", res.InitialOveruseKWh, res.FinalOveruseKWh)
	}
}

// TestRunAllocationBudget holds a whole flat negotiation — set-up, every
// round's broadcast, bids and awards, tear-down — to 1.25 times the measured
// 4.7 allocations and 1 746 bytes per customer (the same under -race), since
// an envelope built in process carries its payload and no JSON. They read 7.8
// and 1 916 B (10.1 and 2 093 B under -race) while every send marshalled its
// payload; 8.9 and 2 140 B while a fleet's queue doubled and started at the
// fleet's size; 9.1 and 2 660 B while the Utility Agent's inbox
// was a channel of 4·N envelopes; 13.7 and 3 100 B with a goroutine, an inbox
// and a stop channel per customer (17 and 12 000 B while that inbox had 64
// slots, every customer made a session map and the bus sorted its roster per
// broadcast; 35 while every agent mirrored its response counters into two kb
// stores; 188 when each customer JSON-parsed the table and judged it by its
// own kb composition). They are the units `go run ./bench -workload flat_1k`
// reports as allocs_per_unit and alloc_bytes_per_unit, at a fleet small
// enough for tier-1. The bytes are runtime.MemStats.TotalAlloc around the
// same runs (AllocsPerRun makes one more than it averages over).
func TestRunAllocationBudget(t *testing.T) {
	const n, runs = 64, 5
	const measuredAllocs, measuredBytes = 4.7, 1746.0
	s, err := SyntheticScenario(SyntheticConfig{N: n, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	perRun := testing.AllocsPerRun(runs, func() {
		if res, err := Run(s); err != nil || res.Rounds == 0 {
			t.Errorf("Run = %+v, %v", res, err)
		}
	})
	runtime.ReadMemStats(&after)
	allocs := perRun / n
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1) / n
	t.Logf("%.1f allocations, %.0f bytes per customer", allocs, bytes)
	if budget := 1.25 * measuredAllocs; allocs > budget {
		t.Errorf("a %d-customer session allocates %.1f times per customer, budget %.2f", n, allocs, budget)
	}
	if budget := 1.25 * measuredBytes; bytes > budget {
		t.Errorf("a %d-customer session allocates %.0f bytes per customer, budget %.0f", n, bytes, budget)
	}
}

// TestFullQuorumNeverFillsAnInbox is the measurement behind customerInbox as
// a guard: with the quorum full and no timeout, the lock-step protocol never
// has a customer more than two envelopes behind, so no delivery of a lossless
// session is Rejected — on any seed, and under -race, where the schedule
// differs.
func TestFullQuorumNeverFillsAnInbox(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			s, err := SyntheticScenario(SyntheticConfig{N: 256, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(s)
			if err != nil || res.Rounds == 0 || len(res.AgentErrors) != 0 {
				t.Fatalf("Run = %+v, %v", res, err)
			}
			if res.Bus.Rejected != 0 {
				t.Fatalf("bus rejected %d deliveries of %d sent", res.Bus.Rejected, res.Bus.Sent)
			}
		})
	}
}

// TestOneCustomerInboxSite keeps Placement.Host the only place in the tree
// that hosts a fleet, and so customerInbox the only bound a hosted customer
// has — and keeps the goroutine-per-customer loop it replaced from coming
// back beside it.
func TestOneCustomerInboxSite(t *testing.T) {
	var fleets, perCustomer []string
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i := 0; i < strings.Count(string(src), "StartFleet("); i++ {
			fleets = append(fleets, path)
		}
		if strings.Contains(string(src), "agentrt.Start(spec.Name") {
			perCustomer = append(perCustomer, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The definition in internal/agent and the one call in Placement.Host.
	want := []string{filepath.Join("..", "agent", "fleet.go"), filepath.Join("..", "core", "engine.go")}
	if !slices.Equal(fleets, want) {
		t.Fatalf("StartFleet( appears in %v, want %v (its definition and Placement.Host)", fleets, want)
	}
	if len(perCustomer) != 0 {
		t.Fatalf("customers are started one runtime each in %v", perCustomer)
	}
}

// nonTestSources reads every non-test Go file of the repository outside
// bench/ (whose twin of the engines is frozen until ROADMAP item 1), keyed by
// its path from here, in walk order.
func nonTestSources(t *testing.T) (root string, paths []string, src map[string]string) {
	t.Helper()
	root = filepath.Join("..", "..")
	src = make(map[string]string)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		b, err := os.ReadFile(path)
		paths, src[path] = append(paths, path), string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return root, paths, src
}

// TestOneUtilityAgentSite keeps Scenario.UAConfig the only place outside
// bench/ that writes a Utility Agent's configuration, and FanInInbox the only
// place that writes a fan-in mailbox's bound — five engines each used to spell
// out both, and drifted (a root inbox sized for N customers while it hears K
// concentrators).
func TestOneUtilityAgentSite(t *testing.T) {
	inboxBound := regexp.MustCompile(`4\s*\*\s*(max\(|cfg\.customers)`)
	var literals, bounds []string
	root, paths, src := nonTestSources(t)
	for _, path := range paths {
		for i := 0; i < strings.Count(src[path], "utilityagent.Config{"); i++ {
			literals = append(literals, path)
		}
		for range inboxBound.FindAllStringIndex(src[path], -1) {
			bounds = append(bounds, path)
		}
	}
	scenario, engine := filepath.Join(root, "internal", "core", "scenario.go"), filepath.Join(root, "internal", "core", "engine.go")
	if !slices.Equal(literals, []string{scenario}) {
		t.Errorf("utilityagent.Config{ appears in %v, want only %s (Scenario.UAConfig)", literals, scenario)
	}
	if !slices.Equal(bounds, []string{engine}) {
		t.Errorf("an inbox bound is written in %v, want only %s (FanInInbox)", bounds, engine)
	}
}

// TestOneSessionRoot keeps a session's root assembled in one place: the
// engine (Negotiate) is the one caller of startUtilityAgent, Run, loadsim's
// journaled flat run (both on the Flat layout) and the cluster layouts
// (cluster's negotiate) are the only callers of the engine,
// and no command or example starts a tier or sleeps waiting for a session —
// gridd's serve and examples/distributed each used to, and drifted (serve
// journaled its concentrators as if they were customers), and Run used to be
// a second session loop beside the engine.
func TestOneSessionRoot(t *testing.T) {
	var starters, engines, hand []string
	root, paths, src := nonTestSources(t)
	for _, path := range paths {
		for n := strings.Count(src[path], "startUtilityAgent(") - strings.Count(src[path], "func startUtilityAgent("); n > 0; n-- {
			starters = append(starters, path)
		}
		for n := strings.Count(src[path], "Negotiate(") - strings.Count(src[path], "func Negotiate("); n > 0; n-- {
			engines = append(engines, path)
		}
		// gridctl reads the HTTP surface; its sleeps pace a watch loop.
		rel, _ := filepath.Rel(root, path)
		if dir := strings.Split(filepath.ToSlash(rel), "/"); (dir[0] != "cmd" && dir[0] != "examples") || dir[1] == "gridctl" {
			continue
		}
		for _, call := range []string{"StartTier(", "time.Sleep("} {
			if strings.Contains(src[path], call) {
				hand = append(hand, path+": "+call)
			}
		}
	}
	engine := filepath.Join(root, "internal", "core", "engine.go")
	if !slices.Equal(starters, []string{engine}) {
		t.Errorf("startUtilityAgent is called from %v, want only %v (the engine)", starters, engine)
	}
	if want := []string{filepath.Join(root, "cmd", "loadsim", "main.go"), filepath.Join(root, "internal", "cluster", "layout.go"), engine}; !slices.Equal(engines, want) {
		t.Errorf("Negotiate is called from %v, want only %v (loadsim's journaled flat run, cluster's negotiate, Run)", engines, want)
	}
	if len(hand) > 0 {
		t.Errorf("a command or example assembles its own session: %v", hand)
	}
}

// TestHostingAFleetIsOneGoroutine: a thousand hosted customers are one table
// and one worker, where they were a thousand parked goroutines.
func TestHostingAFleetIsOneGoroutine(t *testing.T) {
	s, err := SyntheticScenario(SyntheticConfig{N: 1000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := bus.NewInProc(bus.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	before := runtime.NumGoroutine()
	cas, fleet, err := HostCustomers(b, s.Customers)
	if err != nil {
		t.Fatal(err)
	}
	hosting := runtime.NumGoroutine()
	fleet.Stop()
	// At most: an earlier test's goroutine may have finished exiting meanwhile.
	if len(cas) != 1000 || hosting-before > 1 {
		t.Fatalf("%d customers hosted: %d goroutines before, %d while hosted", len(cas), before, hosting)
	}
}

// TestLossySessionDoesNotWaitOutADrain: a session ends when the fleet has
// handled what reached it, not when every awarded customer has its award —
// which a bus that lost one award can never report, so every lossy session
// used to sit out a 200 ms drain after the negotiation was over.
func TestLossySessionDoesNotWaitOutADrain(t *testing.T) {
	s, err := SyntheticScenario(SyntheticConfig{N: 256, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.DropRate = 0.2
	s.RoundTimeout = 20 * time.Millisecond
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds == 0 || res.Bus.Dropped == 0 {
		t.Fatalf("not a lossy negotiation: %d rounds, bus %+v", res.Rounds, res.Bus)
	}
	t.Logf("%d rounds in %v", res.Rounds, res.Elapsed)
	if res.Elapsed >= 200*time.Millisecond {
		t.Fatalf("a lossy session of %d rounds with a %v round timeout took %v", res.Rounds, s.RoundTimeout, res.Elapsed)
	}
}
