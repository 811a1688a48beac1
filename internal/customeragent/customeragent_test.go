package customeragent

import (
	"errors"
	"math"
	"strconv"
	"testing"
	"testing/quick"
	"time"

	"loadbalance/internal/bus"
	"loadbalance/internal/message"
	"loadbalance/internal/resource"
	"loadbalance/internal/units"
	"loadbalance/internal/world"

	agentrt "loadbalance/internal/agent"
)

// paperLevels is the prototype's cut-down grid.
var paperLevels = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}

// paperCustomer reproduces the Figures 8-9 customer: it accepts 0.2 under
// the round-1 table, and 0.4 once rewards have grown past 21.
func paperCustomer(t *testing.T) Preferences {
	t.Helper()
	p, err := NewPreferences(paperLevels, map[float64]float64{
		0: 0, 0.1: 4, 0.2: 8, 0.3: 13, 0.4: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p.WithExpectedUse(13.5)
}

// linearTable builds a reward-table message with the given slope.
func linearTable(round int, slope float64) message.RewardTable {
	start := time.Date(1998, 1, 20, 17, 0, 0, 0, time.UTC)
	entries := make([]message.RewardEntry, len(paperLevels))
	for i, l := range paperLevels {
		entries[i] = message.RewardEntry{CutDown: l, Reward: slope * l}
	}
	return message.RewardTable{
		Window:  message.Window{Start: start, End: start.Add(2 * time.Hour)},
		Round:   round,
		Entries: entries,
	}
}

func TestNewPreferencesValidation(t *testing.T) {
	tests := []struct {
		name     string
		levels   []float64
		required map[float64]float64
	}{
		{name: "empty levels", levels: nil},
		{name: "unordered", levels: []float64{0, 0.2, 0.1}},
		{name: "grid not starting at 0", levels: []float64{0.1, 0.2}},
		{name: "negative requirement", levels: []float64{0, 0.1}, required: map[float64]float64{0: 0, 0.1: -1}},
		{name: "nonzero at 0", levels: []float64{0, 0.1}, required: map[float64]float64{0: 5, 0.1: 6}},
		{name: "decreasing requirements", levels: []float64{0, 0.1, 0.2}, required: map[float64]float64{0: 0, 0.1: 9, 0.2: 5}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewPreferences(tt.levels, tt.required); !errors.Is(err, ErrBadPreferences) {
				t.Fatalf("error = %v, want ErrBadPreferences", err)
			}
		})
	}
}

func TestPreferencesAccessors(t *testing.T) {
	p := paperCustomer(t)
	if got := p.RequiredFor(0.4); got != 21 {
		t.Fatalf("RequiredFor(0.4) = %v", got)
	}
	if got := p.RequiredFor(0.5); !math.IsInf(got, 1) {
		t.Fatalf("RequiredFor(0.5) = %v, want +Inf", got)
	}
	if got := p.RequiredFor(0.25); !math.IsInf(got, 1) {
		t.Fatalf("off-grid level = %v, want +Inf", got)
	}
	if p.MaxCutDown != 0.4 {
		t.Fatalf("MaxCutDown = %v, want 0.4", p.MaxCutDown)
	}
	// Marginal cost: first finite step is 4 reward for 0.1×13.5 kWh.
	want := 4 / (0.1 * 13.5)
	if !units.NearlyEqual(p.MarginalComfortCost, want, 1e-9) {
		t.Fatalf("marginal = %v, want %v", p.MarginalComfortCost, want)
	}
	if got := p.Surplus(0.2, 10); !units.NearlyEqual(got, 2, 1e-12) {
		t.Fatalf("surplus = %v", got)
	}
}

// TestPreferencesLiteralAcceptsNothing: the public type can be written as a
// literal, without NewPreferences; such preferences require +Inf at every
// level, so every strategy stands at its previous bid.
func TestPreferencesLiteralAcceptsNothing(t *testing.T) {
	lit := Preferences{Levels: paperLevels}.WithExpectedUse(13.5)
	if r := lit.RequiredFor(0.1); !math.IsInf(r, 1) {
		t.Fatalf("RequiredFor(0.1) = %v, want +Inf", r)
	}
	if !math.IsInf(lit.MarginalComfortCost, 1) {
		t.Fatalf("marginal = %v, want +Inf", lit.MarginalComfortCost)
	}
	for _, strat := range []Strategy{StrategyGreedy, StrategyIncremental, StrategyHoldout} {
		if bid, err := DecideCutDown(&lit, strat, linearTable(1, 1000), 0.1); err != nil || bid != 0.1 {
			t.Fatalf("%v: DecideCutDown = %v, %v; want 0.1", strat, bid, err)
		}
	}
}

func TestFromReport(t *testing.T) {
	h, err := world.NewHousehold("h", 3, false, 9)
	if err != nil {
		t.Fatal(err)
	}
	wm := world.NewWeatherModel(9)
	start := time.Date(1998, 1, 20, 17, 0, 0, 0, time.UTC)
	iv := units.Interval{Start: start, End: start.Add(2 * time.Hour)}
	rep, err := resource.BuildReport(h, iv, wm, 8)
	if err != nil {
		t.Fatal(err)
	}
	p, err := FromReport(rep, paperLevels, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if p.ExpectedUse != rep.TotalUse {
		t.Fatal("expected use should come from the report")
	}
	if p.MaxCutDown <= 0 {
		t.Fatal("household should have some flexibility")
	}
	if math.IsInf(p.MarginalComfortCost, 1) {
		t.Fatal("marginal comfort cost should be finite")
	}
}

// TestPaperDecisionSequence replays the Figures 8-9 storyline: the customer
// chooses 0.2 against the round-1 table and 0.4 once the reward at 0.4 has
// passed its requirement of 21.
func TestPaperDecisionSequence(t *testing.T) {
	prefs := paperCustomer(t)
	// Round 1: linear slope 42.5 → rewards 4.25/8.5/12.75/17.
	bid1, err := DecideCutDown(&prefs, StrategyGreedy, linearTable(1, 42.5), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !units.NearlyEqual(bid1, 0.2, 1e-12) {
		t.Fatalf("round 1 bid = %v, want 0.2", bid1)
	}
	// Round 2: slope grown to 53.66 → reward(0.4) = 21.46 ≥ 21.
	bid2, err := DecideCutDown(&prefs, StrategyGreedy, linearTable(2, 53.66), bid1)
	if err != nil {
		t.Fatal(err)
	}
	if !units.NearlyEqual(bid2, 0.4, 1e-12) {
		t.Fatalf("round 2 bid = %v, want 0.4", bid2)
	}
	// Round 3: rewards grow further; the bid stands still at 0.4.
	bid3, err := DecideCutDown(&prefs, StrategyGreedy, linearTable(3, 62), bid2)
	if err != nil {
		t.Fatal(err)
	}
	if !units.NearlyEqual(bid3, 0.4, 1e-12) {
		t.Fatalf("round 3 bid = %v, want 0.4", bid3)
	}
}

func TestDecideCutDownNeverRegresses(t *testing.T) {
	prefs := paperCustomer(t)
	// Last bid 0.3 but table only justifies 0.2: the bid must stay 0.3.
	bid, err := DecideCutDown(&prefs, StrategyGreedy, linearTable(2, 42.5), 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if bid != 0.3 {
		t.Fatalf("bid = %v, want floor 0.3", bid)
	}
}

func TestStrategyIncremental(t *testing.T) {
	prefs := paperCustomer(t)
	// Generous table: greedy would jump to 0.4; incremental concedes 0.1.
	rich := linearTable(1, 100)
	bid, err := DecideCutDown(&prefs, StrategyIncremental, rich, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !units.NearlyEqual(bid, 0.1, 1e-12) {
		t.Fatalf("incremental first bid = %v, want 0.1", bid)
	}
	bid, err = DecideCutDown(&prefs, StrategyIncremental, rich, bid)
	if err != nil {
		t.Fatal(err)
	}
	if !units.NearlyEqual(bid, 0.2, 1e-12) {
		t.Fatalf("incremental second bid = %v, want 0.2", bid)
	}
}

func TestStrategyHoldout(t *testing.T) {
	prefs := paperCustomer(t)
	// Round-1 table: 8.5 at 0.2 vs requirement 8. Acceptable, but below the
	// 15% holdout premium (9.2), so the holdout stays at 0.
	bid, err := DecideCutDown(&prefs, StrategyHoldout, linearTable(1, 42.5), 0)
	if err != nil {
		t.Fatal(err)
	}
	if bid != 0 {
		t.Fatalf("holdout round 1 bid = %v, want 0", bid)
	}
	// Premium reached at several levels: 0.3 pays 15 ≥ 1.15×13 = 14.95 and
	// is the deepest level clearing the premium, so the holdout bids 0.3.
	bid, err = DecideCutDown(&prefs, StrategyHoldout, linearTable(2, 50), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !units.NearlyEqual(bid, 0.3, 1e-12) {
		t.Fatalf("holdout round 2 bid = %v, want 0.3", bid)
	}
}

func TestDecideCutDownUnknownStrategy(t *testing.T) {
	prefs := paperCustomer(t)
	if _, err := DecideCutDown(&prefs, Strategy(99), linearTable(1, 42.5), 0); !errors.Is(err, ErrBadStrategy) {
		t.Fatalf("error = %v, want ErrBadStrategy", err)
	}
}

// TestDecisionReadsOnlyTheAnnouncedTable: an Agent serves any number of
// sessions, and each bid is judged against the table that session announced:
// nothing an Agent learned from one session's rewards may answer another's.
func TestDecisionReadsOnlyTheAnnouncedTable(t *testing.T) {
	prefs, err := NewPreferences([]float64{0, 0.1, 0.2, 0.3}, map[float64]float64{0: 0, 0.1: 5, 0.2: 10, 0.3: 20})
	if err != nil {
		t.Fatal(err)
	}
	ca, err := New("c1", prefs, StrategyGreedy)
	if err != nil {
		t.Fatal(err)
	}
	table := func(round int, scale float64) message.RewardTable {
		tab := linearTable(round, 0)
		tab.Entries = nil
		for _, e := range [][2]float64{{0, 0}, {0.1, 6}, {0.2, 12}, {0.3, 24}} {
			tab.Entries = append(tab.Entries, message.RewardEntry{CutDown: e[0], Reward: e[1] * scale})
		}
		return tab
	}
	react := func(session string, tab message.RewardTable) float64 {
		t.Helper()
		env, err := message.NewEnvelope("ua", "c1", session, tab)
		if err != nil {
			t.Fatal(err)
		}
		reply, ok, err := ca.React(env)
		bid, isBid := reply.(message.CutDownBid)
		if err != nil || !ok || !isBid || bid.Round != tab.Round {
			t.Fatalf("session %s round %d: React = %v, %v, %v", session, tab.Round, reply, ok, err)
		}
		return bid.CutDown
	}
	// Session A pays {0.1:6, 0.2:12, 0.3:24}: every level clears.
	if got := react("A", table(1, 1)); got != 0.3 {
		t.Fatalf("session A bid = %v, want 0.3", got)
	}
	// Session B pays a tenth of that: nothing but 0 clears.
	if got := react("B", table(1, 0.1)); got != 0 {
		t.Fatalf("session B bid = %v, want 0: its table offers {0.1:0.6, 0.2:1.2, 0.3:2.4}", got)
	}
	// Inside one session the previous bid is the floor, and the only thing
	// that carries over: a poorer round-2 table cannot pull A's bid back.
	if got := react("A", table(2, 0.1)); got != 0.3 {
		t.Fatalf("session A round 2 bid = %v, want the 0.3 already committed", got)
	}
	if got := ca.LastBid("B"); got != 0 {
		t.Fatalf("session B last bid = %v, want 0", got)
	}
}

func TestDecideOffer(t *testing.T) {
	prefs := paperCustomer(t) // 13.5 kWh expected, marginal cost ~2.96/kWh
	window := message.Window{
		Start: time.Date(1998, 1, 20, 17, 0, 0, 0, time.UTC),
		End:   time.Date(1998, 1, 20, 19, 0, 0, 0, time.UTC),
	}
	tests := []struct {
		name  string
		terms message.OfferTerms
		want  bool
	}{
		{
			// Cap 13.5×0.8 = 10.8; decline 13.5×1 = 13.5; accept = 10.8×0.5
			// + cheaper of (2.7×2.0 high) vs (2.7×2.96 shed) = 5.4+5.4 =
			// 10.8 < 13.5 → accept.
			name:  "worthwhile discount",
			terms: message.OfferTerms{Window: window, XMax: 0.8, AllowanceKWh: 13.5, LowPrice: 0.5, NormalPrice: 1, HighPrice: 2},
			want:  true,
		},
		{
			// Tiny discount with harsh excess price: accept = 13.23×0.98 +
			// cheap-side excess ≈ 12.97 + min(0.54, 0.8) → still less than
			// 13.5? 0.27 kWh excess at high 3 → 0.81, shed 0.8. accept ≈
			// 13.76 > 13.5 → decline.
			name:  "not worth it",
			terms: message.OfferTerms{Window: window, XMax: 0.98, AllowanceKWh: 13.5, LowPrice: 0.98, NormalPrice: 1, HighPrice: 3},
			want:  false,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := DecideOffer(&prefs, tt.terms); got != tt.want {
				t.Fatalf("DecideOffer = %v, want %v", got, tt.want)
			}
		})
	}
	// A customer with no expected use accepts trivially.
	idle, err := NewPreferences(paperLevels, map[float64]float64{0: 0})
	if err != nil {
		t.Fatal(err)
	}
	if !DecideOffer(&idle, tests[0].terms) {
		t.Fatal("idle customer should accept")
	}
}

func TestDecideEnergyBid(t *testing.T) {
	prefs := paperCustomer(t)
	req := message.BidRequest{
		Window: message.Window{
			Start: time.Date(1998, 1, 20, 17, 0, 0, 0, time.UTC),
			End:   time.Date(1998, 1, 20, 19, 0, 0, 0, time.UTC),
		},
		Round: 1, LowPrice: 0.5, NormalPrice: 1, HighPrice: 4,
	}
	// Step = 0.1×13.5 = 1.35 kWh; premium saved = 3.5×1.35 = 4.725 >
	// comfort 2.96×1.35 = 4.0 → step forward.
	got := DecideEnergyBid(&prefs, req, 13.5)
	if !units.NearlyEqual(got, 12.15, 1e-9) {
		t.Fatalf("bid = %v, want 12.15", got)
	}
	// Cheap peak power: premium 0.5×1.35 = 0.675 < comfort → stand still.
	cheap := req
	cheap.HighPrice = 1
	if got := DecideEnergyBid(&prefs, cheap, 13.5); got != 13.5 {
		t.Fatalf("bid = %v, want stand-still 13.5", got)
	}
	// Never below the feasibility floor 13.5×0.6 = 8.1.
	if got := DecideEnergyBid(&prefs, req, 8.5); got < 8.1-1e-9 {
		t.Fatalf("bid %v below floor", got)
	}
	if got := DecideEnergyBid(&prefs, req, 8.1); got != 8.1 {
		t.Fatalf("bid at floor = %v, want stand-still", got)
	}
}

func TestNewAgentValidation(t *testing.T) {
	prefs := paperCustomer(t)
	if _, err := New("", prefs, StrategyGreedy); err == nil {
		t.Fatal("empty name should fail")
	}
	if _, err := New("c1", prefs, Strategy(42)); !errors.Is(err, ErrBadStrategy) {
		t.Fatal("bad strategy should fail")
	}
	a, err := New("c1", prefs, StrategyGreedy)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "c1" || a.Preferences().MaxCutDown != 0.4 {
		t.Fatalf("agent = %+v", a)
	}
}

// TestAgentRespondsToRewardTable runs the CA on a live bus and checks it
// answers an announcement with its bid.
func TestAgentRespondsToRewardTable(t *testing.T) {
	b, err := bus.NewInProc(bus.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	uaBox, err := b.Register("ua", 8)
	if err != nil {
		t.Fatal(err)
	}

	ca, err := New("c1", paperCustomer(t), StrategyGreedy)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := agentrt.Start("c1", b, ca, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()

	env, err := message.NewEnvelope("ua", "c1", "s1", linearTable(1, 42.5))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Send(env); err != nil {
		t.Fatal(err)
	}
	select {
	case reply := <-uaBox:
		p, err := reply.Decode()
		if err != nil {
			t.Fatal(err)
		}
		bid, ok := p.(message.CutDownBid)
		if !ok {
			t.Fatalf("reply = %T", p)
		}
		if bid.Round != 1 || !units.NearlyEqual(bid.CutDown, 0.2, 1e-12) {
			t.Fatalf("bid = %+v, want round 1 cut-down 0.2", bid)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no bid received")
	}
	if got := ca.LastBid("s1"); !units.NearlyEqual(got, 0.2, 1e-12) {
		t.Fatalf("LastBid = %v", got)
	}
}

// TestAgentSessionLifecycle covers award receipt and end-of-session
// handling, including silence after SessionEnd.
func TestAgentSessionLifecycle(t *testing.T) {
	b, err := bus.NewInProc(bus.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	uaBox, err := b.Register("ua", 8)
	if err != nil {
		t.Fatal(err)
	}
	ca, err := New("c1", paperCustomer(t), StrategyGreedy)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := agentrt.Start("c1", b, ca, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()

	send := func(p message.Payload) {
		t.Helper()
		env, err := message.NewEnvelope("ua", "c1", "s1", p)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Send(env); err != nil {
			t.Fatal(err)
		}
	}
	send(message.Award{Round: 3, CutDown: 0.4, Reward: 24.8})
	send(message.SessionEnd{Round: 3, Reason: "converged"})
	// A table after session end must not produce a bid.
	send(linearTable(4, 80))

	deadline := time.After(2 * time.Second)
	for {
		if _, ok := ca.AwardFor("s1"); ok {
			break
		}
		select {
		case <-deadline:
			t.Fatal("award never recorded")
		case <-time.After(time.Millisecond):
		}
	}
	award, _ := ca.AwardFor("s1")
	if award.Reward != 24.8 {
		t.Fatalf("award = %+v", award)
	}
	// Allow any in-flight handling to finish, then check no bid arrived.
	time.Sleep(50 * time.Millisecond)
	select {
	case env := <-uaBox:
		t.Fatalf("CA responded after session end: %+v", env)
	default:
	}
	if _, ok := ca.AwardFor("nosession"); ok {
		t.Fatal("award for unknown session")
	}
	if got := ca.LastBid("nosession"); got != 0 {
		t.Fatalf("LastBid unknown session = %v", got)
	}
}

func TestStrategyString(t *testing.T) {
	for _, s := range []Strategy{StrategyGreedy, StrategyIncremental, StrategyHoldout, Strategy(9)} {
		if s.String() == "" {
			t.Fatal("empty strategy string")
		}
	}
}

// Property: for any pair of tables where the second dominates the first,
// the greedy decision against the second is at least the decision against
// the first (the customer half of monotonic concession emerges from the
// decision rule alone).
func TestDecisionMonotoneInTableProperty(t *testing.T) {
	prefs := paperCustomer(t)
	f := func(s1Raw, s2Raw uint8) bool {
		slope1 := 20 + float64(s1Raw%60)
		slope2 := slope1 + float64(s2Raw%40) // dominating table
		bid1, err := DecideCutDown(&prefs, StrategyGreedy, linearTable(1, slope1), 0)
		if err != nil {
			return false
		}
		bid2, err := DecideCutDown(&prefs, StrategyGreedy, linearTable(2, slope2), bid1)
		if err != nil {
			return false
		}
		return bid2 >= bid1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the greedy bid never exceeds the customer's feasible maximum.
func TestDecisionRespectsFeasibilityProperty(t *testing.T) {
	prefs := paperCustomer(t)
	f := func(sRaw uint8) bool {
		slope := 20 + float64(sRaw) // arbitrarily rich tables
		bid, err := DecideCutDown(&prefs, StrategyGreedy, linearTable(1, slope), 0)
		if err != nil {
			return false
		}
		return bid <= prefs.MaxCutDown+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestReactAllocationBudget holds the Customer Agent's per-announcement cost
// to its budget: a React to an in-process round-2 table of ten entries — the
// carried table, the acceptability scan, the bid — allocates at most 4 times
// (measured 1, the boxed bid; 2 while the agent also filed its answer in a kb
// store; 938 when every kb Match re-keyed, sorted and copied the store; 78
// when the table was JSON-parsed and judged by a desire composition per
// customer).
func TestReactAllocationBudget(t *testing.T) {
	prefs := paperCustomer(t)
	var envs [2]message.Envelope
	for i, slope := range []float64{42.5, 62} {
		env, err := message.NewEnvelope("ua", "c1", "s", linearTable(i+1, slope))
		if err != nil {
			t.Fatal(err)
		}
		envs[i] = env
	}
	// AllocsPerRun calls the function once to warm up, then runs+1 times in
	// all: every call needs a fresh agent that has seen round 1.
	const runs = 20
	agents := make([]*Agent, runs+1)
	for i := range agents {
		a, err := New("c1", prefs, StrategyGreedy)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := a.React(envs[0]); err != nil {
			t.Fatal(err)
		}
		agents[i] = a
	}
	next := 0
	got := testing.AllocsPerRun(runs, func() {
		reply, ok, err := agents[next].React(envs[1])
		next++
		if bid, isBid := reply.(message.CutDownBid); err != nil || !ok || !isBid || bid.CutDown != 0.4 {
			t.Errorf("round-2 React = %v, %v, %v; want a 0.4 bid", reply, ok, err)
		}
	})
	if got > 4 {
		t.Fatalf("round-2 React allocates %v times, budget 4", got)
	}
	t.Logf("round-2 React allocates %v times", got)
}

// TestDecideCutDownAllocatesNothing: every strategy's decision is one walk of
// the customer's grid and requirements beside the announced entries, so none
// allocates (the incremental and holdout strategies built and sorted a slice
// of acceptable levels, and every call copied the preferences).
func TestDecideCutDownAllocatesNothing(t *testing.T) {
	prefs := paperCustomer(t)
	table := linearTable(2, 53.66)
	for _, strat := range []Strategy{StrategyGreedy, StrategyIncremental, StrategyHoldout} {
		var bid float64
		var err error
		got := testing.AllocsPerRun(100, func() {
			bid, err = DecideCutDown(&prefs, strat, table, 0.1)
		})
		if err != nil || bid <= 0.1 {
			t.Fatalf("%v: DecideCutDown = %v, %v; want a concession past 0.1", strat, bid, err)
		}
		if got != 0 {
			t.Errorf("%v: DecideCutDown allocates %v times, want 0", strat, got)
		}
	}
}

// TestFirstSessionAllocations holds what an engine-hosted customer costs
// before its first bid leaves: New plus the first React of a table allocate at
// most 3 times (measured 2 — the Agent and the boxed bid; 6 while New made a
// session map and the first React a state and a map bucket). The first
// session's state lives in the Agent; only a second session id makes the map.
func TestFirstSessionAllocations(t *testing.T) {
	prefs := paperCustomer(t)
	env, err := message.NewEnvelope("ua", "c1", "s", linearTable(1, 42.5))
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(20, func() {
		a, err := New("c1", prefs, StrategyGreedy)
		if err != nil {
			t.Error(err)
			return
		}
		if _, ok := a.AwardFor(""); ok || a.LastBid("") != 0 {
			t.Error("an agent that has seen no session reports one")
		}
		if _, ok, err := a.React(env); err != nil || !ok {
			t.Errorf("first React = %v, %v", ok, err)
		}
		if a.later != nil {
			t.Error("the first session made the session map")
		}
	})
	if got > 3 {
		t.Fatalf("New + first React allocate %v times, budget 3", got)
	}
	t.Logf("New + first React allocate %v times", got)
}

// TestBroadcastTableIsSharedReadOnly runs under -race: one announced table is
// one value in 64 inboxes, read by 64 agent goroutines while the announcer is
// already building the next round's. Every round's bids must be the bids that
// round's table earns, which they are only if no one writes what was sent.
func TestBroadcastTableIsSharedReadOnly(t *testing.T) {
	const agents, rounds = 64, 6
	b, err := bus.NewInProc(bus.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	uaBox, err := b.Register("ua", agents)
	if err != nil {
		t.Fatal(err)
	}
	prefs := paperCustomer(t)
	for i := 0; i < agents; i++ {
		name := "c" + strconv.Itoa(i)
		ca, err := New(name, prefs, StrategyGreedy)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := agentrt.Start(name, b, ca, 8)
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Stop()
	}
	slope := func(round int) float64 { return 30 + 8*float64(round) }
	want := 0.0
	next := linearTable(1, slope(1))
	for round := 1; round <= rounds; round++ {
		table := next
		env, err := message.NewEnvelope("ua", "", "s1", table)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Send(env); err != nil {
			t.Fatal(err)
		}
		next = linearTable(round+1, slope(round+1)) // while the fleet reads this round's
		if want, err = DecideCutDown(&prefs, StrategyGreedy, table, want); err != nil {
			t.Fatal(err)
		}
		for got := 0; got < agents; got++ {
			select {
			case reply := <-uaBox:
				p, err := reply.Decode()
				if bid, ok := p.(message.CutDownBid); err != nil || !ok || bid.Round != round || bid.CutDown != want {
					t.Fatalf("round %d: %s answered %v, %v; want cut-down %v", round, reply.From, p, err, want)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("round %d: %d of %d bids", round, got, agents)
			}
		}
	}
	if want != 0.4 {
		t.Fatalf("final bid %v: the tables never reached the paper customer's 0.4", want)
	}
}
