package utilityagent

import (
	"errors"
	"math"
	"testing"
	"time"

	agentrt "loadbalance/internal/agent"
	"loadbalance/internal/bus"
	"loadbalance/internal/message"
	"loadbalance/internal/prediction"
	"loadbalance/internal/protocol"
	"loadbalance/internal/units"
)

func testWindow() units.Interval {
	start := time.Date(1998, 1, 20, 17, 0, 0, 0, time.UTC)
	return units.Interval{Start: start, End: start.Add(2 * time.Hour)}
}

func tenLoads() map[string]protocol.CustomerLoad {
	loads := make(map[string]protocol.CustomerLoad, 10)
	for i := 0; i < 10; i++ {
		loads[string(rune('a'+i))] = protocol.CustomerLoad{Predicted: 13.5, Allowed: 13.5}
	}
	return loads
}

func baseConfig() Config {
	return Config{
		SessionID: "s1",
		Window:    testWindow(),
		NormalUse: 100,
		Loads:     tenLoads(),
		Method:    MethodRewardTable,
		Params: protocol.Params{
			Beta:                1.85,
			MaxRewardSlope:      125,
			Epsilon:             1,
			AllowedOveruseRatio: 0.13,
		},
		InitialSlope: 42.5,
		WarrantRatio: 0.05,
	}
}

func TestNewValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{name: "empty session", mutate: func(c *Config) { c.SessionID = "" }},
		{name: "no loads", mutate: func(c *Config) { c.Loads = nil }},
		{name: "zero normal use", mutate: func(c *Config) { c.NormalUse = 0 }},
		{name: "negative slope", mutate: func(c *Config) { c.InitialSlope = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := baseConfig()
			tt.mutate(&cfg)
			if _, err := New(cfg); !errors.Is(err, ErrBadConfig) {
				t.Fatalf("error = %v, want ErrBadConfig", err)
			}
		})
	}
	ua, err := New(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if ua.cfg.Name != "ua" {
		t.Fatalf("default name = %q", ua.cfg.Name)
	}
}

func TestChooseMethod(t *testing.T) {
	tests := []struct {
		name string
		give Situation
		want Method
	}{
		{
			name: "imminent peak forces offer",
			give: Situation{LeadTime: 5 * time.Minute, OveruseRatio: 0.35, Customers: 100},
			want: MethodOffer,
		},
		{
			name: "small peak takes the fast offer",
			give: Situation{LeadTime: 2 * time.Hour, OveruseRatio: 0.08, Customers: 100, ResponseRate: 0.7},
			want: MethodOffer,
		},
		{
			name: "long horizon small fleet allows rfb",
			give: Situation{LeadTime: 12 * time.Hour, OveruseRatio: 0.35, Customers: 20},
			want: MethodRequestForBids,
		},
		{
			name: "default is reward tables",
			give: Situation{LeadTime: 2 * time.Hour, OveruseRatio: 0.35, Customers: 1000},
			want: MethodRewardTable,
		},
		{
			name: "large fleet stays on reward tables even with time",
			give: Situation{LeadTime: 12 * time.Hour, OveruseRatio: 0.35, Customers: 1000},
			want: MethodRewardTable,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := ChooseMethod(tt.give); got != tt.want {
				t.Fatalf("ChooseMethod = %v, want %v", got, tt.want)
			}
		})
	}
}

// TestAutoMethodUsesPriorOnFreshAgent pins what MethodAuto decides with
// today: a Utility Agent lives for one session and starts with an empty
// model, so it chooses exactly what ChooseMethod chooses with no response
// history. The 0.13 cases sit where any observed rate below 0.46 would
// choose differently.
func TestAutoMethodUsesPriorOnFreshAgent(t *testing.T) {
	tests := []struct {
		name      string
		normalUse units.Energy // tenLoads predicts 135 kWh
		leadTime  time.Duration
	}{
		{name: "imminent", normalUse: 100, leadTime: 5 * time.Minute},
		{name: "small peak inside the prior's offer range", normalUse: 135 / 1.13, leadTime: 2 * time.Hour},
		{name: "same peak, long horizon", normalUse: 135 / 1.13, leadTime: 12 * time.Hour},
		{name: "large peak", normalUse: 100, leadTime: 2 * time.Hour},
		{name: "large peak, long horizon, small fleet", normalUse: 100, leadTime: 12 * time.Hour},
	}
	chosen := make(map[Method]bool)
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			b, err := bus.NewInProc(bus.Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			cfg := baseConfig()
			cfg.Method = MethodAuto
			cfg.NormalUse = tt.normalUse
			cfg.LeadTime = tt.leadTime
			ua, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rt, err := agentrt.Start("ua", b, ua, 16)
			if err != nil {
				t.Fatal(err)
			}
			rt.Stop() // OnStart has run and the goroutine has exited: ua.method is safe to read
			if errs := rt.Errors(); len(errs) != 0 {
				t.Fatal(errs)
			}
			ratio, _ := EvaluatePrediction(cfg.Loads, cfg.NormalUse, cfg.WarrantRatio)
			want := ChooseMethod(Situation{
				LeadTime:     cfg.LeadTime,
				OveruseRatio: ratio,
				Customers:    len(cfg.Loads),
				ResponseRate: 0,
			})
			if ua.method != want {
				t.Fatalf("fresh UA under MethodAuto chose %v, ChooseMethod with no history chooses %v", ua.method, want)
			}
			chosen[want] = true
		})
	}
	if len(chosen) != 3 {
		t.Fatalf("cases reached %d of the 3 methods: %v", len(chosen), chosen)
	}
}

func TestEvaluatePrediction(t *testing.T) {
	ratio, negotiate := EvaluatePrediction(tenLoads(), 100, 0.05)
	if !units.NearlyEqual(ratio, 0.35, 1e-12) || !negotiate {
		t.Fatalf("EvaluatePrediction = %v, %v", ratio, negotiate)
	}
	// At its boundary: a ratio equal to the warrant ratio, or one float step
	// below it, does not warrant the effort; one float step above it does.
	at := ratio
	for _, c := range []struct {
		warrant float64
		want    bool
	}{
		{at, false},
		{math.Nextafter(at, math.Inf(1)), false},
		{math.Nextafter(at, math.Inf(-1)), true},
	} {
		if ratio, negotiate := EvaluatePrediction(tenLoads(), 100, c.warrant); ratio != at || negotiate != c.want {
			t.Errorf("warrant %v: EvaluatePrediction = %v, %v; want %v, %v", c.warrant, ratio, negotiate, at, c.want)
		}
	}
	ratio, negotiate = EvaluatePrediction(tenLoads(), 200, 0.05)
	if negotiate {
		t.Fatalf("below-capacity prediction should not negotiate (ratio %v)", ratio)
	}
}

func TestNoNegotiationWhenPeakSmall(t *testing.T) {
	b, err := bus.NewInProc(bus.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	cfg := baseConfig()
	cfg.NormalUse = 500 // no peak at all
	ua, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := agentrt.Start("ua", b, ua, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	select {
	case res := <-ua.Done():
		if res.Outcome != "no negotiation needed" {
			t.Fatalf("outcome = %q", res.Outcome)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no result")
	}
}

// scriptedCustomer joins the bus and answers announcements with a fixed
// function per round.
func scriptedCustomer(t *testing.T, b bus.Bus, name string, bidFor func(round int) float64) *agentrt.Runtime {
	t.Helper()
	rt, err := agentrt.Start(name, b, agentrt.HandlerFuncs{
		Message: func(rt *agentrt.Runtime, env message.Envelope) error {
			p, err := env.Decode()
			if err != nil {
				return err
			}
			switch m := p.(type) {
			case message.RewardTable:
				return rt.Send(env.From, env.Session, message.CutDownBid{
					Round: m.Round, CutDown: bidFor(m.Round),
				})
			case message.OfferTerms:
				return rt.Send(env.From, env.Session, message.OfferReply{
					Round: 1, Accept: bidFor(1) > 0,
				})
			case message.BidRequest:
				return rt.Send(env.From, env.Session, message.EnergyBid{
					Round: m.Round, YMinKWh: 13.5 * (1 - bidFor(m.Round)),
				})
			default:
				return nil
			}
		},
	}, 16)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Stop)
	return rt
}

func TestRewardTableNegotiationConverges(t *testing.T) {
	b, err := bus.NewInProc(bus.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	cfg := baseConfig()
	ua, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Customers concede one level per round up to 0.4: by round 2 the fleet
	// cuts 10×0.2 = 2.0 ⇒ usage 108, ratio 0.08 ≤ 0.13 → converged.
	for name := range cfg.Loads {
		scriptedCustomer(t, b, name, func(round int) float64 {
			cd := 0.1 * float64(round)
			if cd > 0.4 {
				cd = 0.4
			}
			return cd
		})
	}
	rt, err := agentrt.Start("ua", b, ua, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()

	select {
	case res := <-ua.Done():
		if res.Method != MethodRewardTable {
			t.Fatalf("method = %v", res.Method)
		}
		if res.Outcome != protocol.OutcomeConverged.String() {
			t.Fatalf("outcome = %q (rounds %d, final %v)", res.Outcome, res.Rounds, res.FinalOveruseRatio)
		}
		if res.Rounds != 2 {
			t.Fatalf("rounds = %d, want 2", res.Rounds)
		}
		if !units.NearlyEqual(res.InitialOveruseKWh, 35, 1e-9) {
			t.Fatalf("initial overuse = %v", res.InitialOveruseKWh)
		}
		if !units.NearlyEqual(res.FinalOveruseKWh, 8, 1e-9) {
			t.Fatalf("final overuse = %v, want 8", res.FinalOveruseKWh)
		}
		if len(res.Awards) != 10 {
			t.Fatalf("awards = %d", len(res.Awards))
		}
		if res.TotalReward <= 0 {
			t.Fatal("total reward should be positive")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("negotiation never finished")
	}
	if errs := rt.Errors(); len(errs) != 0 {
		t.Fatalf("UA errors: %v", errs)
	}
}

func TestOfferNegotiation(t *testing.T) {
	b, err := bus.NewInProc(bus.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	cfg := baseConfig()
	cfg.Method = MethodOffer
	cfg.Offer = message.OfferTerms{
		Window:       message.FromInterval(cfg.Window),
		XMax:         0.7,
		AllowanceKWh: 13.5,
		LowPrice:     0.5,
		NormalPrice:  1,
		HighPrice:    2,
	}
	ua, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for name := range cfg.Loads {
		accept := i%2 == 0 // five accept, five decline
		i++
		bid := 0.0
		if accept {
			bid = 1
		}
		scriptedCustomer(t, b, name, func(round int) float64 { return bid })
	}
	rt, err := agentrt.Start("ua", b, ua, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()

	select {
	case res := <-ua.Done():
		if res.Method != MethodOffer || res.Offer == nil {
			t.Fatalf("result = %+v", res)
		}
		if res.Offer.Accepted != 5 || res.Offer.Declined != 5 {
			t.Fatalf("offer outcome = %+v", res.Offer)
		}
		// Accepters cap at 0.7×13.5 = 9.45: usage 5×9.45+5×13.5 = 114.75.
		if !units.NearlyEqual(res.FinalOveruseKWh, 14.75, 1e-9) {
			t.Fatalf("final overuse = %v", res.FinalOveruseKWh)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("offer never closed")
	}
}

func TestRFBNegotiation(t *testing.T) {
	b, err := bus.NewInProc(bus.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	cfg := baseConfig()
	cfg.Method = MethodRequestForBids
	cfg.RFB = protocol.RFBParams{
		LowPrice: 0.5, NormalPrice: 1, HighPrice: 2,
		AllowedOveruseRatio: 0.10,
	}
	ua, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Each round customers shave 10% more of their prediction, to a floor.
	for name := range cfg.Loads {
		scriptedCustomer(t, b, name, func(round int) float64 {
			cd := 0.1 * float64(round)
			if cd > 0.3 {
				cd = 0.3
			}
			return cd
		})
	}
	rt, err := agentrt.Start("ua", b, ua, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()

	select {
	case res := <-ua.Done():
		if res.Method != MethodRequestForBids {
			t.Fatalf("method = %v", res.Method)
		}
		if res.Outcome != protocol.RFBConverged.String() {
			t.Fatalf("outcome = %q", res.Outcome)
		}
		// Round 2: everyone at 0.8×13.5 = 10.8 ⇒ usage 108, ratio 0.08.
		if res.Rounds != 2 {
			t.Fatalf("rounds = %d", res.Rounds)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("rfb never finished")
	}
}

// TestRoundTimeoutClosesWithSilentCustomers is the liveness half of E9: two
// customers never answer, quorum is never reached, and the timeout closes
// each round anyway.
func TestRoundTimeoutClosesWithSilentCustomers(t *testing.T) {
	if st := convergeDespiteSilentPair(t, 64); st.Rejected != 0 {
		t.Fatalf("bus stats = %+v, want nothing rejected", st)
	}
}

// TestFullInboxIsALostAnnouncement gives the silent pair one-slot inboxes, so
// from round 2 on every announcement to them — and the session end — is
// rejected with bus.ErrInboxFull. To the negotiation that is a lost message:
// the timeout is still armed, the round still closes, the outcome is the one
// the roomy inboxes reach. (A UA that returned on the first delivery error
// never armed round 2's timeout and hung.)
func TestFullInboxIsALostAnnouncement(t *testing.T) {
	if st := convergeDespiteSilentPair(t, 1); st.Rejected < 2 {
		t.Fatalf("bus stats = %+v, want the full inboxes' deliveries counted as rejected", st)
	}
}

// convergeDespiteSilentPair negotiates with eight scripted customers and two
// that register an inbox of the given size and never read it, requires the
// converged outcome, and returns the bus counters.
func convergeDespiteSilentPair(t *testing.T, silentInbox int) bus.Stats {
	t.Helper()
	b, err := bus.NewInProc(bus.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	cfg := baseConfig()
	cfg.RoundTimeout = 30 * time.Millisecond
	ua, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for name := range cfg.Loads {
		if i < 2 {
			// Silent customers: register but never answer.
			if _, err := b.Register(name, silentInbox); err != nil {
				t.Fatal(err)
			}
		} else {
			scriptedCustomer(t, b, name, func(round int) float64 {
				cd := 0.1 * float64(round)
				if cd > 0.4 {
					cd = 0.4
				}
				return cd
			})
		}
		i++
	}
	rt, err := agentrt.Start("ua", b, ua, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()

	select {
	case res := <-ua.Done():
		if res.Rounds == 0 {
			t.Fatalf("result = %+v", res)
		}
		// Eight active customers at 0.4 → usage 8×8.1 + 2×13.5 = 91.8,
		// ratio −0.082: converged despite the silent pair.
		if res.Outcome != protocol.OutcomeConverged.String() {
			t.Fatalf("outcome = %q", res.Outcome)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("timed-out negotiation never finished; UA errors: %v", rt.Errors())
	}
	for _, err := range rt.Errors() {
		if errors.Is(err, bus.ErrInboxFull) {
			t.Fatalf("a full inbox reached the UA as a handler error: %v", err)
		}
	}
	return b.Stats()
}

// TestUndeliverableAwardDoesNotStopTheOthers has the first customer in award
// order leave the bus just before its last bid closes the negotiation. Its
// award is undeliverable (bus.ErrUnknownAgent); every other award and the
// session end must still arrive and the result must still publish. (A UA that
// returned on the first delivery error sent no award at all, no session end,
// and never finished.)
func TestUndeliverableAwardDoesNotStopTheOthers(t *testing.T) {
	b, err := bus.NewInProc(bus.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	cfg := baseConfig()
	ua, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Everyone concedes 0.1 per round, so round 2 converges (see
	// TestRewardTableNegotiationConverges) and all ten are awarded.
	const leaver = "a"
	awards := make(chan string, len(cfg.Loads))
	ends := make(chan string, len(cfg.Loads))
	for name := range cfg.Loads {
		name := name
		rt, err := agentrt.Start(name, b, agentrt.HandlerFuncs{
			Message: func(rt *agentrt.Runtime, env message.Envelope) error {
				p, err := env.Decode()
				if err != nil {
					return err
				}
				switch m := p.(type) {
				case message.RewardTable:
					if name == leaver && m.Round == 2 {
						// Gone before the bid that completes the quorum is
						// sent, so the close finds no such agent.
						b.Unregister(name)
					}
					return rt.Send(env.From, env.Session, message.CutDownBid{Round: m.Round, CutDown: 0.1 * float64(m.Round)})
				case message.Award:
					awards <- name
				case message.SessionEnd:
					ends <- name
				}
				return nil
			},
		}, 16)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Stop)
	}
	rt, err := agentrt.Start("ua", b, ua, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()

	select {
	case res := <-ua.Done():
		if res.Outcome != protocol.OutcomeConverged.String() || len(res.Awards) != len(cfg.Loads) {
			t.Fatalf("outcome = %q with %d awards, want converged with %d", res.Outcome, len(res.Awards), len(cfg.Loads))
		}
		if res.Awards[0].Customer != leaver {
			t.Fatalf("first award goes to %q, want the leaver %q first", res.Awards[0].Customer, leaver)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("negotiation never finished; UA errors: %v", rt.Errors())
	}
	for what, ch := range map[string]chan string{"award": awards, "session end": ends} {
		got := make(map[string]bool)
		for len(got) < len(cfg.Loads)-1 {
			select {
			case name := <-ch:
				got[name] = true
			case <-time.After(5 * time.Second):
				t.Fatalf("%s reached %d of %d remaining customers", what, len(got), len(cfg.Loads)-1)
			}
		}
		if got[leaver] {
			t.Fatalf("%s reached %q after it left the bus", what, leaver)
		}
	}
	if errs := rt.Errors(); len(errs) != 0 {
		t.Fatalf("UA errors: %v", errs)
	}
	if st := b.Stats(); st.Rejected != 1 {
		t.Fatalf("bus stats = %+v, want the leaver's award rejected and counted", st)
	}
}

func TestMethodString(t *testing.T) {
	for _, m := range []Method{MethodAuto, MethodOffer, MethodRequestForBids, MethodRewardTable, Method(9)} {
		if m.String() == "" {
			t.Fatal("empty method string")
		}
	}
}

func TestForecasterRequiresHistory(t *testing.T) {
	f := Forecaster{}
	if _, _, err := f.Forecast([]float64{1, 2}); !errors.Is(err, ErrNoHistory) {
		t.Fatalf("error = %v, want ErrNoHistory", err)
	}
	if _, _, err := f.LoadsFromHistory(nil); !errors.Is(err, ErrNoHistory) {
		t.Fatal("no customers should fail")
	}
}

func TestForecasterPicksGoodModel(t *testing.T) {
	f := Forecaster{}
	// A flat series: every model is near-perfect; the forecast must be ~12.
	series := []float64{12, 12, 12, 12, 12, 12, 12}
	v, model, err := f.Forecast(series)
	if err != nil {
		t.Fatal(err)
	}
	if !units.NearlyEqual(v, 12, 1e-9) {
		t.Fatalf("forecast = %v, want 12", v)
	}
	if model == "" {
		t.Fatal("model name missing")
	}
	// A trending series: exponential smoothing (alpha 0.6) should beat the
	// wide moving average; at minimum the forecast lands within the range.
	trend := []float64{8, 9, 10, 11, 12, 13, 14}
	v, _, err = f.Forecast(trend)
	if err != nil {
		t.Fatal(err)
	}
	if v < 10 || v > 15 {
		t.Fatalf("trend forecast = %v, want near the recent values", v)
	}
}

func TestForecasterNegativeClamp(t *testing.T) {
	f := Forecaster{Candidates: []prediction.Predictor{prediction.SeasonalNaive{Period: 1}}, Warmup: 1}
	// A crafted series ending negative would clamp; predictors here cannot
	// produce negatives from non-negative input, so verify the clamp via a
	// custom candidate instead.
	v, _, err := f.Forecast([]float64{3, 2})
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Fatalf("forecast = %v, want last value 2", v)
	}
}

func TestLoadsFromHistory(t *testing.T) {
	histories := map[string][]float64{
		"c1": {10, 11, 10, 12, 11, 10, 11},
		"c2": {5, 5, 6, 5, 5, 6, 5},
	}
	loads, rep, err := Forecaster{}.LoadsFromHistory(histories)
	if err != nil {
		t.Fatal(err)
	}
	if len(loads) != 2 {
		t.Fatalf("loads = %d", len(loads))
	}
	for name, l := range loads {
		if l.Predicted <= 0 || l.Allowed != l.Predicted {
			t.Fatalf("%s load = %+v", name, l)
		}
		if rep.ModelByCustomer[name] == "" {
			t.Fatalf("%s has no model", name)
		}
	}
	want := loads["c1"].Predicted + loads["c2"].Predicted
	if rep.TotalPredicted != want {
		t.Fatalf("total = %v, want %v", rep.TotalPredicted, want)
	}
}

func TestForecastError(t *testing.T) {
	loads := map[string]protocol.CustomerLoad{
		"c1": {Predicted: 11},
		"c2": {Predicted: 5},
	}
	actual := map[string]units.Energy{"c1": 10, "c2": 5}
	mape, err := ForecastError(loads, actual)
	if err != nil {
		t.Fatal(err)
	}
	// c1 off by 10%, c2 exact → MAPE 5%.
	if !units.NearlyEqual(mape, 0.05, 1e-9) {
		t.Fatalf("MAPE = %v, want 0.05", mape)
	}
}
