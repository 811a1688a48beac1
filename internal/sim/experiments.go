package sim

import (
	"fmt"
	"time"

	"loadbalance/internal/core"
	"loadbalance/internal/protocol"
	"loadbalance/internal/units"
	"loadbalance/internal/utilityagent"
	"loadbalance/internal/verify"
	"loadbalance/internal/world"
)

// E1DemandCurve regenerates Figure 1: the daily residential demand curve
// with its peak, plus the normal/expensive production cost threshold. The
// returned profile backs the plot; the table summarises its shape.
func E1DemandCurve(n int, seed int64) (*world.Profile, *Table, error) {
	pop, err := world.NewPopulation(world.PopulationConfig{N: n, Seed: seed, EVShare: 0.2})
	if err != nil {
		return nil, nil, err
	}
	day := units.Interval{
		Start: time.Date(1998, 1, 20, 0, 0, 0, 0, time.UTC),
		End:   time.Date(1998, 1, 21, 0, 0, 0, 0, time.UTC),
	}
	prof, err := world.GenerateProfile(pop, day, 15*time.Minute)
	if err != nil {
		return nil, nil, err
	}
	peak, _ := prof.Peak()
	t := &Table{
		Name:    "E1 (Figure 1): demand curve with peak",
		Columns: []string{"households", "mean_kw", "peak_kw", "peak_time", "peak_to_mean", "local_peaks"},
		Notes:   "demand above mean×(1/peak_to_mean) is served by expensive peak production",
	}
	t.AddRowF(n, prof.Mean().KWs(), peak.Power.KWs(),
		peak.Interval.Start.Format("15:04"), prof.PeakToMean(), len(prof.LocalPeaks(1.05)))
	return prof, t, nil
}

// runPaper runs the canonical scenario once.
func runPaper() (*core.Result, core.Scenario, error) {
	s, err := core.PaperScenario()
	if err != nil {
		return nil, core.Scenario{}, err
	}
	res, err := core.Run(s)
	if err != nil {
		return nil, core.Scenario{}, err
	}
	return res, s, nil
}

// E2InitialPhase regenerates Figure 6: the Utility Agent's view in round 1
// — normal capacity, predicted usage, overuse and the initial reward table.
func E2InitialPhase() (*Table, error) {
	res, s, err := runPaper()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name:    "E2 (Figure 6): UA initial phase, round 1",
		Columns: []string{"cut_down", "reward"},
		Notes: fmt.Sprintf("normal capacity %.0f, predicted usage %.0f, predicted overuse %.0f",
			s.NormalUse.KWhs(), s.NormalUse.KWhs()+res.InitialOveruseKWh, res.InitialOveruseKWh),
	}
	for _, e := range res.History[0].Table.Entries {
		t.AddRowF(e.CutDown, e.Reward)
	}
	return t, nil
}

// E3FinalPhase regenerates Figure 7: the Utility Agent's view in the final
// round — the grown reward table and the reduced overuse.
func E3FinalPhase() (*Table, error) {
	res, _, err := runPaper()
	if err != nil {
		return nil, err
	}
	last := res.History[len(res.History)-1]
	t := &Table{
		Name:    fmt.Sprintf("E3 (Figure 7): UA final phase, round %d", last.Round),
		Columns: []string{"cut_down", "reward"},
		Notes: fmt.Sprintf("predicted overuse reduced %.1f → %.2f kWh; outcome: %s",
			res.InitialOveruseKWh, res.FinalOveruseKWh, res.Outcome),
	}
	for _, e := range last.Table.Entries {
		t.AddRowF(e.CutDown, e.Reward)
	}
	return t, nil
}

// E4CustomerDecision regenerates Figures 8-9: the canonical customer's
// requirement table and its bid in every round.
func E4CustomerDecision() (*Table, error) {
	res, s, err := runPaper()
	if err != nil {
		return nil, err
	}
	const who = "c01"
	var customer core.CustomerSpec
	for _, c := range s.Customers {
		if c.Name == who {
			customer = c
		}
	}
	prefs := customer.Prefs
	t := &Table{
		Name:    "E4 (Figures 8-9): customer c01 decisions per round",
		Columns: []string{"round", "offered_at_0.3", "offered_at_0.4", "required_0.3", "required_0.4", "bid"},
	}
	bids := core.BidsOf(res.History, who)
	for i, rec := range res.History {
		o3, _ := rec.Table.RewardFor(0.3)
		o4, _ := rec.Table.RewardFor(0.4)
		t.AddRowF(rec.Round, o3, o4, prefs.RequiredFor(0.3), prefs.RequiredFor(0.4), bids[i])
	}
	return t, nil
}

// E5MethodComparison runs all three announcement methods on one synthetic
// population and compares them on the Section 3.2.4 axes: speed (rounds,
// messages), effectiveness (final overuse) and cost (reward paid).
func E5MethodComparison(n int, seed int64) (*Table, error) {
	t := &Table{
		Name:    fmt.Sprintf("E5 (Section 3.2.4): method comparison, %d customers", n),
		Columns: []string{"method", "rounds", "messages", "final_overuse_ratio", "reward_paid", "outcome"},
		Notes:   "same population and 0.35 initial overuse for every method",
	}
	methods := []utilityagent.Method{
		utilityagent.MethodOffer,
		utilityagent.MethodRequestForBids,
		utilityagent.MethodRewardTable,
	}
	for _, m := range methods {
		s, err := core.PopulationScenario(core.PopulationConfig{
			N: n, Seed: seed, Margin: 0.2, Method: m,
		})
		if err != nil {
			return nil, err
		}
		s.RFB = protocol.RFBParams{
			LowPrice: 0.5, NormalPrice: 1, HighPrice: 4,
			AllowedOveruseRatio: s.Params.AllowedOveruseRatio,
		}
		res, err := core.Run(s)
		if err != nil {
			return nil, err
		}
		t.AddRowF(m.String(), res.Rounds, res.Bus.Sent, res.FinalOveruseRatio, res.TotalReward, res.Outcome)
	}
	return t, nil
}

// E6BetaSweep studies the negotiation-speed parameter (Section 7: "the
// factor beta which determines the speed of negotiation has a constant
// value"), plus the adaptive-beta extension the paper proposes.
func E6BetaSweep(betas []float64) (*Table, error) {
	t := &Table{
		Name:    "E6 (Section 7): effect of beta on the paper scenario",
		Columns: []string{"beta", "adaptive", "rounds", "final_overuse", "reward_paid", "outcome"},
	}
	run := func(beta float64, adaptive bool) error {
		s, err := core.PaperScenario()
		if err != nil {
			return err
		}
		s.Params.Beta = beta
		s.Params.AdaptiveBeta = adaptive
		res, err := core.Run(s)
		if err != nil {
			return err
		}
		t.AddRowF(beta, fmt.Sprintf("%v", adaptive), res.Rounds, res.FinalOveruseKWh, res.TotalReward, res.Outcome)
		return nil
	}
	for _, b := range betas {
		if err := run(b, false); err != nil {
			return nil, err
		}
	}
	for _, b := range betas {
		if err := run(b, true); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// E7Scalability measures wall time and traffic against fleet size.
func E7Scalability(sizes []int, seed int64) (*Table, error) {
	t := &Table{
		Name:    "E7: scalability in the number of Customer Agents",
		Columns: []string{"customers", "rounds", "messages", "elapsed_ms", "final_overuse_ratio"},
	}
	for _, n := range sizes {
		s, err := core.PopulationScenario(core.PopulationConfig{
			N: n, Seed: seed, Margin: 0.2, Method: utilityagent.MethodRewardTable,
		})
		if err != nil {
			return nil, err
		}
		s.Timeout = 120 * time.Second
		res, err := core.Run(s)
		if err != nil {
			return nil, err
		}
		t.AddRowF(n, res.Rounds, res.Bus.Sent, float64(res.Elapsed.Milliseconds()), res.FinalOveruseRatio)
	}
	return t, nil
}

// E8ProtocolProperties runs randomized scenarios and mechanically verifies
// every monotonic-concession property on the produced traces.
func E8ProtocolProperties(runs int, seed int64) (*Table, error) {
	t := &Table{
		Name:    "E8 (Section 3.1): protocol property verification",
		Columns: []string{"run", "customers", "beta", "rounds", "properties_checked", "violations"},
	}
	for i := 0; i < runs; i++ {
		n := 5 + (i*7+int(seed))%20
		beta := 0.8 + 0.4*float64(i%5)
		s, err := core.PopulationScenario(core.PopulationConfig{
			N: n, Seed: seed + int64(i), Margin: 0.2, Method: utilityagent.MethodRewardTable,
		})
		if err != nil {
			return nil, err
		}
		s.Params.Beta = beta
		res, err := core.Run(s)
		if err != nil {
			return nil, err
		}
		rep := verify.CheckRewardTableTrace(res.History, s.Params)
		t.AddRowF(i, n, beta, res.Rounds, len(rep.Checked), len(rep.Violations))
		if !rep.OK() {
			return t, rep.Error()
		}
	}
	return t, nil
}

// E9FailureInjection sweeps message-loss rates and silent-customer counts
// and confirms the negotiation still terminates (ref [6], sentinel-style
// fault handling).
func E9FailureInjection(dropRates []float64, silentCounts []int) (*Table, error) {
	t := &Table{
		Name:    "E9: negotiation liveness under faults",
		Columns: []string{"drop_rate", "silent_customers", "rounds", "dropped_msgs", "final_overuse", "outcome"},
		Notes:   "paper fleet; round timeout 25ms substitutes for quorum",
	}
	for _, dr := range dropRates {
		for _, silent := range silentCounts {
			s, err := core.PaperScenario()
			if err != nil {
				return nil, err
			}
			for i := 0; i < silent && i < len(s.Customers); i++ {
				s.Customers[i].Silent = true
			}
			s.DropRate = dr
			s.Seed = int64(100*dr) + int64(silent)
			s.RoundTimeout = 25 * time.Millisecond
			s.Timeout = 60 * time.Second
			res, err := core.Run(s)
			if err != nil {
				return nil, err
			}
			t.AddRowF(dr, silent, res.Rounds, res.Bus.Dropped, res.FinalOveruseKWh, res.Outcome)
		}
	}
	return t, nil
}

// E10RewardTableSeries emits the full per-round reward table series of the
// paper scenario — the complete data behind the Figure 6/7 panels.
func E10RewardTableSeries() (*Table, error) {
	res, _, err := runPaper()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Name:    "E10 (Figures 6-7): reward table per round",
		Columns: []string{"round", "cut_down", "reward", "overuse_after_round"},
	}
	for _, rec := range res.History {
		for _, e := range rec.Table.Entries {
			t.AddRowF(rec.Round, e.CutDown, e.Reward, rec.OveruseKWh)
		}
	}
	return t, nil
}
