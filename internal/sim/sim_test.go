package sim

import (
	"strconv"

	"loadbalance/internal/core"
	"loadbalance/internal/utilityagent"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tab := &Table{
		Name:    "demo",
		Columns: []string{"a", "b"},
		Notes:   "hello",
	}
	tab.AddRow("1", "2")
	tab.AddRow("333") // short row padded
	tab.AddRowF(4.5, 7)

	csv := tab.CSV()
	if !strings.HasPrefix(csv, "a,b\n1,2\n") {
		t.Fatalf("CSV = %q", csv)
	}
	s := tab.String()
	for _, want := range []string{"== demo ==", "a", "b", "333", "4.5", "note: hello"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String missing %q:\n%s", want, s)
		}
	}
}

func TestE1DemandCurve(t *testing.T) {
	prof, tab, err := E1DemandCurve(60, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.Samples) != 96 {
		t.Fatalf("samples = %d", len(prof.Samples))
	}
	if len(tab.Rows) != 1 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Shape assertions: a real peak-to-mean ratio and at least two peaks.
	ptm, err := strconv.ParseFloat(tab.Rows[0][4], 64)
	if err != nil || ptm < 1.2 {
		t.Fatalf("peak_to_mean = %v (%v)", tab.Rows[0][4], err)
	}
	peaks, err := strconv.Atoi(tab.Rows[0][5])
	if err != nil || peaks < 2 {
		t.Fatalf("local peaks = %v", tab.Rows[0][5])
	}
	if _, _, err := E1DemandCurve(0, 1); err == nil {
		t.Fatal("zero households should fail")
	}
}

func TestE2E3E10(t *testing.T) {
	e2, err := E2InitialPhase()
	if err != nil {
		t.Fatal(err)
	}
	if len(e2.Rows) != 10 {
		t.Fatalf("E2 rows = %d, want 10 cut-down levels", len(e2.Rows))
	}
	// Figure 6: reward 17 at 0.4 in round 1.
	if e2.Rows[4][0] != "0.4" || e2.Rows[4][1] != "17" {
		t.Fatalf("E2 row = %v", e2.Rows[4])
	}
	if !strings.Contains(e2.Notes, "overuse 35") {
		t.Fatalf("E2 notes = %q", e2.Notes)
	}

	e3, err := E3FinalPhase()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e3.Name, "round 3") {
		t.Fatalf("E3 name = %q", e3.Name)
	}
	r3, err := strconv.ParseFloat(e3.Rows[4][1], 64)
	if err != nil || r3 < 24.3 || r3 > 25.3 {
		t.Fatalf("E3 reward(0.4) = %v, want ≈24.8", e3.Rows[4][1])
	}

	e10, err := E10RewardTableSeries()
	if err != nil {
		t.Fatal(err)
	}
	if len(e10.Rows) != 30 { // 3 rounds × 10 levels
		t.Fatalf("E10 rows = %d, want 30", len(e10.Rows))
	}
}

func TestE4(t *testing.T) {
	e4, err := E4CustomerDecision()
	if err != nil {
		t.Fatal(err)
	}
	if len(e4.Rows) != 3 {
		t.Fatalf("E4 rows = %d, want 3 rounds", len(e4.Rows))
	}
	// Bids 0.2, 0.4, 0.4 (Figures 8-9).
	wantBids := []string{"0.2", "0.4", "0.4"}
	for i, want := range wantBids {
		if got := e4.Rows[i][5]; got != want {
			t.Fatalf("E4 round %d bid = %q, want %q", i+1, got, want)
		}
	}
}

func TestE5MethodComparisonShape(t *testing.T) {
	tab, err := E5MethodComparison(12, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 methods", len(tab.Rows))
	}
	num := func(i, col int) float64 {
		v, err := strconv.ParseFloat(tab.Rows[i][col], 64)
		if err != nil {
			t.Fatalf("parse row %d col %d: %v", i, col, err)
		}
		return v
	}
	// Shape (Section 3.2.4): the offer is a single round; the reward-table
	// method iterates, clears the peak to within the allowed overuse, and
	// costs the utility less than blanket discounting (the offer's
	// cost-per-kWh-saved is worse because every accepter gets the discount
	// on its whole within-cap usage, not just on the saved energy).
	if got := int(num(0, 1)); got != 1 {
		t.Fatalf("offer rounds = %d, want 1", got)
	}
	if got := int(num(2, 1)); got <= 1 {
		t.Fatalf("reward-table rounds = %d, want > 1", got)
	}
	if got := num(2, 3); got > 0.13+1e-9 {
		t.Fatalf("reward-table final ratio = %v, want ≤ allowed 0.13", got)
	}
	if offerCost, rtCost := num(0, 4), num(2, 4); rtCost >= offerCost {
		t.Fatalf("reward tables (%v) should cost less than blanket discounts (%v)", rtCost, offerCost)
	}
	// The iterated methods exchange more messages than the one-shot offer.
	if offerMsgs, rtMsgs := num(0, 2), num(2, 2); rtMsgs <= offerMsgs {
		t.Fatalf("reward-table messages (%v) should exceed offer messages (%v)", rtMsgs, offerMsgs)
	}
}

func TestE6BetaSweepShape(t *testing.T) {
	tab, err := E6BetaSweep([]float64{1.0, 3.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 { // 2 constant + 2 adaptive
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	rounds := func(i int) int {
		n, err := strconv.Atoi(tab.Rows[i][2])
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		return n
	}
	// Larger beta concedes faster: no more rounds than the smaller beta.
	if rounds(1) > rounds(0) {
		t.Fatalf("beta 3.0 rounds (%d) > beta 1.0 rounds (%d)", rounds(1), rounds(0))
	}
	// Adaptive beta at the slow setting beats or ties constant slow beta.
	if rounds(2) > rounds(0) {
		t.Fatalf("adaptive rounds (%d) > constant rounds (%d)", rounds(2), rounds(0))
	}
}

func TestE7ScalabilityShape(t *testing.T) {
	tab, err := E7Scalability([]int{5, 20}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	msgs := func(i int) int {
		n, err := strconv.Atoi(tab.Rows[i][2])
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		return n
	}
	if msgs(1) <= msgs(0) {
		t.Fatalf("messages should grow with fleet size: %d vs %d", msgs(0), msgs(1))
	}
}

func TestE8PropertiesHold(t *testing.T) {
	tab, err := E8ProtocolProperties(3, 11)
	if err != nil {
		t.Fatalf("property violation: %v", err)
	}
	for _, row := range tab.Rows {
		if row[5] != "0" {
			t.Fatalf("violations in row %v", row)
		}
	}
}

func TestE9FailureInjectionTerminates(t *testing.T) {
	tab, err := E9FailureInjection([]float64{0, 0.1}, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[5] == "" {
			t.Fatalf("missing outcome in %v", row)
		}
	}
}

func TestE11DayPeakShaving(t *testing.T) {
	tab, err := E11DayPeakShaving(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 12 {
		t.Fatalf("rows = %d, want 12 windows", len(tab.Rows))
	}
	negotiated := 0
	for _, row := range tab.Rows {
		if row[3] == "yes" {
			negotiated++
			before, err1 := strconv.ParseFloat(row[1], 64)
			after, err2 := strconv.ParseFloat(row[4], 64)
			if err1 != nil || err2 != nil {
				t.Fatalf("parse row %v: %v %v", row, err1, err2)
			}
			if after >= before {
				t.Fatalf("window %s not shaved: %v -> %v", row[0], before, after)
			}
		}
	}
	if negotiated == 0 {
		t.Fatal("no window triggered a negotiation; the day should have peaks")
	}
	if !strings.Contains(tab.Notes, "shaved") {
		t.Fatalf("notes = %q", tab.Notes)
	}
}

func TestE12MarketComparison(t *testing.T) {
	tab, err := E12MarketComparison(15, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 mechanisms", len(tab.Rows))
	}
	if tab.Rows[0][0] != "reward_table" || tab.Rows[1][0] != "market" {
		t.Fatalf("mechanisms = %v / %v", tab.Rows[0][0], tab.Rows[1][0])
	}
	// Both mechanisms must resolve the 35% overuse down to at most the
	// reward-table's allowed ratio (market clears to <= 0 by construction).
	rtRatio, err := strconv.ParseFloat(tab.Rows[0][3], 64)
	if err != nil {
		t.Fatal(err)
	}
	mkRatio, err := strconv.ParseFloat(tab.Rows[1][3], 64)
	if err != nil {
		t.Fatal(err)
	}
	if rtRatio > 0.13+1e-9 {
		t.Fatalf("reward-table ratio = %v", rtRatio)
	}
	if mkRatio > 1e-6 {
		t.Fatalf("market ratio = %v, want <= 0", mkRatio)
	}
	// The market clears in one pass with 2n messages; the protocol uses
	// more traffic.
	rtMsgs, _ := strconv.ParseFloat(tab.Rows[0][2], 64)
	mkMsgs, _ := strconv.ParseFloat(tab.Rows[1][2], 64)
	if mkMsgs >= rtMsgs {
		t.Fatalf("market messages (%v) should undercut protocol messages (%v)", mkMsgs, rtMsgs)
	}
}

func TestE13ForecastDrivenNegotiation(t *testing.T) {
	tab, err := E13ForecastDrivenNegotiation(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want oracle + forecast", len(tab.Rows))
	}
	if tab.Rows[0][0] != "oracle" || tab.Rows[1][0] != "forecast" {
		t.Fatalf("labels = %v / %v", tab.Rows[0][0], tab.Rows[1][0])
	}
	if !strings.Contains(tab.Notes, "MAPE") {
		t.Fatalf("notes = %q", tab.Notes)
	}
	// Both runs must terminate with a real outcome.
	for _, row := range tab.Rows {
		if row[4] == "" {
			t.Fatalf("missing outcome: %v", row)
		}
	}
	// The forecast cannot be exact: MAPE must be positive (weather noise).
	if strings.Contains(tab.Notes, "MAPE 0.0%") {
		t.Fatalf("suspiciously perfect forecast: %q", tab.Notes)
	}
}

func TestRenderResultOfferAndRFB(t *testing.T) {
	s, err := core.PaperScenario()
	if err != nil {
		t.Fatal(err)
	}
	s.Method = utilityagent.MethodOffer
	res, err := core.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderResult(res)
	if !strings.Contains(out, "offer:") || !strings.Contains(out, "discount cost") {
		t.Fatalf("offer render missing sections:\n%s", out)
	}

	s2, err := core.PaperScenario()
	if err != nil {
		t.Fatal(err)
	}
	s2.Method = utilityagent.MethodRequestForBids
	res2, err := core.Run(s2)
	if err != nil {
		t.Fatal(err)
	}
	out2 := RenderResult(res2)
	if !strings.Contains(out2, "bids") || !strings.Contains(out2, "round 1") {
		t.Fatalf("rfb render missing sections:\n%s", out2)
	}
}
