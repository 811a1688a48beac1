package health

import (
	"testing"
	"time"

	"loadbalance/internal/trace"
	"loadbalance/internal/tsdb"
)

func TestParseWindowedRule(t *testing.T) {
	rc, err := ParseRule("busy:rate(negotiation_session_seconds_count)[5s]>100:for=2")
	if err != nil {
		t.Fatalf("ParseRule: %v", err)
	}
	if rc.Fn != "rate" || rc.Series != "negotiation_session_seconds_count" ||
		rc.WindowUs != 5_000_000 || rc.Threshold != 100 || rc.For != 2 {
		t.Fatalf("parsed rule = %+v", rc)
	}
	// The window also parses inside the parens, and the other derived
	// forms are accepted.
	for _, s := range []string{
		"busy:rate(x_count[5s])>1",
		"avg:avg_over_time(feedback_score[1m])<40",
		"peak:max_over_time(replica_lag_records[30s])>1000:for=3",
		"inc:increase(journal_records_total[10s])>500",
	} {
		if _, err := ParseRule(s); err != nil {
			t.Errorf("ParseRule(%q): %v", s, err)
		}
	}
	for _, bad := range []string{
		"w:rate(x_count)>1",         // windowed form without a window
		"w:rate(x_count[0s])>1",     // zero window
		"w:quantile(x_count[5s])>1", // unknown function
		"w:rate(x_count[5s])[5s]>1", // duplicate window
	} {
		if _, err := ParseRule(bad); err == nil {
			t.Errorf("ParseRule(%q) accepted", bad)
		}
	}
}

func TestParseBurnRule(t *testing.T) {
	rc, err := ParseRule("slo:burn(negotiation_session_seconds,le=0.01,slo=0.95)[1m,10s]>2:for=2")
	if err != nil {
		t.Fatalf("ParseRule: %v", err)
	}
	if rc.Fn != "burn" || rc.Series != "negotiation_session_seconds" ||
		rc.BurnLe != 0.01 || rc.BurnSLO != 0.95 ||
		rc.WindowUs != 60_000_000 || rc.ShortWindowUs != 10_000_000 ||
		rc.Threshold != 2 || rc.For != 2 {
		t.Fatalf("parsed burn rule = %+v", rc)
	}
	for _, bad := range []string{
		"b:burn(f,le=0.01,slo=0.95)>2",         // missing windows
		"b:burn(f,le=0.01,slo=0.95)[10s]>2",    // one window
		"b:burn(f,le=0.01,slo=0.95)[10s,1m]>2", // short > long
		"b:burn(f,le=0.01,slo=1.5)[1m,10s]>2",  // slo not a fraction
		"b:burn(f,le=-1,slo=0.95)[1m,10s]>2",   // non-positive le
		"b:burn(f,slo=0.95)[1m,10s]>2",         // le missing
		"b:burn(,le=0.01,slo=0.95)[1m,10s]>2",  // empty family
		"b:burn(f,le=0.01,budget=2)[1m,10s]>2", // unknown argument
	} {
		if _, err := ParseRule(bad); err == nil {
			t.Errorf("ParseRule(%q) accepted", bad)
		}
	}
}

func TestParseRulesBracketAwareSplit(t *testing.T) {
	// The burn argument list and window pair both contain commas; the rule
	// list split must not cut through them.
	rules, err := ParseRules(
		"slo:burn(x_seconds,le=0.01,slo=0.95)[1m,10s]>2:for=2," +
			"busy:rate(x_count[5s])>100," +
			"overload:feedback_score<40")
	if err != nil {
		t.Fatalf("ParseRules: %v", err)
	}
	if len(rules) != 3 || rules[0].Fn != "burn" || rules[1].Fn != "rate" || rules[2].Fn != "" {
		t.Fatalf("rules = %+v", rules)
	}
}

func TestWindowedRuleWithoutHistoryNeverFires(t *testing.T) {
	rules, err := ParseRules("busy:rate(x_count[1s])>0")
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(rules, newTestLogger(t, Config{MinLevel: Info}))
	for i := 0; i < 5; i++ {
		if st := e.Eval()[0]; st.State != StateOK {
			t.Fatalf("history-less windowed rule state = %s", st.State)
		}
	}
}

// TestBurnRateDrill drives a demand spike through a histogram scraped
// into the history store and proves the two-window SLO burn rule fires on
// the sustained spike but ignores a transient blip — while the equivalent
// instantaneous rule (lifetime p95 over the same SLO bound) stays quiet
// throughout, because the lifetime distribution dilutes the spike. The
// whole drill runs on a fake clock: the histogram is observed, scraped and
// evaluated at injected timestamps, so it is deterministic and race-clean.
func TestBurnRateDrill(t *testing.T) {
	const (
		family  = "drill_session_seconds"
		tickUs  = 250_000 // scrape/eval cadence: 4 per simulated second
		fastObs = time.Millisecond
		slowObs = 20 * time.Millisecond
	)
	reg := trace.NewRegistry() // what the scraper samples and the inst rule reads
	hist := reg.Histogram(family)
	st := tsdb.New(tsdb.Config{})
	sc := tsdb.NewScraper(tsdb.ScrapeConfig{Store: st, Registry: reg})

	rules, err := ParseRules(
		"slo_burn:burn(" + family + ",le=0.01,slo=0.95)[4s,1s]>2:for=2," +
			"inst:" + family + "_p95>0.01:for=2")
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(rules, newTestLogger(t, Config{MinLevel: Info}))
	eng.Metrics, eng.History = reg, st
	var nowUs int64
	eng.NowUs = func() int64 { return nowUs }

	statusByName := func(name string) AlertStatus {
		for _, a := range eng.Status() {
			if a.Rule.Name == name {
				return a
			}
		}
		t.Fatalf("rule %s missing", name)
		return AlertStatus{}
	}

	const (
		phaseATicks = 64 // 16s of healthy traffic
		blipTick    = 16 // one transient burst of slow sessions mid-phase
		phaseBTicks = 8  // 2s sustained spike
	)
	tick := func(fast, slow int) {
		for i := 0; i < fast; i++ {
			hist.Observe(fastObs)
		}
		for i := 0; i < slow; i++ {
			hist.Observe(slowObs)
		}
		nowUs += tickUs
		sc.ScrapeAt(nowUs)
		eng.Eval()
	}

	// Phase A: healthy traffic with one transient blip. Neither rule may
	// fire: the blip is far below both windows' burn threshold, and the
	// for=2 sustain absorbs any single-eval wobble.
	for k := 0; k < phaseATicks; k++ {
		slow := 0
		if k == blipTick {
			slow = 5
		}
		tick(100, slow)
		if a := statusByName("slo_burn"); a.State == StateFiring {
			t.Fatalf("burn rule fired on transient blip at tick %d (value %g)", k, a.Value)
		}
		if a := statusByName("inst"); a.State == StateFiring {
			t.Fatalf("instantaneous rule fired in phase A at tick %d (value %g)", k, a.Value)
		}
	}

	// Phase B: a sustained spike — 30% of sessions breach the SLO bound,
	// 6x the 5% error budget. Both burn windows see it; the burn rule must
	// fire. The lifetime slow fraction stays under 5%, so the lifetime p95
	// still sits in the fast bucket and the instantaneous rule stays ok —
	// the exact blind spot burn-rate alerting exists to cover.
	for k := 0; k < phaseBTicks; k++ {
		tick(70, 30)
		if a := statusByName("inst"); a.State == StateFiring {
			t.Fatalf("instantaneous rule fired during spike at tick %d (value %g)", k, a.Value)
		}
	}
	if a := statusByName("slo_burn"); a.FireCount < 1 {
		t.Fatalf("burn rule never fired on sustained spike: %+v", a)
	}
	if a := statusByName("inst"); a.FireCount != 0 {
		t.Fatalf("instantaneous rule fired %d times; lifetime p95 = %g", a.FireCount, a.Value)
	}

	// The spike ending resolves the burn alert once both windows drain.
	for k := 0; k < 24; k++ {
		tick(100, 0)
	}
	if a := statusByName("slo_burn"); a.State != StateOK {
		t.Fatalf("burn rule did not resolve after spike: %+v", a)
	}
}
