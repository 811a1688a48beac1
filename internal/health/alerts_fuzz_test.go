package health

import (
	"math"
	"testing"
)

// FuzzParseRules feeds the -alerts grammar untrusted text. ParseRules must
// never panic, and a rule set it accepts must be one the engine can run as
// written: names present and distinct (/alerts, the log events and the
// flight-recorder bundles tell rules apart by name alone), an operator the
// breach test knows, a threshold that compares (NaN never breaches, silently),
// and for windowed and burn rules the function, series and windows the
// history lookup takes.
func FuzzParseRules(f *testing.F) {
	for _, seed := range []string{
		// the grammar examples in ParseRule's doc comment
		"name:metric<1:for=2",
		"name:rate(metric)[5s]>1:for=2",
		"name:burn(family,le=0.01,slo=0.95)[1m,10s]>2",
		"overload:feedback_score<40:for=2",
		"slow_sessions:negotiation_session_seconds_p99>1.5",
		// README's -alerts examples
		"overload:feedback_score<40:for=2,slow:negotiation_session_seconds_p99>1.5",
		"busy:rate(negotiation_session_seconds_count)[30s]>100:for=2",
		"slo:burn(negotiation_session_seconds,le=0.05,slo=0.99)[1h,5m]>2:for=2",
		// the rule TestBurnRateDrill runs
		"slo:burn(negotiation_session_seconds,le=0.01,slo=0.95)[1m,10s]>2:for=2",
		// what the first runs of this target found accepted: thresholds that never
		// compare, one name twice, a burn window under the store's resolution
		"a:m<NaN", "a:m>Inf", "a:m<1,a:n>2", "b:burn(f,le=0.01,slo=0.95)[1m,1ns]>2",
		"a:avg_over_time(m[1m])<1", "", "none",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		rules, err := ParseRules(s)
		if err != nil {
			return
		}
		names := map[string]bool{}
		for _, rc := range rules {
			if rc.Name == "" || names[rc.Name] {
				t.Fatalf("%q: rule name %q is empty or repeated", s, rc.Name)
			}
			names[rc.Name] = true
			if rc.Op != "<" && rc.Op != ">" {
				t.Fatalf("%q: operator %q", s, rc.Op)
			}
			if math.IsNaN(rc.Threshold) || math.IsInf(rc.Threshold, 0) {
				t.Fatalf("%q: threshold %v", s, rc.Threshold)
			}
			if rc.Metric == "" || rc.For < 1 {
				t.Fatalf("%q: metric %q for=%d", s, rc.Metric, rc.For)
			}
			switch rc.Fn {
			case "":
			case "burn":
				if rc.Series == "" || rc.ShortWindowUs <= 0 || rc.WindowUs < rc.ShortWindowUs ||
					!(rc.BurnLe > 0) || !(rc.BurnSLO > 0 && rc.BurnSLO < 1) {
					t.Fatalf("%q: burn rule %+v", s, rc)
				}
			case "rate", "increase", "avg_over_time", "max_over_time":
				if rc.Series == "" || rc.WindowUs <= 0 {
					t.Fatalf("%q: windowed rule %+v", s, rc)
				}
			default:
				t.Fatalf("%q: function %q", s, rc.Fn)
			}
		}
		// No metrics, no history: every rule reads as no data, none panics.
		e := NewEngine(rules, newTestLogger(t, Config{MinLevel: Off}))
		for _, st := range e.Eval() {
			if st.State != StateOK {
				t.Fatalf("%q: rule %q is %s with nothing to read", s, st.Rule.Name, st.State)
			}
		}
	})
}
