package tsdb

import (
	"strings"
	"testing"
)

// FuzzParseExpr holds the query grammar to two properties: an accepted
// expression renders to a string that parses back to itself, and its series
// never carries the grammar's brackets or a space (so a malformed function
// call cannot pass as an odd series name).
//
//	go test -run '^$' -fuzz FuzzParseExpr -fuzztime 10s -fuzzminimizetime 20x ./internal/tsdb
func FuzzParseExpr(f *testing.F) {
	for _, seed := range []string{
		// ParseExpr's doc comment and the README's queries
		"negotiation_session_seconds_count",
		"rate(negotiation_session_seconds_count[30s])",
		"rate(negotiation_session_seconds_count)[30s]",
		"avg_over_time(feedback_score[1m])",
		`feedback_score{proc="gridd-live-r1"}`,
		"rate(grid_tick[2s])",
		"max_over_time(g)",
		// what used to be accepted: a stray bracket or a space inside the
		// call, and a window that rounds to 0 µs
		"rate(a)b)", "rate(a b)", "rate(m[1ns])", "rate(m[1500ns])",
		"", "(", "rate()", "rate(m)[5s]x",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		e, err := ParseExpr(s)
		if err != nil {
			return
		}
		if strings.ContainsAny(e.Series, "()[] ") {
			t.Fatalf("ParseExpr(%q) accepted series %q", s, e.Series)
		}
		if e.Fn != "" && e.WindowUs < 0 || e.Fn == "" && e.WindowUs != 0 {
			t.Fatalf("ParseExpr(%q) = %+v: window outside the grammar", s, e)
		}
		back, err := ParseExpr(e.String())
		if err != nil {
			t.Fatalf("ParseExpr(%q) = %+v renders %q, which fails: %v", s, e, e.String(), err)
		}
		if back != e {
			t.Fatalf("ParseExpr(%q) = %+v renders %q, which parses to %+v", s, e, e.String(), back)
		}
	})
}
