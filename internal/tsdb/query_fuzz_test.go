package tsdb

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"
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

// serveWithin runs one /query request through h on a goroutine of its own and
// returns its status and body, or an error if the handler panicked or was
// still running after the deadline.
func serveWithin(h func(w *httptest.ResponseRecorder, query string), query string, deadline time.Duration) (int, []byte, error) {
	type result struct {
		code int
		body []byte
		err  error
	}
	done := make(chan result, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- result{err: fmt.Errorf("panic: %v", r)}
			}
		}()
		rec := httptest.NewRecorder()
		h(rec, query)
		done <- result{code: rec.Code, body: rec.Body.Bytes()}
	}()
	select {
	case r := <-done:
		return r.code, r.body, r.err
	case <-time.After(deadline):
		return 0, nil, fmt.Errorf("still running after %v", deadline)
	}
}

// rangeHandler serves /query over a store holding a counter sampled each
// second for a minute, at a fixed now.
func rangeHandler() func(w *httptest.ResponseRecorder, query string) {
	st := New(Config{})
	for i := 0; i < 60; i++ {
		st.Append("x", int64(i+1)*secUs, float64(i))
	}
	h := Handler(st, func() int64 { return 60 * secUs })
	return func(w *httptest.ResponseRecorder, query string) {
		h(w, httptest.NewRequest("GET", "/query?"+query, nil))
	}
}

// FuzzRangeParams feeds arbitrary from, to and step strings through the
// query handler: whatever they are, it answers — a 400, or a document of at
// most maxQueryPoints points — and neither panics nor runs on.
//
//	go test -run '^$' -fuzz FuzzRangeParams -fuzztime 10s -fuzzminimizetime 20x ./internal/tsdb
func FuzzRangeParams(f *testing.F) {
	for _, seed := range [][3]string{
		{"-30s", "0s", "5s"},
		{"", "", ""},
		{"-3000s", "", "1ms"},
		{"", "", "500ns"},
		{"9223372036854775800", "9223372036854775807", ""},
		{"-9000000000000000000", "9000000000000000000", ""},
		{"-9223372036854775808", "9223372036854775807", "1us"},
		{"-2562047h47m16.854775808s", "2562047h47m16.854775807s", "2562047h"},
		{"0", "0", "1us"},
		{"1", "0", "1s"},
	} {
		for expr := uint8(0); expr < 3; expr++ {
			f.Add(expr, seed[0], seed[1], seed[2])
		}
	}
	h := rangeHandler()
	f.Fuzz(func(t *testing.T, expr uint8, from, to, step string) {
		series := [...]string{"x", "rate(x)", "rate(x[5s])"}[int(expr)%3]
		query := url.Values{"series": {series}, "from": {from}, "to": {to}, "step": {step}}.Encode()
		code, body, err := serveWithin(h, query, 5*time.Second)
		if err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		if code == 400 {
			return
		}
		var doc queryDoc
		if code != 200 || json.Unmarshal(body, &doc) != nil || len(doc.Points) > maxQueryPoints {
			t.Fatalf("%s: status %d, %d points, body %.200s", query, code, len(doc.Points), body)
		}
	})
}
