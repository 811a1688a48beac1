package tsdb

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// Expr is one parsed query expression: a bare series name, or a derived
// form fn(series[window]). The window may equally be written after the
// closing paren — rate(m)[5s] and rate(m[5s]) parse identically, so the
// alert grammar and the HTTP grammar share one parser.
type Expr struct {
	Fn       string // "", "rate", "increase", "avg_over_time", "max_over_time"
	Series   string
	WindowUs int64 // 0 = derive from the query step
}

// queryFns are the derived forms ParseExpr accepts.
var queryFns = map[string]bool{
	"rate": true, "increase": true, "avg_over_time": true, "max_over_time": true,
}

// ParseExpr parses a query expression:
//
//	negotiation_session_seconds_count
//	rate(negotiation_session_seconds_count[30s])
//	rate(negotiation_session_seconds_count)[30s]
//	avg_over_time(feedback_score[1m])
func ParseExpr(s string) (Expr, error) {
	var e Expr
	s = strings.TrimSpace(s)
	if s == "" {
		return e, fmt.Errorf("tsdb: empty expression")
	}
	open := strings.Index(s, "(")
	if open < 0 {
		if strings.ContainsAny(s, seriesForbidden) {
			return e, fmt.Errorf("tsdb: expression %q: stray bracket", s)
		}
		e.Series = s
		return e, nil
	}
	fn := s[:open]
	if !queryFns[fn] {
		return e, fmt.Errorf("tsdb: expression %q: unknown function %q", s, fn)
	}
	close := strings.LastIndex(s, ")")
	if close < open {
		return e, fmt.Errorf("tsdb: expression %q: missing )", s)
	}
	e.Fn = fn
	inner, suffix := s[open+1:close], strings.TrimSpace(s[close+1:])
	var err error
	if inner, e.WindowUs, err = cutWindow(inner); err != nil {
		return e, fmt.Errorf("tsdb: expression %q: %w", s, err)
	}
	if suffix != "" {
		if e.WindowUs != 0 {
			return e, fmt.Errorf("tsdb: expression %q: duplicate window", s)
		}
		var rest string
		if rest, e.WindowUs, err = cutWindow(suffix); err != nil || rest != "" || e.WindowUs == 0 {
			return e, fmt.Errorf("tsdb: expression %q: bad trailing %q", s, suffix)
		}
	}
	e.Series = strings.TrimSpace(inner)
	if e.Series == "" {
		return e, fmt.Errorf("tsdb: expression %q: empty series", s)
	}
	if strings.ContainsAny(e.Series, seriesForbidden) {
		return e, fmt.Errorf("tsdb: expression %q: stray bracket in series %q", s, e.Series)
	}
	return e, nil
}

// seriesForbidden are the bytes a series name may not contain, inside a
// function or out: the grammar's own brackets and the space.
const seriesForbidden = "()[] "

// cutWindow splits a trailing [duration] off s, returning the remainder
// and the window in microseconds (0 when absent).
func cutWindow(s string) (string, int64, error) {
	s = strings.TrimSpace(s)
	if !strings.HasSuffix(s, "]") {
		return s, 0, nil
	}
	open := strings.LastIndex(s, "[")
	if open < 0 {
		return s, 0, fmt.Errorf("stray ] in %q", s)
	}
	// A window under a microsecond would round to 0, which means "no window":
	// an alert on it would never fire.
	d, err := time.ParseDuration(s[open+1 : len(s)-1])
	if err != nil || d < time.Microsecond {
		return s, 0, fmt.Errorf("bad window %q", s[open+1:len(s)-1])
	}
	return strings.TrimSpace(s[:open]), d.Microseconds(), nil
}

// String renders the expression canonically.
func (e Expr) String() string {
	if e.Fn == "" {
		return e.Series
	}
	if e.WindowUs > 0 {
		return fmt.Sprintf("%s(%s[%s])", e.Fn, e.Series, time.Duration(e.WindowUs)*time.Microsecond)
	}
	return fmt.Sprintf("%s(%s)", e.Fn, e.Series)
}

// Query evaluates e over [fromUs, toUs] at stepUs resolution.
//
// A bare series returns the stored points thinned to the last sample per
// step bucket. Derived forms evaluate a sliding window ending at each
// step boundary: rate and increase sum reset-aware deltas of the sampled
// cumulative values (a value drop is a counter restart and contributes
// the post-reset value, never a negative delta); avg_over_time and
// max_over_time aggregate the gauge surface, seeing through tier-2
// downsampling via the aggregates' sum/count/max fields.
func (st *Store) Query(e Expr, fromUs, toUs, stepUs int64) []Point {
	if toUs < fromUs {
		return nil
	}
	if stepUs <= 0 {
		stepUs = 1_000_000
	}
	if e.Fn == "" {
		return thin(st.window(e.Series, before(fromUs, 1), toUs), fromUs, stepUs)
	}
	w := e.WindowUs
	if w == 0 {
		w = stepUs
	}
	pts := st.window(e.Series, before(fromUs, w), toUs)
	var out []Point
	lo, hi := 0, 0
	for i, n := uint64(0), stepsAfter(fromUs, toUs, stepUs); ; i++ {
		t := int64(uint64(fromUs) + i*uint64(stepUs)) // at most toUs: no overflow
		for hi < len(pts) && pts[hi].tsUs <= t {
			hi++
		}
		for lo < hi && pts[lo].tsUs <= before(t, w) {
			lo++
		}
		if v, ok := evalWindow(e.Fn, pts[lo:hi], w); ok {
			out = append(out, Point{TsUs: t, Value: v})
		}
		if i == n {
			return out
		}
	}
}

// stepsAfter returns how many whole steps of stepUs > 0 fit between fromUs
// and toUs >= fromUs — the range holds one point more — for any two int64
// timestamps: the difference is taken in uint64, where it cannot overflow.
func stepsAfter(fromUs, toUs, stepUs int64) uint64 {
	return (uint64(toUs) - uint64(fromUs)) / uint64(stepUs)
}

// before returns t - d for d >= 0, or math.MinInt64 where that would wrap.
func before(t, d int64) int64 {
	if t < math.MinInt64+d {
		return math.MinInt64
	}
	return t - d
}

// Instant evaluates a derived expression's window ending at atUs,
// returning ok=false when the window holds too few points. This is the
// alert engine's entry point.
func (st *Store) Instant(e Expr, atUs int64) (float64, bool) {
	if e.Fn == "" {
		from := atUs - e.WindowUs
		if e.WindowUs == 0 {
			from = math.MinInt64 / 2 // no window: latest point at or before atUs
		}
		pts := st.window(e.Series, from, atUs)
		if len(pts) == 0 {
			return 0, false
		}
		return pts[len(pts)-1].last, true
	}
	if e.WindowUs <= 0 {
		return 0, false
	}
	return evalWindow(e.Fn, st.window(e.Series, atUs-e.WindowUs, atUs), e.WindowUs)
}

func evalWindow(fn string, pts []agg, windowUs int64) (float64, bool) {
	switch fn {
	case "rate", "increase":
		if len(pts) < 2 {
			return 0, false
		}
		inc := 0.0
		for i := 1; i < len(pts); i++ {
			d := pts[i].last - pts[i-1].last
			if d < 0 { // counter reset: the new value is the whole delta
				d = pts[i].last
			}
			inc += d
		}
		if fn == "rate" {
			return inc / (float64(windowUs) / 1e6), true
		}
		return inc, true
	case "avg_over_time":
		var sum float64
		var n int64
		for _, p := range pts {
			sum += p.sumV
			n += p.count
		}
		if n == 0 {
			return 0, false
		}
		return sum / float64(n), true
	case "max_over_time":
		if len(pts) == 0 {
			return 0, false
		}
		m := pts[0].max
		for _, p := range pts[1:] {
			if p.max > m {
				m = p.max
			}
		}
		return m, true
	}
	return 0, false
}

// thin keeps the last point per step bucket.
func thin(pts []agg, fromUs, stepUs int64) []Point {
	var out []Point
	for _, p := range pts {
		bucket := fromUs + int64(stepsAfter(fromUs, p.tsUs, stepUs)*uint64(stepUs))
		pt := Point{TsUs: bucket, Value: p.last}
		if n := len(out); n > 0 && out[n-1].TsUs == bucket {
			out[n-1] = pt
			continue
		}
		out = append(out, pt)
	}
	return out
}
