package health

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"loadbalance/internal/trace"
	"loadbalance/internal/tsdb"
)

// The alert engine evaluates threshold rules over the role's gathered
// metrics (every published series, histogram percentiles included, by its
// full series name) once per tick. A rule fires
// only after its condition holds for `for=N` consecutive evaluations —
// sustain is counted in evaluations, not wall time, so drills running at
// fast ticks stay deterministic — and resolves the first evaluation the
// condition clears. Transitions emit structured events and, on firing,
// invoke the OnFire hook (the flight recorder).
//
// Beyond the point-in-time rules, an engine wired to a tsdb store also
// evaluates windowed rules (rate/increase/avg_over_time/max_over_time
// over a trailing window of history) and two-window SLO burn-rate rules
// over a histogram's _count/_bucket series.

// RuleConfig is one parsed alert rule. Metric carries the left-hand
// expression verbatim; for windowed and burn rules the parsed pieces
// live in Fn/Series/window fields.
type RuleConfig struct {
	Name      string  `json:"name"`
	Metric    string  `json:"metric"`
	Op        string  `json:"op"` // "<" or ">"
	Threshold float64 `json:"threshold"`
	For       int     `json:"for"` // consecutive breaching evals before firing (>=1)

	// Fn is "" for point-in-time rules, a tsdb derived form for windowed
	// rules, or "burn" for two-window SLO burn-rate rules.
	Fn            string  `json:"fn,omitempty"`
	Series        string  `json:"series,omitempty"`        // underlying series (burn: histogram family)
	WindowUs      int64   `json:"windowUs,omitempty"`      // evaluation window (burn: long window)
	ShortWindowUs int64   `json:"shortWindowUs,omitempty"` // burn: short window
	BurnLe        float64 `json:"burnLe,omitempty"`        // burn: SLO latency bound in seconds
	BurnSLO       float64 `json:"burnSlo,omitempty"`       // burn: SLO target fraction, e.g. 0.95
}

// ParseRule parses the rule grammar used by the -alerts flag:
//
//	name:metric<threshold[:for=N]                     point-in-time
//	name:rate(metric)[5s]>threshold[:for=N]           windowed (also
//	    increase/avg_over_time/max_over_time)
//	name:burn(family,le=0.01,slo=0.95)[1m,10s]>2      two-window SLO burn
//
// e.g. "overload:feedback_score<40:for=2" or
// "slow_sessions:negotiation_session_seconds_p99>1.5". A burn rule reads
// the family's _count and _bucket history: its value is the error-budget
// burn rate min'd across the long and short windows, so it breaches only
// when both windows burn — the standard guard against a transient blip
// paging on a long window's memory.
func ParseRule(s string) (RuleConfig, error) {
	var rc RuleConfig
	name, rest, ok := strings.Cut(s, ":")
	if !ok || name == "" {
		return rc, fmt.Errorf("health: rule %q: want name:metric<threshold[:for=N]", s)
	}
	rc.Name = name
	cond := rest
	if body, forPart, ok := strings.Cut(rest, ":"); ok {
		cond = body
		k, v, ok := strings.Cut(forPart, "=")
		if !ok || k != "for" {
			return rc, fmt.Errorf("health: rule %q: trailing clause %q (want for=N)", s, forPart)
		}
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return rc, fmt.Errorf("health: rule %q: bad for=%q", s, v)
		}
		rc.For = n
	} else {
		rc.For = 1
	}
	opIdx := strings.IndexAny(cond, "<>")
	if opIdx <= 0 || opIdx == len(cond)-1 {
		return rc, fmt.Errorf("health: rule %q: want metric<threshold or metric>threshold", s)
	}
	rc.Metric = cond[:opIdx]
	rc.Op = string(cond[opIdx])
	// NaN compares false with everything and ±Inf with nearly everything: a
	// rule with such a threshold would be accepted and never fire.
	thr, err := strconv.ParseFloat(cond[opIdx+1:], 64)
	if err != nil || math.IsNaN(thr) || math.IsInf(thr, 0) {
		return rc, fmt.Errorf("health: rule %q: bad threshold %q", s, cond[opIdx+1:])
	}
	rc.Threshold = thr
	if err := parseRuleExpr(&rc); err != nil {
		return rc, fmt.Errorf("health: rule %q: %w", s, err)
	}
	return rc, nil
}

// parseRuleExpr classifies rc.Metric: plain metric name, windowed tsdb
// expression, or burn(...) form.
func parseRuleExpr(rc *RuleConfig) error {
	expr := rc.Metric
	if !strings.Contains(expr, "(") {
		return nil // point-in-time rule
	}
	if strings.HasPrefix(expr, "burn(") {
		return parseBurnExpr(rc, expr)
	}
	e, err := tsdb.ParseExpr(expr)
	if err != nil {
		return err
	}
	if e.WindowUs <= 0 {
		return fmt.Errorf("windowed rule %s needs a [window]", expr)
	}
	rc.Fn, rc.Series, rc.WindowUs = e.Fn, e.Series, e.WindowUs
	return nil
}

// parseBurnExpr parses burn(family,le=SECONDS,slo=FRACTION)[long,short].
func parseBurnExpr(rc *RuleConfig, expr string) error {
	close := strings.LastIndex(expr, ")")
	if close < 0 {
		return fmt.Errorf("burn rule %s: missing )", expr)
	}
	suffix := strings.TrimSpace(expr[close+1:])
	if !strings.HasPrefix(suffix, "[") || !strings.HasSuffix(suffix, "]") {
		return fmt.Errorf("burn rule %s: want [long,short] windows after )", expr)
	}
	long, short, ok := strings.Cut(suffix[1:len(suffix)-1], ",")
	if !ok {
		return fmt.Errorf("burn rule %s: want two windows [long,short]", expr)
	}
	dl, errL := time.ParseDuration(strings.TrimSpace(long))
	ds, errS := time.ParseDuration(strings.TrimSpace(short))
	rc.WindowUs, rc.ShortWindowUs = dl.Microseconds(), ds.Microseconds()
	if errL != nil || errS != nil || rc.ShortWindowUs <= 0 || rc.ShortWindowUs > rc.WindowUs {
		return fmt.Errorf("burn rule %s: bad windows [%s,%s] (want long >= short >= 1µs)", expr, long, short)
	}
	for i, arg := range strings.Split(expr[len("burn("):close], ",") {
		arg = strings.TrimSpace(arg)
		if i == 0 {
			rc.Series = arg
			continue
		}
		k, v, _ := strings.Cut(arg, "=")
		f, err := strconv.ParseFloat(v, 64)
		switch {
		case k == "le" && err == nil && f > 0:
			rc.BurnLe = f
		case k == "slo" && err == nil && f > 0 && f < 1:
			rc.BurnSLO = f
		default:
			return fmt.Errorf("burn rule %s: bad argument %q (want le=seconds, slo=fraction)", expr, arg)
		}
	}
	if rc.Series == "" || rc.BurnLe == 0 || rc.BurnSLO == 0 {
		return fmt.Errorf("burn rule %s: want burn(family,le=seconds,slo=fraction)", expr)
	}
	rc.Fn = "burn"
	return nil
}

// ParseRules parses a comma-separated rule list (the -alerts flag value).
// The split is bracket-aware so burn windows ([1m,10s]) and burn argument
// lists survive intact.
func ParseRules(s string) ([]RuleConfig, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []RuleConfig
	for _, part := range splitRules(s) {
		rc, err := ParseRule(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		// /alerts, the transition events and the bundle names tell rules
		// apart by name alone.
		for _, prev := range out {
			if prev.Name == rc.Name {
				return nil, fmt.Errorf("health: rule name %q is used twice", rc.Name)
			}
		}
		out = append(out, rc)
	}
	return out, nil
}

// splitRules splits on commas outside any ( ) or [ ] nesting.
func splitRules(s string) []string {
	var out []string
	depth, start := 0, 0
	for i, r := range s {
		switch r {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}

// Alert states.
const (
	StateOK      = "ok"
	StatePending = "pending" // breaching, sustain not yet met
	StateFiring  = "firing"
)

// AlertStatus is one rule's current state as served on /alerts.
type AlertStatus struct {
	Rule       RuleConfig `json:"rule"`
	State      string     `json:"state"`
	Value      float64    `json:"value"`   // metric value at last eval
	Breach     int        `json:"breach"`  // consecutive breaching evals
	FiredUs    int64      `json:"firedUs"` // last transition to firing (0 = never)
	ResolvedUs int64      `json:"resolvedUs"`
	FireCount  int        `json:"fireCount"`
}

// Engine evaluates alert rules. Eval is called from the owning loop (one
// goroutine); readers come from HTTP handlers, hence the lock.
type Engine struct {
	logger *Logger
	// OnFire runs on each ok/pending→firing transition (the flight
	// recorder hook). Called without the engine lock held.
	OnFire func(a AlertStatus)
	// Metrics is the registry point-in-time rules read, gathered once per
	// Eval. When nil those rules are no-data (never breaching).
	Metrics *trace.Registry
	// History backs windowed and burn rules. When nil those rules are
	// no-data (never breaching); point-in-time rules are unaffected.
	History *tsdb.Store
	// NowUs stamps transitions and anchors windowed evaluation. Nil means
	// wall clock; drills inject a fake clock for determinism.
	NowUs func() int64

	mu    sync.Mutex
	rules []*ruleState
}

type ruleState struct {
	cfg        RuleConfig
	state      string
	value      float64
	breach     int
	firedUs    int64
	resolvedUs int64
	fireCount  int
}

// NewEngine builds an engine over rules, logging transitions to logger
// (nil = process default).
func NewEngine(rules []RuleConfig, logger *Logger) *Engine {
	e := &Engine{logger: logger}
	for _, rc := range rules {
		if rc.For < 1 {
			rc.For = 1
		}
		e.rules = append(e.rules, &ruleState{cfg: rc, state: StateOK})
	}
	return e
}

func (e *Engine) log() *Logger {
	if e.logger != nil {
		return e.logger
	}
	return Default()
}

func (e *Engine) nowUs() int64 {
	if e.NowUs != nil {
		return e.NowUs()
	}
	return time.Now().UnixMicro()
}

// ruleValue evaluates one rule's left-hand side at nowUs against the
// gathered samples. ok=false means no data (missing metric, empty window,
// engine without history) and never breaches.
func (e *Engine) ruleValue(rc RuleConfig, samples []trace.Sample, nowUs int64) (float64, bool) {
	switch rc.Fn {
	case "":
		return trace.Value(samples, rc.Metric)
	case "burn":
		return e.burnValue(rc, nowUs)
	default:
		if e.History == nil {
			return 0, false
		}
		return e.History.Instant(tsdb.Expr{Fn: rc.Fn, Series: rc.Series, WindowUs: rc.WindowUs}, nowUs)
	}
}

// burnValue computes a burn rule's value: the SLO error-budget burn rate
// over the long and short windows, min'd so the rule breaches only when
// both windows burn. Burn rate 1.0 means errors arrive exactly at the
// budgeted rate (1-slo); thresholds are expressed in budget multiples.
func (e *Engine) burnValue(rc RuleConfig, nowUs int64) (float64, bool) {
	if e.History == nil {
		return 0, false
	}
	bucket := resolveBucket(e.History, rc.Series, rc.BurnLe)
	long, okL := burnOver(e.History, rc, bucket, rc.WindowUs, nowUs)
	short, okS := burnOver(e.History, rc, bucket, rc.ShortWindowUs, nowUs)
	if !okL || !okS {
		return 0, false
	}
	if short < long {
		return short, true
	}
	return long, true
}

// burnOver computes the burn rate for one window: the fraction of new
// observations slower than the SLO bound, divided by the error budget.
func burnOver(st *tsdb.Store, rc RuleConfig, bucket string, windowUs, nowUs int64) (float64, bool) {
	total, ok := st.Instant(tsdb.Expr{Fn: "increase", Series: rc.Series + "_count", WindowUs: windowUs}, nowUs)
	if !ok {
		return 0, false
	}
	if total <= 0 {
		return 0, true // no traffic, no burn
	}
	good := 0.0
	if bucket != "" {
		// A short bucket history (series appeared mid-window) reads as
		// zero good observations; the for=N sustain absorbs the transient.
		good, _ = st.Instant(tsdb.Expr{Fn: "increase", Series: bucket, WindowUs: windowUs}, nowUs)
	}
	errFrac := (total - good) / total
	if errFrac < 0 {
		errFrac = 0
	}
	if errFrac > 1 {
		errFrac = 1
	}
	return errFrac / (1 - rc.BurnSLO), true
}

// resolveBucket maps the SLO bound onto the family's rendered bucket
// grid: the largest stored _bucket bound <= le. Because the exposition
// renders only occupied buckets and values are cumulative, that bound's
// series carries exactly the count of observations <= le (any bucket
// between it and le is empty, or it would be rendered). Returns "" when
// no bucket at or below le has ever been occupied — every observation
// was slower, so the good count is zero.
func resolveBucket(st *tsdb.Store, family string, le float64) string {
	prefix := family + `_bucket{le="`
	best, bestBound := "", 0.0
	for _, name := range st.SeriesNames() {
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, `"}`) {
			continue
		}
		bound, err := strconv.ParseFloat(name[len(prefix):len(name)-2], 64)
		if err != nil || bound > le {
			continue
		}
		if best == "" || bound > bestBound {
			best, bestBound = name, bound
		}
	}
	return best
}

// Eval evaluates every rule against the live metric namespace (and, for
// windowed/burn rules, the history store). Returns the statuses after
// this evaluation (also readable via Status).
func (e *Engine) Eval() []AlertStatus {
	var fired []AlertStatus
	var resolved []AlertStatus
	now := e.nowUs()
	// Gathered before taking the lock: the engine's own Samples collector
	// reads Status under it.
	var samples []trace.Sample
	if e.Metrics != nil {
		samples = e.Metrics.Gather()
	}

	e.mu.Lock()
	for _, r := range e.rules {
		v, ok := e.ruleValue(r.cfg, samples, now)
		r.value = v
		breaching := false
		if ok {
			if r.cfg.Op == "<" {
				breaching = v < r.cfg.Threshold
			} else {
				breaching = v > r.cfg.Threshold
			}
		}
		if breaching {
			r.breach++
			if r.state != StateFiring {
				if r.breach >= r.cfg.For {
					r.state = StateFiring
					r.firedUs = now
					r.fireCount++
					fired = append(fired, statusOf(r))
				} else {
					r.state = StatePending
				}
			}
		} else {
			if r.state == StateFiring {
				r.resolvedUs = now
				resolved = append(resolved, statusOf(r))
			}
			r.breach = 0
			r.state = StateOK
		}
	}
	out := make([]AlertStatus, len(e.rules))
	for i, r := range e.rules {
		out[i] = statusOf(r)
	}
	e.mu.Unlock()

	for _, a := range fired {
		e.log().Log(Warn, "alerts", "alert firing",
			Str("alert", a.Rule.Name),
			Str("metric", a.Rule.Metric),
			Str("op", a.Rule.Op),
			Str("threshold", strconv.FormatFloat(a.Rule.Threshold, 'g', -1, 64)),
			Str("value", strconv.FormatFloat(a.Value, 'g', -1, 64)),
			Int("for", int64(a.Rule.For)))
		if e.OnFire != nil {
			e.OnFire(a)
		}
	}
	for _, a := range resolved {
		e.log().Log(Info, "alerts", "alert resolved",
			Str("alert", a.Rule.Name),
			Str("metric", a.Rule.Metric),
			Str("value", strconv.FormatFloat(a.Value, 'g', -1, 64)))
	}
	return out
}

func statusOf(r *ruleState) AlertStatus {
	return AlertStatus{
		Rule:       r.cfg,
		State:      r.state,
		Value:      r.value,
		Breach:     r.breach,
		FiredUs:    r.firedUs,
		ResolvedUs: r.resolvedUs,
		FireCount:  r.fireCount,
	}
}

// Status returns every rule's current state, sorted by rule name.
func (e *Engine) Status() []AlertStatus {
	e.mu.Lock()
	out := make([]AlertStatus, len(e.rules))
	for i, r := range e.rules {
		out[i] = statusOf(r)
	}
	e.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Rule.Name < out[j].Rule.Name })
	return out
}

// FiringCount returns how many rules are currently firing.
func (e *Engine) FiringCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, r := range e.rules {
		if r.state == StateFiring {
			n++
		}
	}
	return n
}

// AlertsHandler serves /alerts as JSON.
func AlertsHandler(e *Engine) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		writeAlertsJSON(w, e.Status())
	}
}

// writeAlertsJSON renders alert statuses without encoding/json (shared
// with the flight recorder, which runs in failure paths and should not
// depend on reflection succeeding).
func writeAlertsJSON(w io.Writer, alerts []AlertStatus) {
	b := make([]byte, 0, 256+192*len(alerts))
	b = append(b, `{"alerts":[`...)
	for i := range alerts {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendAlertJSON(b, &alerts[i])
	}
	b = append(b, "]}\n"...)
	_, _ = w.Write(b)
}

func appendAlertJSON(b []byte, a *AlertStatus) []byte {
	b = append(b, `{"name":`...)
	b = trace.AppendJSONString(b, a.Rule.Name)
	b = append(b, `,"metric":`...)
	b = trace.AppendJSONString(b, a.Rule.Metric)
	b = append(b, `,"op":`...)
	b = trace.AppendJSONString(b, a.Rule.Op)
	b = append(b, `,"threshold":`...)
	b = strconv.AppendFloat(b, a.Rule.Threshold, 'g', -1, 64)
	b = append(b, `,"for":`...)
	b = strconv.AppendInt(b, int64(a.Rule.For), 10)
	b = append(b, `,"state":`...)
	b = trace.AppendJSONString(b, a.State)
	b = append(b, `,"value":`...)
	b = strconv.AppendFloat(b, a.Value, 'g', -1, 64)
	b = append(b, `,"breach":`...)
	b = strconv.AppendInt(b, int64(a.Breach), 10)
	b = append(b, `,"firedUs":`...)
	b = strconv.AppendInt(b, a.FiredUs, 10)
	b = append(b, `,"resolvedUs":`...)
	b = strconv.AppendInt(b, a.ResolvedUs, 10)
	b = append(b, `,"fireCount":`...)
	b = strconv.AppendInt(b, int64(a.FireCount), 10)
	b = append(b, '}')
	return b
}

// Samples appends alert states as gauges (1 = firing) and fire counters.
func (e *Engine) Samples(dst []trace.Sample) []trace.Sample {
	alerts := e.Status()
	for _, a := range alerts {
		dst = append(dst, trace.Gauge("health_alert_firing", trace.Label("alert", a.Rule.Name), trace.Bool(a.State == StateFiring)))
	}
	for _, a := range alerts {
		dst = append(dst, trace.Counter("health_alert_fired_total", trace.Label("alert", a.Rule.Name), uint64(a.FireCount)))
	}
	return dst
}
