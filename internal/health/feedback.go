package health

import (
	"fmt"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"loadbalance/internal/trace"
)

// The composite feedback score condenses the process's operational state
// into one number in [0,100] — 100 = fully healthy, 0 = refuse traffic —
// in the shape HAProxy-style agent checks and lbfeedback responders
// consume. Each source is mapped through a monotone clamp-linear health
// function (1 at-or-below its good budget, 0 at-or-above its bad budget,
// linear between), and the score is the weighted mean × 100. Monotone
// per-component mappings make the whole score monotone in offered load,
// which the overload drill asserts.

// Sources supplies the raw inputs for one score computation. Zero-valued
// optional callbacks mean "not applicable" and drop that component's
// weight from the denominator, so a process without replication isn't
// penalised for lacking a standby.
type Sources struct {
	// SessionP95 returns the negotiation session p95 latency in seconds
	// (from the PR-6 histograms). Nil falls back to the default trace
	// registry's negotiation_session_seconds histogram.
	SessionP95 func() float64
	// Utilization returns offered/target fleet load; 1.0 = at target.
	Utilization func() float64
	// ReplicationLag returns the worst standby lag in records.
	ReplicationLag func() float64
}

// Budgets are the clamp-linear breakpoints: a component reads health 1 at
// Good, 0 at Bad, linear between. Good < Bad always (higher raw value =
// worse).
type Budgets struct {
	GCPauseGoodMs, GCPauseBadMs     float64
	GoroutinesGood, GoroutinesBad   float64
	HeapGoodMiB, HeapBadMiB         float64
	SessionP95GoodS, SessionP95BadS float64
	UtilizationGood, UtilizationBad float64
	ReplLagGoodRecs, ReplLagBadRecs float64
}

// DefaultBudgets sizes the breakpoints for the small grids the repo's
// drills run: utilization is the dominant overload signal, latency and
// runtime load back it up.
func DefaultBudgets() Budgets {
	return Budgets{
		GCPauseGoodMs: 1, GCPauseBadMs: 100,
		GoroutinesGood: 200, GoroutinesBad: 5000,
		HeapGoodMiB: 256, HeapBadMiB: 2048,
		SessionP95GoodS: 0.05, SessionP95BadS: 2,
		UtilizationGood: 1.0, UtilizationBad: 1.5,
		ReplLagGoodRecs: 16, ReplLagBadRecs: 4096,
	}
}

// Weights set each component's share of the score. Components whose
// source is absent are dropped and the rest renormalised.
type Weights struct {
	Runtime     float64 // GC pause + goroutines + heap (averaged)
	Latency     float64 // negotiation session p95
	Utilization float64 // offered vs target fleet load
	Replication float64 // worst standby lag
}

// DefaultWeights favour the signals that track offered load directly.
func DefaultWeights() Weights {
	return Weights{Runtime: 1, Latency: 2, Utilization: 3, Replication: 1}
}

// Component is one scored input as reported on /healthz.
type Component struct {
	Name   string  `json:"name"`
	Raw    float64 `json:"raw"`    // raw source value
	Health float64 `json:"health"` // clamp-linear health in [0,1]
	Weight float64 `json:"weight"`
}

// Score is one computed feedback score with its breakdown.
type Score struct {
	Value      float64     `json:"score"` // [0,100]
	Components []Component `json:"components"`
	ComputedUs int64       `json:"computedUs"`
}

// Scorer recomputes the feedback score on demand (the live loop calls it
// once per tick) and caches the latest result for readers.
type Scorer struct {
	src     Sources
	budgets Budgets
	weights Weights

	gcStats func() (pauseMs float64, heapMiB float64) // test seam

	mu     sync.Mutex
	latest Score

	// value mirrors latest.Value for the lock-free gauge read.
	value atomic.Uint64 // math.Float64bits
}

// NewScorer builds a scorer; the role publishes it by registering Samples.
func NewScorer(src Sources, budgets Budgets, weights Weights) *Scorer {
	s := &Scorer{src: src, budgets: budgets, weights: weights, gcStats: runtimeGCStats}
	s.value.Store(math.Float64bits(100)) // healthy until first compute
	return s
}

// runtimeGCStats reads the real runtime's recent max GC pause and heap
// size.
func runtimeGCStats() (pauseMs, heapMiB float64) {
	var gc debug.GCStats
	debug.ReadGCStats(&gc)
	n := len(gc.Pause)
	if n > 8 {
		n = 8
	}
	var max time.Duration
	for _, p := range gc.Pause[:n] {
		if p > max {
			max = p
		}
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return float64(max) / 1e6, float64(mem.HeapAlloc) / (1 << 20)
}

// clampHealth maps raw through the (good, bad) clamp-linear breakpoints.
func clampHealth(raw, good, bad float64) float64 {
	if bad <= good {
		if raw > good {
			return 0
		}
		return 1
	}
	switch {
	case raw <= good:
		return 1
	case raw >= bad:
		return 0
	default:
		return (bad - raw) / (bad - good)
	}
}

// Compute recomputes the score from live sources and caches it.
func (s *Scorer) Compute() Score {
	b := s.budgets
	var comps []Component
	add := func(name string, raw, good, bad, weight float64) {
		comps = append(comps, Component{Name: name, Raw: raw, Health: clampHealth(raw, good, bad), Weight: weight})
	}

	if s.weights.Runtime > 0 {
		pauseMs, heapMiB := s.gcStats()
		w := s.weights.Runtime / 3
		add("gc_pause_ms", pauseMs, b.GCPauseGoodMs, b.GCPauseBadMs, w)
		add("goroutines", float64(runtime.NumGoroutine()), b.GoroutinesGood, b.GoroutinesBad, w)
		add("heap_mib", heapMiB, b.HeapGoodMiB, b.HeapBadMiB, w)
	}
	if s.weights.Latency > 0 {
		p95 := 0.0
		if s.src.SessionP95 != nil {
			p95 = s.src.SessionP95()
		} else {
			p95 = trace.LookupHistogram("negotiation_session_seconds").Quantile(0.95)
		}
		add("session_p95_s", p95, b.SessionP95GoodS, b.SessionP95BadS, s.weights.Latency)
	}
	if s.weights.Utilization > 0 && s.src.Utilization != nil {
		add("utilization", s.src.Utilization(), b.UtilizationGood, b.UtilizationBad, s.weights.Utilization)
	}
	if s.weights.Replication > 0 && s.src.ReplicationLag != nil {
		add("replication_lag_records", s.src.ReplicationLag(), b.ReplLagGoodRecs, b.ReplLagBadRecs, s.weights.Replication)
	}

	var sumW, sumWH float64
	for _, c := range comps {
		sumW += c.Weight
		sumWH += c.Weight * c.Health
	}
	v := 100.0
	if sumW > 0 {
		v = 100 * sumWH / sumW
	}
	sc := Score{Value: v, Components: comps, ComputedUs: time.Now().UnixMicro()}

	s.mu.Lock()
	s.latest = sc
	s.mu.Unlock()
	s.value.Store(math.Float64bits(v))
	return sc
}

// Value returns the latest score (lock-free; the gauge read).
func (s *Scorer) Value() float64 { return math.Float64frombits(s.value.Load()) }

// Latest returns the latest score with its component breakdown.
func (s *Scorer) Latest() Score {
	s.mu.Lock()
	defer s.mu.Unlock()
	sc := s.latest
	sc.Components = append([]Component(nil), s.latest.Components...)
	return sc
}

// Samples appends the score and its components as gauges.
func (s *Scorer) Samples(dst []trace.Sample) []trace.Sample {
	sc := s.Latest()
	dst = append(dst, trace.Gauge("feedback_score", "", sc.Value))
	for _, c := range sc.Components {
		dst = append(dst, trace.Gauge("feedback_component_health", trace.Label("component", c.Name), c.Health))
	}
	return dst
}

// feedbackLine renders a score as the one plain-text line — "NN%\n", the
// score rounded to an integer — that agent-check style balancers weight a
// node by.
func feedbackLine(score float64) string {
	return fmt.Sprintf("%d%%\n", int(math.Round(min(max(score, 0), 100))))
}

// FeedbackHandler serves the feedback line over HTTP (/feedback).
func FeedbackHandler(scorer *Scorer) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, feedbackLine(scorer.Value()))
	}
}
