package health

import (
	"testing"
	"time"

	"loadbalance/internal/trace"
)

// quietScorer builds a scorer with deterministic runtime stats so tests
// exercise only the source under test.
func quietScorer(src Sources, w Weights) *Scorer {
	s := NewScorer(src, DefaultBudgets(), w)
	s.gcStats = func() (float64, float64) { return 0, 0 }
	return s
}

func TestClampHealth(t *testing.T) {
	cases := []struct {
		raw, good, bad, want float64
	}{
		{0, 1, 2, 1},
		{1, 1, 2, 1},
		{1.5, 1, 2, 0.5},
		{2, 1, 2, 0},
		{99, 1, 2, 0},
		{5, 3, 3, 0}, // degenerate budgets: step function
		{2, 3, 3, 1},
	}
	for _, c := range cases {
		if got := clampHealth(c.raw, c.good, c.bad); got != c.want {
			t.Errorf("clampHealth(%g,%g,%g) = %g, want %g", c.raw, c.good, c.bad, got, c.want)
		}
	}
}

func TestScoreMonotoneInOfferedLoad(t *testing.T) {
	util := 0.5
	s := quietScorer(Sources{Utilization: func() float64 { return util }}, DefaultWeights())
	prev := 101.0
	for _, u := range []float64{0.5, 0.9, 1.0, 1.1, 1.2, 1.35, 1.5, 1.8, 2.5} {
		util = u
		sc := s.Compute()
		if sc.Value > prev {
			t.Fatalf("score rose from %g to %g when utilization rose to %g", prev, sc.Value, u)
		}
		if sc.Value < 0 || sc.Value > 100 {
			t.Fatalf("score %g out of [0,100]", sc.Value)
		}
		prev = sc.Value
	}
	// Past the Bad budget the utilization component is fully unhealthy:
	// with weights Runtime=1 (healthy) Latency=2 (0 latency => healthy)
	// Utilization=3, the floor is 100*(1+2)/(1+2+3) = 50.
	if prev != 50 {
		t.Fatalf("saturated score = %g, want 50", prev)
	}
}

func TestScoreDropsAbsentSources(t *testing.T) {
	// No utilization or replication sources: their weights drop out and a
	// quiet process scores 100.
	s := quietScorer(Sources{}, DefaultWeights())
	sc := s.Compute()
	if sc.Value != 100 {
		t.Fatalf("quiet process scored %g, want 100", sc.Value)
	}
	for _, c := range sc.Components {
		if c.Name == "utilization" || c.Name == "replication_lag_records" {
			t.Fatalf("absent source %q still contributed: %+v", c.Name, c)
		}
	}
}

func TestScoreGaugeRegistered(t *testing.T) {
	util := 2.0
	s := quietScorer(Sources{Utilization: func() float64 { return util }}, Weights{Utilization: 1})
	s.Compute()
	reg := trace.NewRegistry()
	reg.Register(s.Samples)
	v, ok := trace.Value(reg.Gather(), "feedback_score")
	if !ok || v != 0 {
		t.Fatalf("feedback_score gauge = %g, %v; want 0 (fully overloaded, only source)", v, ok)
	}
	if s.Value() != 0 {
		t.Fatalf("Value() = %g, want 0", s.Value())
	}
}

// TestLookupMetricPercentiles pins the one namespace alert rules read: a
// gathered series resolves by its full name, a histogram percentile once the
// histogram has observations, and nothing else — probing creates no family.
func TestLookupMetricPercentiles(t *testing.T) {
	reg := trace.NewRegistry()
	e := NewEngine([]RuleConfig{
		{Name: "ghost", Metric: "no_such_gauge", Op: ">", Threshold: -1},
		{Name: "idle", Metric: "some_unobserved_seconds_p99", Op: "<", Threshold: 1},
		{Name: "slow", Metric: "observed_seconds_p99", Op: ">", Threshold: 0.5},
	}, newTestLogger(t, Config{MinLevel: Off}))
	e.Metrics = reg
	reg.Histogram("observed_seconds").Observe(time.Second)
	for _, st := range e.Eval() {
		if want := map[string]string{"ghost": StateOK, "idle": StateOK, "slow": StateFiring}[st.Rule.Name]; st.State != want {
			t.Fatalf("rule %s state = %s, want %s (value %g)", st.Rule.Name, st.State, want, st.Value)
		}
	}
	if reg.Lookup("some_unobserved_seconds") != nil {
		t.Fatal("evaluating a percentile rule created its histogram family")
	}
}

func TestWriteScoreMetrics(t *testing.T) {
	util := 1.25
	s := quietScorer(Sources{Utilization: func() float64 { return util }}, DefaultWeights())
	s.Compute()
	samples := s.Samples(nil)
	if samples[0].Family != "feedback_score" || samples[0].Kind != trace.KindGauge {
		t.Fatalf("first score sample = %+v", samples[0])
	}
	if v, ok := trace.Value(samples, `feedback_component_health{component="utilization"}`); !ok || v != 0.5 {
		t.Fatalf("utilization component health = %g (found %v), want 0.5 in %+v", v, ok, samples)
	}
}
