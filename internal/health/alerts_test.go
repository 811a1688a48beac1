package health

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"testing"

	"loadbalance/internal/trace"
)

func TestParseRule(t *testing.T) {
	rc, err := ParseRule("overload:feedback_score<40:for=2")
	if err != nil {
		t.Fatalf("ParseRule: %v", err)
	}
	want := RuleConfig{Name: "overload", Metric: "feedback_score", Op: "<", Threshold: 40, For: 2}
	if rc != want {
		t.Fatalf("got %+v, want %+v", rc, want)
	}

	rc, err = ParseRule("slow:negotiation_session_seconds_p99>1.5")
	if err != nil {
		t.Fatalf("ParseRule: %v", err)
	}
	if rc.Op != ">" || rc.Threshold != 1.5 || rc.For != 1 {
		t.Fatalf("defaulted rule wrong: %+v", rc)
	}

	for _, bad := range []string{
		"", "noname", ":x<1", "n:metric", "n:<1", "n:m<", "n:m<abc",
		"n:m<1:for=0", "n:m<1:for=x", "n:m<1:until=3",
	} {
		if _, err := ParseRule(bad); err == nil {
			t.Errorf("ParseRule(%q) accepted", bad)
		}
	}

	rules, err := ParseRules("a:m<1, b:n>2:for=3")
	if err != nil || len(rules) != 2 {
		t.Fatalf("ParseRules: %v, %+v", err, rules)
	}
	if rules, err := ParseRules("  "); err != nil || rules != nil {
		t.Fatalf("empty ParseRules: %v, %+v", err, rules)
	}
}

func TestAlertSustainFireResolve(t *testing.T) {
	v := 100.0
	reg := trace.NewRegistry()
	reg.RegisterGauge("test_alert_metric", func() float64 { return v })

	l := newTestLogger(t, Config{MinLevel: Debug})
	e := NewEngine([]RuleConfig{{Name: "low", Metric: "test_alert_metric", Op: "<", Threshold: 40, For: 2}}, l)
	e.Metrics = reg
	var fired []string
	e.OnFire = func(a AlertStatus) { fired = append(fired, a.Rule.Name) }

	st := e.Eval()[0]
	if st.State != StateOK {
		t.Fatalf("healthy eval state = %s", st.State)
	}

	v = 30 // breach 1 of 2: pending, not firing
	if st = e.Eval()[0]; st.State != StatePending || len(fired) != 0 {
		t.Fatalf("first breach: state=%s fired=%v", st.State, fired)
	}
	// breach 2 of 2: fires exactly once
	if st = e.Eval()[0]; st.State != StateFiring {
		t.Fatalf("second breach: state=%s", st.State)
	}
	e.Eval() // still breaching: stays firing, no re-fire
	if len(fired) != 1 || fired[0] != "low" {
		t.Fatalf("OnFire calls = %v, want exactly one", fired)
	}
	if e.FiringCount() != 1 {
		t.Fatalf("FiringCount = %d", e.FiringCount())
	}

	v = 80 // clears: resolves immediately
	if st = e.Eval()[0]; st.State != StateOK || st.FireCount != 1 {
		t.Fatalf("resolve: %+v", st)
	}
	if e.FiringCount() != 0 {
		t.Fatalf("FiringCount after resolve = %d", e.FiringCount())
	}

	// A single-eval blip below sustain never fires.
	v = 30
	e.Eval()
	v = 80
	e.Eval()
	if len(fired) != 1 {
		t.Fatalf("blip fired: %v", fired)
	}

	// Transition events landed in the log with the alert name.
	var sawFire, sawResolve bool
	for _, ev := range l.Events(LogFilter{Component: "alerts"}) {
		switch ev.Msg {
		case "alert firing":
			sawFire = true
		case "alert resolved":
			sawResolve = true
		}
	}
	if !sawFire || !sawResolve {
		t.Fatalf("alert transitions not logged (fire=%v resolve=%v)", sawFire, sawResolve)
	}
}

func TestAlertUnknownMetricNeverFires(t *testing.T) {
	e := NewEngine([]RuleConfig{{Name: "ghost", Metric: "does_not_exist", Op: ">", Threshold: 0, For: 1}}, newTestLogger(t, Config{MinLevel: Off}))
	e.Metrics = trace.NewRegistry()
	for i := 0; i < 3; i++ {
		if st := e.Eval()[0]; st.State != StateOK {
			t.Fatalf("unknown metric state = %s", st.State)
		}
	}
}

func TestAlertsHandler(t *testing.T) {
	v := 10.0
	e := NewEngine([]RuleConfig{{Name: "hot", Metric: "test_handler_metric", Op: ">", Threshold: 5, For: 1}}, newTestLogger(t, Config{MinLevel: Off}))
	e.Metrics = trace.NewRegistry()
	e.Metrics.RegisterGauge("test_handler_metric", func() float64 { return v })
	e.Eval()

	rec := httptest.NewRecorder()
	AlertsHandler(e)(rec, httptest.NewRequest("GET", "/alerts", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /alerts: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var doc struct {
		Alerts []struct {
			Name  string  `json:"name"`
			State string  `json:"state"`
			Value float64 `json:"value"`
		} `json:"alerts"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	if len(doc.Alerts) != 1 || doc.Alerts[0].State != StateFiring || doc.Alerts[0].Value != 10 {
		t.Fatalf("alerts doc = %+v", doc)
	}
}

func TestWriteAlertMetrics(t *testing.T) {
	v := 10.0
	reg := trace.NewRegistry()
	reg.RegisterGauge("test_metrics_metric", func() float64 { return v })
	e := NewEngine([]RuleConfig{{Name: "hot", Metric: "test_metrics_metric", Op: ">", Threshold: 5, For: 1}}, newTestLogger(t, Config{MinLevel: Off}))
	e.Metrics = reg
	// Published on the registry it reads: Eval must gather before it locks.
	reg.Register(e.Samples)
	e.Eval()
	want := []trace.Sample{
		trace.Gauge("health_alert_firing", `alert="hot"`, 1),
		trace.Counter("health_alert_fired_total", `alert="hot"`, 1),
	}
	if got := e.Samples(nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("alert samples = %+v, want %+v", got, want)
	}
}
