package cluster

import (
	"errors"
	"math"
	"strings"
	"testing"

	"loadbalance/internal/core"
	"loadbalance/internal/units"
)

func TestSubScenario(t *testing.T) {
	s, err := core.SyntheticScenario(core.SyntheticConfig{N: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	members := []string{"c000002", "c000005"}
	sub, err := SubScenario(s, members, map[string]float64{"c000002": 2}, 5, "renego-1")
	if err != nil {
		t.Fatal(err)
	}
	if sub.SessionID != "renego-1" || sub.NormalUse != 5 {
		t.Fatalf("sub header = %q %v", sub.SessionID, sub.NormalUse)
	}
	if len(sub.Customers) != 2 {
		t.Fatalf("members = %d, want 2", len(sub.Customers))
	}
	for _, c := range sub.Customers {
		switch c.Name {
		case "c000002":
			if math.Abs(c.Predicted.KWhs()-27) > 1e-9 || math.Abs(c.Allowed.KWhs()-27) > 1e-9 {
				t.Fatalf("scaled member = %v/%v, want 27/27", c.Predicted, c.Allowed)
			}
		case "c000005":
			if math.Abs(c.Predicted.KWhs()-13.5) > 1e-9 {
				t.Fatalf("unscaled member = %v, want 13.5", c.Predicted)
			}
		default:
			t.Fatalf("unexpected member %q", c.Name)
		}
	}
	if err := sub.Validate(); err != nil {
		t.Fatalf("sub scenario invalid: %v", err)
	}
	// Parent stays untouched.
	if len(s.Customers) != 8 || s.SessionID == "renego-1" {
		t.Fatal("SubScenario mutated the parent")
	}
}

func TestSubScenarioRunsThroughTree(t *testing.T) {
	s, err := core.SyntheticScenario(core.SyntheticConfig{N: 12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	members := []string{"c000000", "c000001", "c000002", "c000003"}
	scale := make(map[string]float64, len(members))
	for _, n := range members {
		scale[n] = 2 // a measured 2x spike on every member
	}
	sub, err := SubScenario(s, members, scale, s.NormalUse.Scale(0.05), "renego-spike")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Scenario: sub, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds == 0 {
		t.Fatal("a spiked partial fleet over a tight residual must negotiate")
	}
	for _, n := range members {
		if res.FinalBids[n] <= 0 {
			t.Fatalf("member %s did not concede: bids=%v", n, res.FinalBids)
		}
	}
}

func TestSubScenarioErrors(t *testing.T) {
	s, err := core.SyntheticScenario(core.SyntheticConfig{N: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		members []string
		scale   map[string]float64
		normal  float64
		session string
	}{
		{"no members", nil, nil, 5, "x"},
		{"empty session", []string{"c000000"}, nil, 5, ""},
		{"bad normal", []string{"c000000"}, nil, 0, "x"},
		{"unknown member", []string{"nope"}, nil, 5, "x"},
		{"two unknown members", []string{"c000000", "nope", "nada"}, nil, 5, "x"},
		{"negative scale", []string{"c000000"}, map[string]float64{"c000000": -1}, 5, "x"},
	}
	for _, tc := range cases {
		if _, err := SubScenario(s, tc.members, tc.scale, units.Energy(tc.normal), tc.session); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: err = %v, want ErrBadConfig", tc.name, err)
		}
	}
	// With two unknown members the error names the first in the caller's
	// order, every time — not whichever a map range visits first.
	for i := 0; i < 100; i++ {
		_, err := SubScenario(s, []string{"c000000", "nope", "nada"}, nil, 5, "x")
		if want := `member "nope" not in parent scenario`; err == nil || !strings.HasSuffix(err.Error(), want) {
			t.Fatalf("call %d: err = %v, want it to end %q", i, err, want)
		}
	}
}
