package protocol

import (
	"errors"
	"math"
	"testing"
)

func TestApplyBids(t *testing.T) {
	loads := map[string]CustomerLoad{
		"a": {Predicted: 10, Allowed: 10},
		"b": {Predicted: 20, Allowed: 20},
	}
	out := ApplyBids(loads, map[string]float64{"a": 0.3})
	if got := out["a"]; got.CutDown != 0.3 || !got.Responded {
		t.Fatalf("a = %+v, want cut-down 0.3, responded", got)
	}
	if got := out["b"]; got.CutDown != 0 || got.Responded {
		t.Fatalf("b = %+v, want untouched", got)
	}
	if loads["a"].CutDown != 0 {
		t.Fatal("ApplyBids mutated its input")
	}
}

func TestSubsetLoads(t *testing.T) {
	loads := map[string]CustomerLoad{
		"a": {Predicted: 10, Allowed: 10},
		"b": {Predicted: 20, Allowed: 20},
	}
	sub, err := SubsetLoads(loads, []string{"b"})
	if err != nil {
		t.Fatal(err)
	}
	if len(sub) != 1 || sub["b"].Predicted != 20 {
		t.Fatalf("subset = %v", sub)
	}
	if _, err := SubsetLoads(loads, []string{"zz"}); !errors.Is(err, ErrUnknownCustomer) {
		t.Fatalf("unknown name error = %v", err)
	}
}

func TestResidualNormalUse(t *testing.T) {
	// The complement of a partial session over "c": a uses 8, b uses 10.
	complement := UseWithCutDown(CustomerLoad{Predicted: 10, Allowed: 10, CutDown: 0.2}).
		Add(UseWithCutDown(CustomerLoad{Predicted: 10, Allowed: 10}))
	got := ResidualNormalUse(30, complement)
	if math.Abs(got.KWhs()-12) > 1e-9 {
		t.Fatalf("residual = %v, want 12 kWh", got)
	}

	// Complement consuming beyond capacity floors at the minimum fraction.
	got = ResidualNormalUse(15, complement)
	if want := 15 * minResidualFraction; math.Abs(got.KWhs()-want) > 1e-9 {
		t.Fatalf("floored residual = %v, want %v kWh", got, want)
	}
	if got <= 0 {
		t.Fatal("residual must stay positive for scenario validation")
	}
}
